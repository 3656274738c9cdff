//! A lightweight item/signature parser over the token stream: functions
//! (free and `impl` methods), visibility, parameter and return types,
//! struct fields, and module paths. The output feeds the workspace
//! symbol table and call graph (`callgraph`), which the interprocedural
//! lints (`lints::flow`) run on.
//!
//! This is deliberately not a full Rust parser. It recognizes the item
//! shapes this workspace uses; exotic constructs (higher-ranked trait
//! bounds in `impl` headers, turbofish call syntax) degrade to "unknown"
//! rather than failing, and the soundness caveats are documented in
//! DESIGN.md §5g.

use crate::lexer::{matching_close, TokKind, Token};
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// One function parameter (`self` receivers are recorded via
/// [`FnSym::has_self`], not here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The binding name (`_pat` for non-identifier patterns).
    pub name: String,
    /// The rendered type.
    pub ty: String,
}

/// One function or method.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// The function name.
    pub name: String,
    /// Module path: crate segment plus file/inline-`mod` segments.
    pub module: Vec<String>,
    /// The `impl` target type when this is a method/associated fn.
    pub self_ty: Option<String>,
    /// `pub` visibility (`pub(crate)`/`pub(super)` count as private:
    /// the workspace convention guards only true public APIs).
    pub is_pub: bool,
    /// Whether the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Parameters, excluding `self`.
    pub params: Vec<Param>,
    /// Rendered return type, `""` for unit.
    pub ret: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token range of the body (open brace ..= close brace), when present.
    pub body: Option<(usize, usize)>,
    /// Declared types in scope: parameters plus `let`-annotated locals.
    pub locals: BTreeMap<String, String>,
}

/// Parsed items of one file.
#[derive(Debug, Clone, Default)]
pub struct FileSymbols {
    /// Functions in source order (test code excluded).
    pub fns: Vec<FnSym>,
    /// Struct field name → rendered type, unioned across the file's
    /// structs (used to type `self.field` expressions).
    pub fields: BTreeMap<String, String>,
}

/// Derives the module path segments for a workspace-relative file path:
/// `crates/sim/src/clock.rs` → `["sim", "clock"]`, `lib.rs`/`mod.rs`
/// segments collapse into their parent.
pub fn module_of(rel: &str) -> Vec<String> {
    let mut segs: Vec<String> = Vec::new();
    let parts: Vec<&str> = rel.split('/').collect();
    let rest: &[&str] = if parts.len() >= 3 && parts[0] == "crates" && parts[2] == "src" {
        segs.push(parts[1].replace('-', "_"));
        &parts[3..]
    } else if !parts.is_empty() && parts[0] == "src" {
        segs.push("planaria".to_string());
        &parts[1..]
    } else {
        &parts[..]
    };
    for (i, p) in rest.iter().enumerate() {
        let p = if i + 1 == rest.len() {
            p.trim_end_matches(".rs")
        } else {
            p
        };
        if p == "lib" || p == "mod" || p == "main" || p.is_empty() {
            continue;
        }
        segs.push(p.to_string());
    }
    segs
}

/// Joins type tokens back into a compact string (`&mut f64`,
/// `Option<Cycles>`); a space is kept only between adjacent word tokens.
pub fn render_ty(tokens: &[Token]) -> String {
    let mut out = String::new();
    let mut prev_word = false;
    for t in tokens {
        let (text, word): (&str, bool) = match &t.kind {
            TokKind::Ident(s) => (s.as_str(), true),
            TokKind::Num => ("0", true),
            TokKind::Str => ("\"\"", false),
            TokKind::Char => ("' '", false),
            TokKind::Life => ("", false),
            TokKind::P(p) => (p, false),
        };
        if text.is_empty() {
            continue;
        }
        if prev_word && word {
            out.push(' ');
        }
        out.push_str(text);
        prev_word = word;
    }
    out
}

/// The last path segment of a type, generics and reference sigils
/// stripped: `&mut units::Cycles` → `Cycles`.
pub fn ty_head(ty: &str) -> &str {
    let ty = ty.trim_start_matches(['&', ' ']);
    let ty = ty.strip_prefix("mut ").unwrap_or(ty);
    let ty = ty.split('<').next().unwrap_or(ty);
    ty.rsplit("::").next().unwrap_or(ty).trim()
}

/// Whether a rendered type is one of the guarded unit newtypes.
pub fn is_newtype(ty: &str) -> bool {
    matches!(ty_head(ty), "Cycles" | "Bytes" | "Picojoules")
}

/// Whether a rendered type is a bare numeric the unit lints guard.
pub fn is_bare_numeric(ty: &str) -> bool {
    matches!(ty_head(ty), "u64" | "usize" | "f64")
}

/// Skips a `<...>` generic group starting at `i` (which must point at
/// `<`), returning the index just past the matching `>`.
fn skip_generics(tokens: &[Token], i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    while j < tokens.len() {
        if tokens[j].is_p("<") {
            depth += 1;
        } else if tokens[j].is_p(">") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// Splits `tokens` on top-level commas (paren/bracket/brace *and* angle
/// depth), returning the sub-ranges.
pub(crate) fn split_commas(tokens: &[Token], start: usize, end: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut angle = 0i64;
    let mut seg = start;
    for (i, token) in tokens.iter().enumerate().take(end).skip(start) {
        match &token.kind {
            TokKind::P("(") | TokKind::P("[") | TokKind::P("{") => depth += 1,
            TokKind::P(")") | TokKind::P("]") | TokKind::P("}") => depth -= 1,
            TokKind::P("<") => angle += 1,
            TokKind::P(">") => angle = (angle - 1).max(0),
            TokKind::P(",") if depth == 0 && angle == 0 => {
                out.push((seg, i));
                seg = i + 1;
            }
            _ => {}
        }
    }
    if seg < end {
        out.push((seg, end));
    }
    out
}

/// What opened the current brace scope.
enum Scope {
    Mod(String),
    Impl(Option<String>),
    Other,
}

/// Extracts the `impl` target type from the header tokens (everything
/// between `impl` and the body `{`).
fn impl_self_ty(tokens: &[Token]) -> Option<String> {
    let mut i = 0;
    if i < tokens.len() && tokens[i].is_p("<") {
        i = skip_generics(tokens, i);
    }
    // `impl Trait for Type` → the type after `for`; plain `impl Type`
    // otherwise. `for` is matched at angle depth 0 so bounds survive.
    let mut angle = 0i64;
    let mut for_at = None;
    for (k, t) in tokens.iter().enumerate().skip(i) {
        if t.is_p("<") {
            angle += 1;
        } else if t.is_p(">") {
            angle -= 1;
        } else if angle == 0 && t.is_ident("for") {
            for_at = Some(k);
        } else if angle == 0 && t.is_ident("where") {
            break;
        }
    }
    let ty_start = for_at.map_or(i, |k| k + 1);
    tokens[ty_start..].iter().find_map(|t| match &t.kind {
        TokKind::Ident(s) if !matches!(s.as_str(), "mut" | "dyn" | "where") => Some(s.clone()),
        _ => None,
    })
}

/// Whether the tokens before `fn_idx` make the item `pub` (exactly `pub`,
/// not `pub(crate)`/`pub(super)`).
fn is_pub_before(tokens: &[Token], fn_idx: usize) -> bool {
    let lo = fn_idx.saturating_sub(6);
    for k in (lo..fn_idx).rev() {
        if tokens[k].is_ident("pub") {
            return !tokens.get(k + 1).is_some_and(|t| t.is_p("("));
        }
        let cont = matches!(
            &tokens[k].kind,
            TokKind::Ident(s) if matches!(s.as_str(), "const" | "unsafe" | "extern" | "async")
        ) || matches!(&tokens[k].kind, TokKind::Str);
        if !cont {
            return false;
        }
    }
    false
}

/// Collects `let [mut] name: Type` annotations inside a body range.
fn collect_locals(tokens: &[Token], body: (usize, usize), locals: &mut BTreeMap<String, String>) {
    let (lo, hi) = body;
    let mut i = lo;
    while i < hi {
        if tokens[i].is_ident("let") {
            let mut j = i + 1;
            if j < hi && tokens[j].is_ident("mut") {
                j += 1;
            }
            if let Some(name) = tokens.get(j).and_then(Token::ident) {
                if tokens.get(j + 1).is_some_and(|t| t.is_p(":")) {
                    // Type runs to the `=` or `;` at top depth.
                    let mut depth = 0i64;
                    let mut angle = 0i64;
                    let mut k = j + 2;
                    while k < hi {
                        match &tokens[k].kind {
                            TokKind::P("(") | TokKind::P("[") => depth += 1,
                            TokKind::P(")") | TokKind::P("]") => depth -= 1,
                            TokKind::P("<") => angle += 1,
                            TokKind::P(">") => angle -= 1,
                            TokKind::P("=") | TokKind::P(";") if depth == 0 && angle <= 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    locals.insert(name.to_string(), render_ty(&tokens[j + 2..k]));
                    i = k;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// Parses struct fields from a body range into the field map.
fn collect_fields(tokens: &[Token], body: (usize, usize), fields: &mut BTreeMap<String, String>) {
    for (lo, hi) in split_commas(tokens, body.0 + 1, body.1) {
        let mut i = lo;
        // Skip attributes and visibility.
        while i < hi {
            if tokens[i].is_p("#") {
                if tokens.get(i + 1).is_some_and(|t| t.is_p("[")) {
                    i = matching_close(tokens, i + 1) + 1;
                    continue;
                }
                i += 1;
            } else if tokens[i].is_ident("pub") {
                i += 1;
                if tokens.get(i).is_some_and(|t| t.is_p("(")) {
                    i = matching_close(tokens, i) + 1;
                }
            } else {
                break;
            }
        }
        let Some(name) = tokens.get(i).and_then(Token::ident) else {
            continue;
        };
        if !tokens.get(i + 1).is_some_and(|t| t.is_p(":")) {
            continue;
        }
        fields.insert(name.to_string(), render_ty(&tokens[i + 2..hi]));
    }
}

/// Parses the items of one file. Items inside `#[cfg(test)]` regions are
/// skipped entirely: they are neither linted nor part of the symbol
/// table.
pub fn parse(file: &SourceFile, tokens: &[Token]) -> FileSymbols {
    let base = module_of(&file.rel);
    let mut out = FileSymbols::default();
    let mut stack: Vec<Scope> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        match &t.kind {
            TokKind::Ident(w) if w == "mod" && !t.in_test => {
                if let (Some(name), Some(open)) =
                    (tokens.get(i + 1).and_then(Token::ident), tokens.get(i + 2))
                {
                    if open.is_p("{") {
                        stack.push(Scope::Mod(name.to_string()));
                        i += 3;
                        continue;
                    }
                }
                i += 1;
            }
            TokKind::Ident(w) if w == "impl" && !t.in_test => {
                let mut j = i + 1;
                while j < tokens.len() && !tokens[j].is_p("{") && !tokens[j].is_p(";") {
                    j += 1;
                }
                if j < tokens.len() && tokens[j].is_p("{") {
                    stack.push(Scope::Impl(impl_self_ty(&tokens[i + 1..j])));
                    i = j + 1;
                } else {
                    i = j + 1;
                }
            }
            TokKind::Ident(w) if (w == "struct" || w == "union") && !t.in_test => {
                // Record field types; enums/tuple structs are skipped.
                let mut j = i + 1;
                while j < tokens.len()
                    && !tokens[j].is_p("{")
                    && !tokens[j].is_p(";")
                    && !tokens[j].is_p("(")
                {
                    j += 1;
                }
                if j < tokens.len() && tokens[j].is_p("{") {
                    let close = matching_close(tokens, j);
                    collect_fields(tokens, (j, close), &mut out.fields);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            TokKind::Ident(w) if w == "fn" => {
                if t.in_test {
                    i += 1;
                    continue;
                }
                let Some(name) = tokens.get(i + 1).and_then(Token::ident) else {
                    i += 1;
                    continue;
                };
                let mut j = i + 2;
                if tokens.get(j).is_some_and(|t| t.is_p("<")) {
                    j = skip_generics(tokens, j);
                }
                if !tokens.get(j).is_some_and(|t| t.is_p("(")) {
                    i += 1;
                    continue;
                }
                let close = matching_close(tokens, j);
                let mut has_self = false;
                let mut params = Vec::new();
                let mut locals = BTreeMap::new();
                for (lo, hi) in split_commas(tokens, j + 1, close) {
                    let slice = &tokens[lo..hi];
                    if slice.iter().take(3).any(|t| t.is_ident("self")) {
                        has_self = true;
                        continue;
                    }
                    let colon = slice.iter().position(|t| t.is_p(":"));
                    let Some(colon) = colon else { continue };
                    let pname = slice[..colon]
                        .iter()
                        .filter_map(Token::ident)
                        .find(|s| *s != "mut")
                        .unwrap_or("_pat")
                        .to_string();
                    let ty = render_ty(&slice[colon + 1..]);
                    locals.insert(pname.clone(), ty.clone());
                    params.push(Param { name: pname, ty });
                }
                // Return type: `-> Type` up to `{`, `;`, or `where`.
                let mut k = close + 1;
                let mut ret = String::new();
                if tokens.get(k).is_some_and(|t| t.is_p("->")) {
                    let start = k + 1;
                    let mut angle = 0i64;
                    k = start;
                    while k < tokens.len() {
                        match &tokens[k].kind {
                            TokKind::P("<") => angle += 1,
                            TokKind::P(">") => angle -= 1,
                            TokKind::P("{") | TokKind::P(";") if angle <= 0 => break,
                            TokKind::Ident(s) if s == "where" && angle <= 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    ret = render_ty(&tokens[start..k]);
                }
                while k < tokens.len() && !tokens[k].is_p("{") && !tokens[k].is_p(";") {
                    k += 1;
                }
                let body = if tokens.get(k).is_some_and(|t| t.is_p("{")) {
                    Some((k, matching_close(tokens, k)))
                } else {
                    None
                };
                if let Some(b) = body {
                    collect_locals(tokens, b, &mut locals);
                }
                let mut module = base.clone();
                let mut self_ty = None;
                for s in &stack {
                    match s {
                        Scope::Mod(m) => module.push(m.clone()),
                        Scope::Impl(t) => self_ty = t.clone(),
                        Scope::Other => {}
                    }
                }
                out.fns.push(FnSym {
                    name: name.to_string(),
                    module,
                    self_ty,
                    is_pub: is_pub_before(tokens, i),
                    has_self,
                    params,
                    ret,
                    line: t.line,
                    body,
                    locals,
                });
                // Continue *inside* the signature's end so nested items in
                // the body are still discovered by this loop.
                i = body.map_or(k + 1, |(open, _)| open + 1);
                if body.is_some() {
                    stack.push(Scope::Other);
                }
            }
            TokKind::P("{") => {
                stack.push(Scope::Other);
                i += 1;
            }
            TokKind::P("}") => {
                stack.pop();
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(rel: &str, src: &str) -> FileSymbols {
        let f = SourceFile::parse(rel, src);
        let toks = lex(&f);
        parse(&f, &toks)
    }

    #[test]
    fn module_paths_follow_file_layout() {
        assert_eq!(module_of("crates/sim/src/clock.rs"), vec!["sim", "clock"]);
        assert_eq!(module_of("crates/sim/src/lib.rs"), vec!["sim"]);
        assert_eq!(
            module_of("crates/model/src/nets/googlenet.rs"),
            vec!["model", "nets", "googlenet"]
        );
        assert_eq!(module_of("src/lib.rs"), vec!["planaria"]);
    }

    #[test]
    fn free_fn_signature_is_parsed() {
        let s = parse_src(
            "crates/timing/src/x.rs",
            "pub fn account(t: &mut Timing, dram_bytes: u64, scale: f64) -> bool { true }\n",
        );
        assert_eq!(s.fns.len(), 1);
        let f = &s.fns[0];
        assert_eq!(f.name, "account");
        assert!(f.is_pub);
        assert!(!f.has_self);
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.params[1].name, "dram_bytes");
        assert_eq!(f.params[1].ty, "u64");
        assert_eq!(f.params[0].ty, "&mut Timing");
        assert_eq!(f.ret, "bool");
    }

    #[test]
    fn impl_methods_carry_self_type() {
        let s = parse_src(
            "crates/sim/src/clock.rs",
            "impl SimClock {\n    pub fn to_seconds(&self, cycles: Cycles) -> f64 { 0.0 }\n}\n\
             impl fmt::Display for Cycles {\n    fn fmt(&self) -> bool { true }\n}\n",
        );
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].self_ty.as_deref(), Some("SimClock"));
        assert!(s.fns[0].has_self);
        assert_eq!(s.fns[0].ret, "f64");
        assert_eq!(s.fns[1].self_ty.as_deref(), Some("Cycles"));
        assert!(!s.fns[1].is_pub);
    }

    #[test]
    fn generic_impls_and_fns_are_handled() {
        let s = parse_src(
            "crates/sim/src/kernel.rs",
            "impl<C: Collector> Kernel<C> {\n    pub fn run<P: Policy>(&mut self, m: BTreeMap<u64, Vec<u32>>) -> SimResult { r }\n}\n",
        );
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].self_ty.as_deref(), Some("Kernel"));
        assert_eq!(s.fns[0].params[0].ty, "BTreeMap<u64,Vec<u32>>");
        assert_eq!(s.fns[0].ret, "SimResult");
    }

    #[test]
    fn pub_crate_is_not_public_api() {
        let s = parse_src(
            "crates/core/src/x.rs",
            "pub(crate) fn helper(n: u64) -> u64 { n }\npub fn api(n: u64) -> u64 { n }\n",
        );
        assert!(!s.fns[0].is_pub);
        assert!(s.fns[1].is_pub);
    }

    #[test]
    fn inline_mods_extend_the_path_and_tests_are_skipped() {
        let s = parse_src(
            "crates/core/src/lib.rs",
            "mod inner {\n    pub fn deep() {}\n}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n",
        );
        assert_eq!(s.fns.len(), 1);
        assert_eq!(s.fns[0].module, vec!["core", "inner"]);
    }

    #[test]
    fn let_annotations_and_params_become_locals() {
        let s = parse_src(
            "crates/core/src/x.rs",
            "fn f(c: Cycles) {\n    let mut w: Bytes = Bytes::new(1);\n    let d = c;\n}\n",
        );
        let locals = &s.fns[0].locals;
        assert_eq!(locals.get("c").map(String::as_str), Some("Cycles"));
        assert_eq!(locals.get("w").map(String::as_str), Some("Bytes"));
        assert!(!locals.contains_key("d"));
    }

    #[test]
    fn struct_fields_are_typed() {
        let s = parse_src(
            "crates/core/src/x.rs",
            "pub struct T {\n    pub busy: Cycles,\n    #[doc(hidden)]\n    pub(crate) scratch: Vec<u32>,\n}\n",
        );
        assert_eq!(s.fields.get("busy").map(String::as_str), Some("Cycles"));
        assert_eq!(
            s.fields.get("scratch").map(String::as_str),
            Some("Vec<u32>")
        );
    }

    #[test]
    fn newtype_and_bare_classifiers() {
        assert!(is_newtype("Cycles"));
        assert!(is_newtype("&units::Picojoules"));
        assert!(!is_newtype("u64"));
        assert!(is_bare_numeric("u64"));
        assert!(is_bare_numeric("&mut f64"));
        assert!(!is_bare_numeric("Cycles"));
    }

    #[test]
    fn trait_method_signatures_without_bodies_parse() {
        let s = parse_src(
            "crates/sim/src/lib.rs",
            "pub trait Policy {\n    fn estimate(&self, n: u64) -> f64;\n    fn name(&self) -> &'static str {\n        \"p\"\n    }\n}\n",
        );
        assert_eq!(s.fns.len(), 2);
        assert_eq!(s.fns[0].ret, "f64");
        assert!(s.fns[0].body.is_none());
        assert!(s.fns[1].body.is_some());
    }
}
