//! Call-site extraction and the conservative workspace call graph.
//!
//! Per file, [`extract_calls`] walks each function body and records every
//! `name(...)` invocation with its path qualifier, method-ness, and a
//! per-argument *newtype extraction fact* (whether the argument contains
//! a raw `.0`/`.get()`/`.as_f64()` unwrap of a unit newtype). The global
//! resolver ([`Graph::resolve`]) matches call sites against the workspace
//! symbol table by unique name, disambiguating with module-path and
//! `impl`-type segments; a call that matches several candidates stays
//! ambiguous and the flow lints treat the whole candidate set
//! pessimistically. Calls that match nothing are assumed external (std or
//! out-of-workspace) — that asymmetry is the documented soundness caveat.

use crate::lexer::{matching_close, TokKind, Token};
use crate::summary::{CallRec, FileSummary};
use crate::symbols::{is_newtype, split_commas, FileSymbols, FnSym};

/// Keywords that look like `word(` but are never calls.
const NOT_CALLS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "move", "in", "let", "else", "unsafe", "fn",
    "as", "break",
];

/// Scans one argument's tokens for a raw newtype extraction:
/// `ident.0` / `ident.get()` / `ident.as_f64()`, or the same through
/// `self.field`. Returns `(newtype, via)`.
fn arg_extraction(
    tokens: &[Token],
    lo: usize,
    hi: usize,
    syms: &FileSymbols,
    caller: usize,
) -> Option<(String, String)> {
    let locals = &syms.fns[caller].locals;
    let mut i = lo;
    while i + 2 < hi {
        // Resolve the receiver's declared type, if we know it.
        let recv_ty: Option<&String> = if let Some(v) = tokens[i].ident() {
            if v == "self" && tokens[i + 1].is_p(".") && i + 3 < hi && tokens[i + 3].is_p(".") {
                let field = tokens[i + 2].ident()?;
                let ty = syms.fields.get(field);
                if ty.is_some() {
                    i += 2; // Position on the field so `.0` follows it.
                }
                ty
            } else {
                locals.get(v)
            }
        } else {
            None
        };
        if let Some(ty) = recv_ty {
            if is_newtype(ty) && tokens[i + 1].is_p(".") {
                let via = match &tokens[i + 2].kind {
                    TokKind::Num => Some(".0"),
                    TokKind::Ident(m)
                        if (m == "get" || m == "as_f64")
                            && tokens.get(i + 3).is_some_and(|t| t.is_p("(")) =>
                    {
                        Some(if m == "get" { ".get()" } else { ".as_f64()" })
                    }
                    _ => None,
                };
                if let Some(via) = via {
                    return Some((crate::symbols::ty_head(ty).to_string(), via.to_string()));
                }
            }
        }
        i += 1;
    }
    None
}

/// Extracts the call sites of every (non-test) function body in a file.
pub fn extract_calls(syms: &FileSymbols, tokens: &[Token]) -> Vec<CallRec> {
    let mut out = Vec::new();
    for (caller, f) in syms.fns.iter().enumerate() {
        let Some((lo, hi)) = f.body else { continue };
        // Skip ranges of functions nested inside this body so their calls
        // attribute to the innermost function.
        let nested: Vec<(usize, usize)> = syms
            .fns
            .iter()
            .filter_map(|g| g.body)
            .filter(|&(l, h)| l > lo && h < hi)
            .collect();
        let mut i = lo + 1;
        'scan: while i < hi {
            for &(l, h) in &nested {
                if i >= l && i <= h {
                    i = h + 1;
                    continue 'scan;
                }
            }
            let t = &tokens[i];
            if t.in_test {
                i += 1;
                continue;
            }
            let is_call = t.ident().is_some_and(|name| !NOT_CALLS.contains(&name))
                && tokens.get(i + 1).is_some_and(|n| n.is_p("("))
                && !(i > 0 && tokens[i - 1].is_ident("fn"));
            if !is_call {
                i += 1;
                continue;
            }
            let name = tokens[i].ident().unwrap_or_default().to_string();
            // Walk the `a::b::` qualifier backwards.
            let mut qualifier = Vec::new();
            let mut j = i;
            while j >= 2 && tokens[j - 1].is_p("::") {
                if let Some(q) = tokens[j - 2].ident() {
                    qualifier.insert(0, q.to_string());
                    j -= 2;
                } else {
                    break;
                }
            }
            let is_method = j > 0 && tokens[j - 1].is_p(".");
            let close = matching_close(tokens, i + 1);
            let args = split_commas(tokens, i + 2, close)
                .into_iter()
                .map(|(alo, ahi)| arg_extraction(tokens, alo, ahi, syms, caller))
                .collect();
            out.push(CallRec {
                caller,
                callee: name,
                qualifier,
                is_method,
                line: t.line,
                args,
            });
            // Keep scanning *inside* the argument list: nested calls like
            // `f(g(x))` are calls too.
            i += 2;
        }
    }
    out
}

/// A function's global id: `(file index, fn index within file)`.
pub type Gid = (usize, usize);

/// The workspace call graph: every function signature flattened, indexed
/// by name for resolution.
pub struct Graph<'a> {
    /// The file summaries backing the graph.
    pub files: &'a [FileSummary],
    by_name: std::collections::BTreeMap<&'a str, Vec<Gid>>,
}

impl<'a> Graph<'a> {
    /// Builds the graph over all file summaries.
    pub fn build(files: &'a [FileSummary]) -> Graph<'a> {
        let mut by_name: std::collections::BTreeMap<&str, Vec<Gid>> =
            std::collections::BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (si, sig) in file.fns.iter().enumerate() {
                by_name.entry(sig.name.as_str()).or_default().push((fi, si));
            }
        }
        Graph { files, by_name }
    }

    /// The signature behind a global id.
    pub fn sig(&self, gid: Gid) -> &'a FnSym {
        &self.files[gid.0].fns[gid.1]
    }

    /// The workspace-relative path of the file defining `gid`.
    pub fn file_of(&self, gid: Gid) -> &'a str {
        &self.files[gid.0].rel
    }

    /// Resolves a call site to its candidate definitions. An empty result
    /// means "external / unknown"; more than one means the call is
    /// ambiguous and callers must treat the union pessimistically.
    ///
    /// `caller_self_ty` is the `impl` type of the calling function, used
    /// to resolve `Self::` qualifiers.
    pub fn resolve(&self, call: &CallRec, caller_self_ty: Option<&str>) -> Vec<Gid> {
        let Some(cands) = self.by_name.get(call.callee.as_str()) else {
            return Vec::new();
        };
        let mut cands: Vec<Gid> = cands.clone();
        if call.is_method {
            cands.retain(|&g| self.sig(g).has_self);
        } else if call.qualifier.is_empty() {
            // A bare `name(...)` call: free functions only. (Associated
            // fns are always path-qualified in this workspace's style.)
            cands.retain(|&g| !self.sig(g).has_self);
        }
        for q in &call.qualifier {
            let q: &str = if q == "Self" {
                caller_self_ty.unwrap_or_default()
            } else {
                q
            };
            if matches!(q, "crate" | "super" | "self") || q.is_empty() {
                continue;
            }
            cands.retain(|&g| {
                let s = self.sig(g);
                s.self_ty.as_deref() == Some(q) || s.module.iter().any(|m| m == q)
            });
        }
        cands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::source::SourceFile;
    use crate::symbols::parse;

    fn calls_of(rel: &str, src: &str) -> (FileSymbols, Vec<CallRec>) {
        let f = SourceFile::parse(rel, src);
        let toks = lex(&f);
        let syms = parse(&f, &toks);
        let calls = extract_calls(&syms, &toks);
        (syms, calls)
    }

    #[test]
    fn qualified_and_method_calls_are_distinguished() {
        let (_, calls) = calls_of(
            "crates/core/src/x.rs",
            "fn run(c: SimClock) {\n    let s = c.to_seconds(x);\n    clock::helper(1);\n    plain(2);\n}\n",
        );
        assert_eq!(calls.len(), 3);
        assert!(calls[0].is_method);
        assert_eq!(calls[0].callee, "to_seconds");
        assert_eq!(calls[1].qualifier, vec!["clock"]);
        assert!(!calls[2].is_method);
        assert!(calls[2].qualifier.is_empty());
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let (_, calls) = calls_of(
            "crates/core/src/x.rs",
            "fn f() {\n    if (a) {}\n    println!(\"x\");\n    while (b) {}\n    g();\n}\n",
        );
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].callee, "g");
    }

    #[test]
    fn nested_calls_attribute_to_innermost_fn() {
        let (syms, calls) = calls_of(
            "crates/core/src/x.rs",
            "fn outer() {\n    fn inner() {\n        deep();\n    }\n    shallow();\n}\n",
        );
        let inner = syms.fns.iter().position(|f| f.name == "inner").unwrap_or(9);
        let by_callee = |n: &str| calls.iter().find(|c| c.callee == n).map(|c| c.caller);
        assert_eq!(by_callee("deep"), Some(inner));
        assert_ne!(by_callee("shallow"), Some(inner));
    }

    #[test]
    fn newtype_extraction_facts_are_attached() {
        let (_, calls) = calls_of(
            "crates/core/src/x.rs",
            "struct S { busy: Cycles }\nimpl S {\n    fn f(&self, c: Bytes) {\n        sink(c.get(), 1);\n        sink(self.busy.0, 2);\n        sink(c, 3);\n    }\n}\n",
        );
        // The nested `c.get()` is itself recorded as a (method) call.
        let sinks: Vec<&CallRec> = calls.iter().filter(|c| c.callee == "sink").collect();
        assert_eq!(sinks.len(), 3, "{calls:?}");
        assert_eq!(sinks[0].args[0], Some(("Bytes".into(), ".get()".into())));
        assert_eq!(sinks[0].args[1], None);
        assert_eq!(sinks[1].args[0], Some(("Cycles".into(), ".0".into())));
        assert_eq!(sinks[2].args[0], None);
    }

    #[test]
    fn resolution_uses_modules_self_types_and_receivers() {
        let mk = |rel: &str, src: &str| {
            let f = SourceFile::parse(rel, src);
            let toks = lex(&f);
            let syms = parse(&f, &toks);
            FileSummary {
                rel: rel.to_string(),
                diags: Vec::new(),
                calls: extract_calls(&syms, &toks),
                fns: syms.fns,
            }
        };
        let files = vec![
            mk(
                "crates/sim/src/clock.rs",
                "impl SimClock { pub fn to_seconds(&self, c: Cycles) -> f64 { 0.0 } }\npub fn helper(n: u64) -> u64 { n }\n",
            ),
            mk(
                "crates/util/src/lib.rs",
                "pub fn helper(n: u64) -> u64 { n + 1 }\n",
            ),
            mk(
                "crates/core/src/engine.rs",
                "fn run(c: SimClock) {\n    c.to_seconds(x);\n    clock::helper(1);\n    helper(2);\n}\n",
            ),
        ];
        let g = Graph::build(&files);
        let calls = &files[2].calls;
        // Method call resolves to the lone `to_seconds` with a receiver.
        let r0 = g.resolve(&calls[0], None);
        assert_eq!(r0.len(), 1);
        assert_eq!(g.file_of(r0[0]), "crates/sim/src/clock.rs");
        // `clock::helper` disambiguates by module segment.
        let r1 = g.resolve(&calls[1], None);
        assert_eq!(r1.len(), 1);
        assert_eq!(g.file_of(r1[0]), "crates/sim/src/clock.rs");
        // Bare `helper` stays ambiguous: both free fns survive.
        let r2 = g.resolve(&calls[2], None);
        assert_eq!(r2.len(), 2);
        // Unknown names resolve to nothing (assumed external).
        let unknown = CallRec {
            caller: 0,
            callee: "sqrt".into(),
            qualifier: Vec::new(),
            is_method: true,
            line: 1,
            args: Vec::new(),
        };
        assert!(g.resolve(&unknown, None).is_empty());
    }
}
