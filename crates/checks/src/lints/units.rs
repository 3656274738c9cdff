//! L1 unit-safety: public functions and struct fields in the quantity
//! crates (`timing`, `energy`, `compiler`, `isa`) and the simulation
//! result crates (`workload`, `core`, `prema`) must not pass cycle,
//! byte, or energy quantities as bare `u64`/`usize`/`f64` — the
//! `Cycles`/`Bytes`/`Picojoules` newtypes from `planaria-model` exist so
//! the type system prevents cycles-vs-seconds and joules-vs-picojoules
//! mix-ups. Rates (e.g. bytes *per cycle*) are legitimately dimensionless
//! floats and go in the allowlist.

use crate::diagnostics::{Diagnostic, Lint};
use crate::source::SourceFile;

/// Crates whose public APIs carry physical quantities. `workload`, `core`
/// and `prema` joined the scope when their result structs
/// (`Completion::energy`, `SimResult::total_energy`) moved from bare
/// `f64` joules to the `Picojoules` newtype.
pub(super) const SCOPE: [&str; 7] = [
    "crates/timing/src/",
    "crates/energy/src/",
    "crates/compiler/src/",
    "crates/isa/src/",
    "crates/workload/src/",
    "crates/core/src/",
    "crates/prema/src/",
];

/// Bare numeric types that must not carry a unit-suggesting name.
const BARE: [&str; 3] = ["u64", "usize", "f64"];

/// Whether the identifier names a physical quantity.
fn unit_named(ident: &str) -> bool {
    let lower = ident.to_ascii_lowercase();
    lower.contains("cycle")
        || lower.contains("byte")
        || lower.contains("energy")
        || lower.contains("joule")
        || lower.ends_with("_j")
        || lower.ends_with("_pj")
}

/// Suggested newtype for an identifier.
fn suggest(ident: &str) -> &'static str {
    let lower = ident.to_ascii_lowercase();
    if lower.contains("cycle") {
        "Cycles"
    } else if lower.contains("byte") {
        "Bytes"
    } else {
        "Picojoules"
    }
}

fn is_bare(ty: &str) -> bool {
    let ty = ty
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim();
    BARE.contains(&ty)
}

/// Splits `params` on commas at zero bracket depth.
fn split_top_level(params: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in params.char_indices() {
        match c {
            '(' | '<' | '[' => depth += 1,
            ')' | '>' | ']' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&params[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&params[start..]);
    out
}

/// Joins a signature starting at `lines[start]` until its body `{` or a
/// terminating `;`, returning the flattened text.
fn collect_signature(file: &SourceFile, start: usize) -> String {
    let mut sig = String::new();
    for line in &file.lines[start..] {
        let code = line.code.as_str();
        let end = code.find('{').or_else(|| {
            // A `;` terminates only once the parameter list is closed;
            // checked by the caller via paren balance on the joined text.
            code.rfind(';').map(|p| p + 1)
        });
        match end {
            Some(pos) => {
                sig.push_str(&code[..pos.min(code.len())]);
                if balanced(&sig) {
                    break;
                }
                sig.push(' ');
                if pos < code.len() {
                    sig.push_str(&code[pos..]);
                    sig.push(' ');
                }
            }
            None => {
                sig.push_str(code);
                sig.push(' ');
            }
        }
        if sig.len() > 4096 {
            break; // defensive bound; no real signature is this long
        }
    }
    sig
}

fn balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut seen = false;
    for c in s.chars() {
        match c {
            '(' => {
                depth += 1;
                seen = true;
            }
            ')' => depth -= 1,
            _ => {}
        }
    }
    seen && depth == 0
}

fn ident_at_start(s: &str) -> Option<&str> {
    let s = s.trim_start();
    let end = s
        .char_indices()
        .find(|(_, c)| !(c.is_ascii_alphanumeric() || *c == '_'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    if end == 0 {
        None
    } else {
        Some(&s[..end])
    }
}

/// Runs L1 over one file.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    if !SCOPE.iter().any(|p| file.rel.starts_with(p)) {
        return Vec::new();
    }
    let mut diags = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let trimmed = line.code.trim_start();
        // --- public function signatures ---------------------------------
        // Note: `pub(crate)` is deliberately not matched — the workspace
        // convention is newtypes at public API boundaries, raw integers in
        // crate-internal arithmetic.
        if let Some(rest) = trimmed
            .strip_prefix("pub fn ")
            .or_else(|| trimmed.strip_prefix("pub const fn "))
        {
            let Some(fn_name) = ident_at_start(rest) else {
                continue;
            };
            let sig = collect_signature(file, idx);
            let Some(open) = sig.find('(') else { continue };
            let close = matching_paren(&sig, open).unwrap_or(sig.len());
            let params = &sig[open + 1..close.min(sig.len()).saturating_sub(0)];
            for param in split_top_level(params) {
                let Some(colon) = param.find(':') else {
                    continue;
                };
                let (name, ty) = (param[..colon].trim(), &param[colon + 1..]);
                let name = name.trim_start_matches("mut ").trim();
                if unit_named(name) && is_bare(ty) {
                    diags.push(Diagnostic {
                        lint: Lint::UnitSafety,
                        rel_path: file.rel.clone(),
                        line: line.number,
                        ident: name.to_string(),
                        message: format!(
                            "parameter `{name}` of pub fn `{fn_name}` is a bare `{}`; use the `{}` newtype",
                            ty.trim(),
                            suggest(name)
                        ),
                    });
                }
            }
            if let Some(arrow) = sig[close.min(sig.len())..].find("->") {
                let ret = sig[close + arrow + 2..]
                    .trim()
                    .trim_end_matches(['{', ';'])
                    .trim();
                if unit_named(fn_name) && is_bare(ret) {
                    diags.push(Diagnostic {
                        lint: Lint::UnitSafety,
                        rel_path: file.rel.clone(),
                        line: line.number,
                        ident: fn_name.to_string(),
                        message: format!(
                            "pub fn `{fn_name}` returns a bare `{ret}`; use the `{}` newtype",
                            suggest(fn_name)
                        ),
                    });
                }
            }
            continue;
        }
        // --- public struct fields ---------------------------------------
        if let Some(rest) = trimmed.strip_prefix("pub ") {
            if rest.starts_with("fn ")
                || rest.starts_with("struct ")
                || rest.starts_with("enum ")
                || rest.starts_with("mod ")
                || rest.starts_with("use ")
                || rest.starts_with("const ")
                || rest.starts_with("static ")
                || rest.starts_with("type ")
                || rest.starts_with("trait ")
            {
                continue;
            }
            let Some(colon) = rest.find(':') else {
                continue;
            };
            let Some(name) = ident_at_start(&rest[..colon]) else {
                continue;
            };
            if name.len() != rest[..colon].trim().len() {
                continue; // not a plain `name: type` field
            }
            let ty = rest[colon + 1..].trim().trim_end_matches(',').trim();
            if unit_named(name) && is_bare(ty) {
                diags.push(Diagnostic {
                    lint: Lint::UnitSafety,
                    rel_path: file.rel.clone(),
                    line: line.number,
                    ident: name.to_string(),
                    message: format!(
                        "pub field `{name}` is a bare `{ty}`; use the `{}` newtype",
                        suggest(name)
                    ),
                });
            }
        }
    }
    diags
}

fn matching_paren(s: &str, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, c) in s[open..].char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        check(&SourceFile::parse("crates/timing/src/x.rs", src))
    }

    #[test]
    fn bare_cycle_param_is_flagged() {
        let d = run("pub fn run(total_cycles: u64) -> bool { true }\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ident, "total_cycles");
        assert!(d[0].message.contains("Cycles"));
    }

    #[test]
    fn bare_return_with_unit_name_is_flagged() {
        let d = run("pub fn total_cycles(&self) -> u64 { 0 }\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ident, "total_cycles");
    }

    #[test]
    fn newtyped_signatures_pass() {
        assert!(run("pub fn total_cycles(&self) -> Cycles { Cycles::ZERO }\n").is_empty());
        assert!(run("pub fn run(cycles: Cycles, seconds: f64) -> f64 { 0.0 }\n").is_empty());
    }

    #[test]
    fn bare_pub_field_is_flagged() {
        let d = run("pub struct T {\n    pub tile_bytes: u64,\n    pub tiles: u64,\n}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ident, "tile_bytes");
        assert!(d[0].message.contains("Bytes"));
    }

    #[test]
    fn energy_suffix_suggests_picojoules() {
        let d = run("pub fn f(dynamic_j: f64) {}\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("Picojoules"));
    }

    #[test]
    fn multiline_signatures_are_joined() {
        let d = run("pub fn f(\n    a: u32,\n    dram_bytes: u64,\n) -> bool {\n    true\n}\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ident, "dram_bytes");
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        let f = SourceFile::parse("crates/model/src/x.rs", "pub fn f(cycles: u64) {}\n");
        assert!(check(&f).is_empty());
    }

    #[test]
    fn test_modules_are_ignored() {
        let src = "#[cfg(test)]\nmod tests {\n    pub fn f(cycles: u64) {}\n}\n";
        assert!(run(src).is_empty());
    }
}
