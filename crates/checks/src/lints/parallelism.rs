//! L4 parallel-determinism: closures handed to `par_map` must be pure
//! functions of their item, and closures handed to `par_for_each_mut`
//! may mutate only the item they are given.
//!
//! `planaria_parallel::par_map` joins worker results in index order, and
//! `par_for_each_mut` hands each slice item to exactly one worker, so the
//! outcome is deterministic — but only if workers share no mutable state.
//! A closure that mutates captured state (directly via `&mut`, or through
//! interior mutability) reintroduces scheduling order into the results,
//! which is exactly what the cluster fabric's per-round fan-out cannot
//! tolerate. This pass finds every call site of the two fan-out
//! functions, isolates the closure argument, and flags:
//!
//! * `&mut x` where `x` is not closure-local (a shared-state capture);
//! * interior-mutability types (`Cell`, `RefCell`, `Mutex`, `RwLock`,
//!   `UnsafeCell`, `Atomic*`) named inside the closure;
//! * `static mut` access;
//! * order-sensitive accumulation: `.lock()`, `.borrow_mut()`, or
//!   `.fetch_*` calls in the closure body.
//!
//! `crates/parallel/src/` itself (the implementation and its doc
//! examples) is out of scope, as is test code.

use crate::diagnostics::{Diagnostic, Lint};
use crate::lexer::{matching_close, Token};
use crate::source::SourceFile;
use crate::symbols::{split_commas, ty_head, FileSymbols};
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// The fan-out functions whose closure argument this pass checks.
const SITES: [&str; 2] = ["par_map", "par_for_each_mut"];

/// Interior-mutability type names that make a closure order-sensitive.
const INTERIOR: [&str; 5] = ["Cell", "RefCell", "Mutex", "RwLock", "UnsafeCell"];

/// Whether a type head is an interior-mutability container.
fn is_interior(head: &str) -> bool {
    INTERIOR.contains(&head) || (head.starts_with("Atomic") && head.len() > 6)
}

/// Collects the closure's own bindings: pipe-list params and `let`
/// patterns in the body. Over-collecting (type idents in annotations) is
/// fine — it only makes the lint more conservative about reporting.
fn closure_locals(
    tokens: &[Token],
    params: (usize, usize),
    body: (usize, usize),
) -> BTreeSet<String> {
    let mut locals = BTreeSet::new();
    for t in &tokens[params.0..params.1] {
        if let Some(id) = t.ident() {
            locals.insert(id.to_string());
        }
    }
    let mut i = body.0;
    while i < body.1 {
        if tokens[i].is_ident("let") {
            let mut j = i + 1;
            while j < body.1 && !tokens[j].is_p("=") && !tokens[j].is_p(";") {
                if let Some(id) = tokens[j].ident() {
                    locals.insert(id.to_string());
                }
                j += 1;
            }
            i = j;
        }
        i += 1;
    }
    locals
}

/// Lints one closure body range; `site` names the fan-out function.
fn check_body(
    file: &SourceFile,
    tokens: &[Token],
    site: &str,
    body: (usize, usize),
    locals: &BTreeSet<String>,
    outer: &BTreeMap<String, String>,
    diags: &mut Vec<Diagnostic>,
) {
    let diag = |line: usize, ident: &str, message: String| Diagnostic {
        lint: Lint::Parallelism,
        rel_path: file.rel.clone(),
        line,
        ident: ident.to_string(),
        message,
    };
    let mut i = body.0;
    while i < body.1 {
        let t = &tokens[i];
        // `&mut x` capturing non-local state.
        if t.is_p("&") && tokens.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            if let Some(v) = tokens.get(i + 2).and_then(Token::ident) {
                if !locals.contains(v) && v != "self" {
                    diags.push(diag(
                        tokens[i + 2].line,
                        v,
                        format!(
                            "`{site}` closure takes `&mut {v}` to captured state; workers \
                             would share a mutable value, making results depend on \
                             scheduling order — move the state into the closure or reduce \
                             over the ordered result vector after the join"
                        ),
                    ));
                }
                i += 3;
                continue;
            }
        }
        // `static mut` access.
        if t.is_ident("static") && tokens.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
            diags.push(diag(
                t.line,
                "static_mut",
                format!(
                    "`static mut` inside a `{site}` closure is shared mutable state \
                     across workers; results become scheduling-dependent"
                ),
            ));
            i += 2;
            continue;
        }
        // Interior mutability: the type named directly in the body, or a
        // captured ident whose declared type (from the enclosing fn) is an
        // interior-mutable container.
        if let Some(id) = t.ident() {
            if is_interior(id) {
                diags.push(diag(
                    t.line,
                    id,
                    format!(
                        "`{id}` inside a `{site}` closure is interior mutability shared \
                         across workers; the join is only bit-deterministic for pure \
                         closures — accumulate over the ordered results instead"
                    ),
                ));
            } else if !locals.contains(id) {
                if let Some(ty) = outer.get(id) {
                    let head = ty_head(ty);
                    if is_interior(head) {
                        diags.push(diag(
                            t.line,
                            id,
                            format!(
                                "`{site}` closure captures `{id}: {ty}`; `{head}` is \
                                 interior mutability shared across workers — accumulate \
                                 over the ordered result vector after the join instead"
                            ),
                        ));
                    }
                }
            }
        }
        // Order-sensitive accumulation: `.lock()` / `.borrow_mut()` /
        // `.fetch_*()`.
        if t.is_p(".") {
            if let Some(m) = tokens.get(i + 1).and_then(Token::ident) {
                let accum = matches!(m, "lock" | "borrow_mut") || m.starts_with("fetch_");
                if accum && tokens.get(i + 2).is_some_and(|n| n.is_p("(")) {
                    diags.push(diag(
                        tokens[i + 1].line,
                        m,
                        format!(
                            "`.{m}()` inside a `{site}` closure accumulates through shared \
                             state in worker-completion order; fold over the ordered result \
                             vector after the join instead"
                        ),
                    ));
                    i += 3;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// Runs L4 over one file's token stream.
pub fn check(file: &SourceFile, tokens: &[Token], syms: &FileSymbols) -> Vec<Diagnostic> {
    if file.rel.starts_with("crates/parallel/src/") {
        return Vec::new();
    }
    let mut diags = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        let site = t.ident().filter(|id| {
            SITES.contains(id)
                && tokens.get(i + 1).is_some_and(|n| n.is_p("("))
                && !t.in_test
                && !(i > 0 && tokens[i - 1].is_ident("fn"))
        });
        let Some(site) = site else {
            i += 1;
            continue;
        };
        let close = matching_close(tokens, i + 1);
        // The closure is the last argument containing a top-level `|`.
        let mut closure = None;
        for (lo, hi) in split_commas(tokens, i + 2, close) {
            let mut depth = 0i64;
            for (k, token) in tokens.iter().enumerate().take(hi).skip(lo) {
                match () {
                    _ if token.is_p("(") || token.is_p("[") || token.is_p("{") => depth += 1,
                    _ if token.is_p(")") || token.is_p("]") || token.is_p("}") => depth -= 1,
                    _ if depth == 0 && token.is_p("|") => {
                        closure = Some((k, hi));
                        break;
                    }
                    _ => {}
                }
            }
        }
        if let Some((pipe, arg_end)) = closure {
            // Params run to the matching `|`; `||` means empty params.
            let params_end = (pipe + 1..arg_end)
                .find(|&k| tokens[k].is_p("|"))
                .unwrap_or(pipe);
            let body = (params_end + 1, arg_end);
            let locals = closure_locals(tokens, (pipe + 1, params_end), body);
            // Declared types visible at the call site, for resolving what
            // captured idents actually are.
            static EMPTY: BTreeMap<String, String> = BTreeMap::new();
            let outer = syms
                .fns
                .iter()
                .find(|f| f.body.is_some_and(|(lo, hi)| lo <= i && i <= hi))
                .map_or(&EMPTY, |f| &f.locals);
            check_body(file, tokens, site, body, &locals, outer, &mut diags);
        }
        i = close.max(i + 1);
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::symbols::parse;

    fn run(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse("crates/bench/src/lib.rs", src);
        let toks = lex(&f);
        let syms = parse(&f, &toks);
        check(&f, &toks, &syms)
    }

    #[test]
    fn mut_capture_is_flagged() {
        let d = run(
            "fn f(items: Vec<u64>, total: &mut u64) {\n    par_map(items, 4, |x| { add(&mut total, x) });\n}\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ident, "total");
        assert_eq!(d[0].lint.code(), "L4");
    }

    #[test]
    fn for_each_mut_capture_is_flagged_but_its_item_is_not() {
        let d = run(
            "fn f(lanes: &mut [Lane], total: &mut u64) {\n    par_for_each_mut(lanes, 4, |l| {\n        advance(&mut l.node, &mut total);\n    });\n}\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].ident, "total");
        assert_eq!(d[0].lint.code(), "L4");
        assert!(d[0].message.contains("`par_for_each_mut` closure"), "{d:?}");
    }

    #[test]
    fn closure_local_mut_is_clean() {
        let d = run(
            "fn f(items: Vec<u64>) {\n    par_map(items, 4, |x| {\n        let mut acc = 0;\n        bump(&mut acc, x);\n        acc\n    });\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn interior_mutability_and_fetch_are_flagged() {
        // `n` never names its type in the closure body; the capture is
        // resolved through the enclosing fn's declared parameter types.
        let d = run(
            "fn f(items: Vec<u64>, n: &AtomicU64) {\n    par_map(items, 4, |x| n.fetch_add(x, Ordering::SeqCst));\n}\n",
        );
        let idents: Vec<&str> = d.iter().map(|d| d.ident.as_str()).collect();
        assert!(idents.contains(&"n"), "{idents:?}");
        assert!(idents.contains(&"fetch_add"), "{idents:?}");
        // Naming the type directly also fires.
        let d2 = run(
            "fn g(items: Vec<u64>) {\n    par_map(items, 2, |x| CELL.with(|c: &RefCell<u64>| x));\n}\n",
        );
        let idents2: Vec<&str> = d2.iter().map(|d| d.ident.as_str()).collect();
        assert!(idents2.contains(&"RefCell"), "{idents2:?}");
    }

    #[test]
    fn lock_in_reduction_position_is_flagged() {
        let d = run(
            "fn f(items: Vec<u64>, sums: &Mutex<Vec<u64>>) {\n    par_map(items, 2, |x| sums.lock().push(x));\n}\n",
        );
        let idents: Vec<&str> = d.iter().map(|d| d.ident.as_str()).collect();
        assert!(idents.contains(&"lock"), "{idents:?}");
    }

    #[test]
    fn pure_closures_pass() {
        let d = run(
            "fn f(items: Vec<Scenario>) -> Vec<RunResult> {\n    par_map(items, 4, |s| run_scenario(&s))\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn closures_elsewhere_in_args_are_not_the_closure() {
        // The `|x| x * 2` inside map() sits at bracket depth > 0; only the
        // final closure argument is analyzed.
        let d = run(
            "fn f(xs: Vec<u64>, t: &mut u64) {\n    par_map(xs.iter().map(|x| x * 2).collect(), 2, |y| pure(y));\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn parallel_crate_and_tests_are_exempt() {
        let f = SourceFile::parse(
            "crates/parallel/src/lib.rs",
            "fn f(items: Vec<u64>, t: &mut u64) { par_map(items, 2, |x| add(&mut t, x)); }\n",
        );
        let toks = lex(&f);
        let syms = parse(&f, &toks);
        assert!(check(&f, &toks, &syms).is_empty());
        let d = run(
            "#[cfg(test)]\nmod tests {\n    fn f(items: Vec<u64>, t: &mut u64) { par_map(items, 2, |x| add(&mut t, x)); }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
