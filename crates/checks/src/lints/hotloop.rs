//! L2-HOT hot-loop allocation: event-loop files must not allocate per
//! event.
//!
//! The million-request scale path made the steady-state scheduling event
//! allocation-free: the kernel and both engine policies own reusable
//! scratch buffers (columnar views, keep masks, placement slots, the
//! persistent chip map) that are `clear()`ed per event, never
//! reallocated, and the estimate memo is a plain field of each tenant
//! record. This lint keeps it that way by banning
//! the materializing idioms inside the event-loop files:
//!
//! * `collect` / `to_vec` / `with_capacity` — per-event `Vec`
//!   materialization; extend a policy-owned scratch buffer instead;
//! * `Vec::new` / the `vec!` macro / `String::new` / `Box::new` /
//!   `format!` — fresh heap buffers; the only sanctioned sites are
//!   one-time run setup, carried in the allowlist;
//! * `.clone()` on a collection-typed value (the receiver's declared
//!   type is resolved through the item parser's local/field type maps) —
//!   a deep copy per event; borrow or reuse scratch instead.
//!
//! Scope: the kernel event loop and its sleeping heaps
//! (`crates/sim/src/sleep.rs`, which sleep, wake and re-key tenants
//! every event), the multi-node fabric round loop, both
//! engine policies and PREMA's pick (`crates/prema/src/policy.rs`, run
//! once per PREMA event), the estimate memo's seed classification
//! (`crates/core/src/sched_state.rs`, run per tenant per event), the
//! streaming quantile sketch (`crates/telemetry/src/sketch.rs`,
//! which records inside the kernel's retire path), and the completion
//! sinks (`crates/workload/src/sink.rs`), whose `record` runs once per
//! retirement. Sanctioned one-time allocation points are carried in the
//! allowlist, not exempted here.
//! The materializing scheduler wrappers in `crates/core/src/scheduler.rs`
//! stay out of scope on purpose — they are the convenience API; the
//! engines call the `*_into` variants.

use crate::diagnostics::{Diagnostic, Lint};
use crate::lexer::Token;
use crate::lints::{find_word, is_word_at};
use crate::source::SourceFile;
use crate::symbols::{ty_head, FileSymbols};

/// Files forming the per-event path.
pub(super) const HOT_SCOPE: [&str; 10] = [
    "crates/sim/src/kernel.rs",
    "crates/sim/src/sleep.rs",
    "crates/sim/src/fabric.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/fleet.rs",
    "crates/prema/src/engine.rs",
    "crates/prema/src/policy.rs",
    "crates/core/src/sched_state.rs",
    "crates/telemetry/src/sketch.rs",
    "crates/workload/src/sink.rs",
];

/// Banned whole-word tokens and why.
const HOT_TOKENS: [(&str, &str); 3] = [
    (
        "collect",
        "materializes a fresh buffer per event; extend a policy-owned \
         scratch `Vec` instead",
    ),
    (
        "to_vec",
        "clones a fresh buffer per event; reuse caller-owned scratch",
    ),
    (
        "with_capacity",
        "allocates per call; hoist the buffer into the policy and reuse it",
    ),
];

/// Banned `Type::new` allocation paths. The trailing `new` must be a
/// whole word so `VecDeque::new_in` and friends do not fire.
const NEW_PATHS: [(&str, &str, &str); 3] = [
    (
        "Vec::new",
        "Vec_new",
        "`Vec::new` in the per-event path; one-time setup buffers belong \
         in the allowlist, per-event ones in policy scratch",
    ),
    (
        "String::new",
        "String_new",
        "`String::new` in the per-event path; build text at the \
         presentation boundary, not per event",
    ),
    (
        "Box::new",
        "Box_new",
        "`Box::new` heap-allocates per event; store the value inline or \
         hoist the allocation into one-time setup",
    ),
];

/// Type heads whose `.clone()` is a per-event deep copy.
const COLLECTION_HEADS: [&str; 9] = [
    "Vec",
    "VecDeque",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "HashMap",
    "HashSet",
    "String",
    "Box",
];

/// Runs the hot-loop allocation lint over one file.
pub fn check(file: &SourceFile, tokens: &[Token], syms: &FileSymbols) -> Vec<Diagnostic> {
    if !HOT_SCOPE.iter().any(|p| file.rel == *p) {
        return Vec::new();
    }
    let mut diags = Vec::new();
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        for (token, why) in HOT_TOKENS {
            if find_word(&line.code, token).is_some() {
                diags.push(Diagnostic {
                    lint: Lint::HotLoop,
                    rel_path: file.rel.clone(),
                    line: line.number,
                    ident: token.to_string(),
                    message: format!("`{token}` in the per-event path; {why}"),
                });
            }
        }
        for (path, ident, why) in NEW_PATHS {
            if let Some(pos) = line.code.find(path) {
                if is_word_at(&line.code, pos + path.len() - 3, 3) {
                    diags.push(Diagnostic {
                        lint: Lint::HotLoop,
                        rel_path: file.rel.clone(),
                        line: line.number,
                        ident: ident.to_string(),
                        message: why.to_string(),
                    });
                }
            }
        }
        for (mac, ident) in [("vec!", "vec_macro"), ("format!", "format_macro")] {
            if line.code.contains(mac) {
                diags.push(Diagnostic {
                    lint: Lint::HotLoop,
                    rel_path: file.rel.clone(),
                    line: line.number,
                    ident: ident.to_string(),
                    message: format!(
                        "`{mac}` allocates a fresh buffer per event; reuse a \
                         policy-owned scratch buffer cleared per event instead"
                    ),
                });
            }
        }
    }
    // `.clone()` on a collection-typed receiver: resolved through the
    // declared types the item parser collected (params, `let`
    // annotations, struct fields).
    for (i, t) in tokens.iter().enumerate() {
        if t.in_test || !t.is_p(".") {
            continue;
        }
        if !(tokens.get(i + 1).is_some_and(|n| n.is_ident("clone"))
            && tokens.get(i + 2).is_some_and(|n| n.is_p("(")))
        {
            continue;
        }
        let recv_ty = if i >= 3 && tokens[i - 3].is_ident("self") && tokens[i - 2].is_p(".") {
            tokens[i - 1].ident().and_then(|f| syms.fields.get(f))
        } else if i >= 1 {
            tokens[i - 1].ident().and_then(|v| {
                syms.fns
                    .iter()
                    .find(|f| f.body.is_some_and(|(lo, hi)| lo <= i && i <= hi))
                    .and_then(|f| f.locals.get(v))
            })
        } else {
            None
        };
        if let Some(ty) = recv_ty {
            let head = ty_head(ty);
            if COLLECTION_HEADS.contains(&head) {
                diags.push(Diagnostic {
                    lint: Lint::HotLoop,
                    rel_path: file.rel.clone(),
                    line: t.line,
                    ident: "clone".to_string(),
                    message: format!(
                        "`.clone()` of a `{head}` in the per-event path deep-copies \
                         per event; borrow the value or reuse policy scratch"
                    ),
                });
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::symbols::parse;

    fn run(rel: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::parse(rel, src);
        let toks = lex(&f);
        let syms = parse(&f, &toks);
        check(&f, &toks, &syms)
    }

    #[test]
    fn collect_in_kernel_is_flagged() {
        let d = run(
            "crates/sim/src/kernel.rs",
            "fn f() { let views: Vec<u32> = tenants.iter().map(|t| t.alloc).collect(); }\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ident, "collect");
        assert_eq!(d[0].lint.code(), "L2-HOT");
    }

    #[test]
    fn vec_new_and_macro_are_flagged_in_engines() {
        for rel in ["crates/core/src/engine.rs", "crates/prema/src/engine.rs"] {
            let d = run(
                rel,
                "fn f() { let mut keep = vec![false; n];\nlet v = Vec::new(); }\n",
            );
            let idents: Vec<&str> = d.iter().map(|d| d.ident.as_str()).collect();
            assert!(idents.contains(&"vec_macro"), "{rel}");
            assert!(idents.contains(&"Vec_new"), "{rel}");
        }
    }

    #[test]
    fn to_vec_and_with_capacity_are_flagged() {
        // The memo's seed classification runs once per tenant per event.
        let d = run(
            "crates/core/src/sched_state.rs",
            "fn f() { let a = estimates.to_vec();\nlet b = Vec::with_capacity(n); }\n",
        );
        let idents: Vec<String> = d.into_iter().map(|d| d.ident).collect();
        assert!(idents.contains(&"to_vec".to_string()));
        assert!(idents.contains(&"with_capacity".to_string()));
    }

    #[test]
    fn format_string_and_box_allocations_are_flagged() {
        let d = run(
            "crates/sim/src/kernel.rs",
            "fn f() { let l = format!(\"{x}\");\nlet s = String::new();\nlet b = Box::new(x); }\n",
        );
        let idents: Vec<String> = d.into_iter().map(|d| d.ident).collect();
        assert!(idents.contains(&"format_macro".to_string()), "{idents:?}");
        assert!(idents.contains(&"String_new".to_string()), "{idents:?}");
        assert!(idents.contains(&"Box_new".to_string()), "{idents:?}");
    }

    #[test]
    fn clone_of_collection_typed_values_is_flagged() {
        let d = run(
            "crates/core/src/engine.rs",
            "struct P { memo: BTreeMap<u64, u64> }\nimpl P {\n    fn f(&self, ids: Vec<u64>) {\n        let a = ids.clone();\n        let b = self.memo.clone();\n    }\n}\n",
        );
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|d| d.ident == "clone"));
    }

    #[test]
    fn clone_of_small_values_passes() {
        // `Cycles`/`u64`-typed receivers and unknown receivers are fine:
        // only *known collection* types fire.
        let d = run(
            "crates/core/src/engine.rs",
            "fn f(c: Cycles, snap: Snapshot) { let a = c.clone(); let b = snap.clone(); let z = mystery.clone(); }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn identifiers_embedding_the_tokens_do_not_fire() {
        // `Collector`, `std::collections` and friends embed `collect` but
        // are not whole-word matches; `VecDeque::new` is not `Vec::new`.
        let d = run(
            "crates/sim/src/kernel.rs",
            "use std::collections::BTreeMap;\nfn f<C: Collector>(c: &mut C) {}\n\
             fn g() { let q = VecDeque::new_in(); }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        // The materializing scheduler wrappers are the convenience API.
        for rel in [
            "crates/core/src/scheduler.rs",
            "crates/workload/src/trace.rs",
            "crates/sim/src/tenant.rs",
        ] {
            let d = run(rel, "fn f() { let v: Vec<u32> = xs.iter().collect(); }\n");
            assert!(d.is_empty(), "{rel}");
        }
    }

    #[test]
    fn overhaul_containers_are_in_scope() {
        // The completion sinks run per retirement: allocation idioms
        // fire there too.
        let d = run(
            "crates/workload/src/sink.rs",
            "fn f() { let v: Vec<u32> = xs.iter().collect(); }\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint.code(), "L2-HOT");
    }

    #[test]
    fn test_code_is_exempt() {
        let d = run(
            "crates/core/src/engine.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(ids: Vec<u64>) { let v: Vec<u32> = it.collect(); let w = ids.clone(); }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
