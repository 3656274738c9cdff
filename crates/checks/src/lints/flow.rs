//! Interprocedural flow lints over the workspace call graph.
//!
//! **L2-FLOW float-seconds taint.** The line-local L2-TIME lint bans
//! float-seconds *tokens* in event-loop files, which a one-line helper
//! can launder: `fn secs(c: Cycles) -> f64` defined in an unguarded
//! crate, called from an engine, reintroduces float time without any
//! banned token appearing in scope. This pass seeds taint at the
//! `SimClock` boundary (every f64-returning function in
//! `crates/sim/src/clock.rs`) and at f64-returning functions whose names
//! suggest seconds, propagates caller-ward through f64-returning
//! wrappers, and reports (a) calls in event-loop files to tainted
//! functions defined outside `clock.rs`, and (b) tainted functions
//! *defined* in event-loop files. Calls that resolve to `clock.rs` are
//! the sanctioned conversion and are never reported — that is the whole
//! point of having one boundary.
//!
//! **L1-FLOW newtype escape.** The line-local L1 lint checks signatures;
//! it cannot see a raw `.0`/`.get()`/`.as_f64()` extraction whose value
//! crosses a public API one call later. This pass takes the extraction
//! facts recorded per call argument and reports those whose receiving
//! `pub fn` parameter is typed bare `u64`/`usize`/`f64` in a guarded
//! crate.
//!
//! Both passes use [`Graph::resolve`]'s conservative candidate sets:
//! ambiguous calls are treated pessimistically (the union of candidates),
//! unknown names are assumed external and clean. The soundness caveats
//! are documented in DESIGN.md §5g.

use crate::callgraph::{Gid, Graph};
use crate::diagnostics::{Diagnostic, Lint};
use crate::summary::FileSummary;
use crate::symbols::is_bare_numeric;
use std::collections::BTreeSet;

/// Event-loop files guarded by L2-FLOW (same scope as L2-TIME): the two
/// engines, their cluster dispatch layers and fleet runner, and the
/// whole kernel crate (which includes the multi-node fabric).
const TIME_SCOPE: [&str; 6] = [
    "crates/core/src/engine.rs",
    "crates/core/src/cluster.rs",
    "crates/core/src/fleet.rs",
    "crates/prema/src/engine.rs",
    "crates/prema/src/cluster.rs",
    "crates/sim/src/",
];

/// The one sanctioned float↔cycle boundary.
const CLOCK: &str = "crates/sim/src/clock.rs";

/// Crates whose public APIs are guarded by L1/L1-FLOW.
const UNIT_SCOPE: [&str; 7] = [
    "crates/timing/src/",
    "crates/energy/src/",
    "crates/compiler/src/",
    "crates/isa/src/",
    "crates/workload/src/",
    "crates/core/src/",
    "crates/prema/src/",
];

fn in_time_scope(rel: &str) -> bool {
    TIME_SCOPE.iter().any(|p| rel.starts_with(p))
}

/// Whether a function name suggests it returns seconds. Deliberately
/// word-boundary-ish on `sec` so `bisect`/`intersect` don't seed.
fn seconds_name(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    n.contains("second")
        || n.contains("time")
        || n == "sec"
        || n == "secs"
        || n.starts_with("sec_")
        || n.starts_with("secs_")
        || n.ends_with("_sec")
        || n.ends_with("_secs")
        || n.ends_with("_s")
}

/// Computes the tainted-function set: seeds plus the closure under
/// "an f64-returning function that calls a tainted function is tainted".
fn tainted_set(g: &Graph<'_>) -> BTreeSet<Gid> {
    let mut tainted: BTreeSet<Gid> = BTreeSet::new();
    for (fi, file) in g.files.iter().enumerate() {
        for (si, sig) in file.fns.iter().enumerate() {
            if sig.ret == "f64" && (file.rel == CLOCK || seconds_name(&sig.name)) {
                tainted.insert((fi, si));
            }
        }
    }
    // Fixpoint: propagate caller-ward through f64-returning wrappers.
    loop {
        let mut grew = false;
        for (fi, file) in g.files.iter().enumerate() {
            for call in &file.calls {
                let Some(caller) = file.fns.get(call.caller) else {
                    continue;
                };
                if caller.ret != "f64" || tainted.contains(&(fi, call.caller)) {
                    continue;
                }
                let cands = g.resolve(call, &caller.self_ty);
                if cands.iter().any(|c| tainted.contains(c)) {
                    tainted.insert((fi, call.caller));
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    tainted
}

/// Runs L2-FLOW over the summaries.
fn float_flow(g: &Graph<'_>, diags: &mut Vec<Diagnostic>) {
    let tainted = tainted_set(g);
    for (fi, file) in g.files.iter().enumerate() {
        if !in_time_scope(&file.rel) || file.rel == CLOCK {
            continue;
        }
        // Tainted functions *defined* in an event-loop file.
        for (si, sig) in file.fns.iter().enumerate() {
            if tainted.contains(&(fi, si)) {
                diags.push(Diagnostic {
                    lint: Lint::FloatFlow,
                    rel_path: file.rel.clone(),
                    line: sig.line,
                    ident: sig.name.clone(),
                    message: format!(
                        "fn `{}` returns f64 carrying float-seconds taint inside an \
                         event-loop file; time stays in integer `Cycles` here — convert \
                         once at the `SimClock` boundary (crates/sim/src/clock.rs)",
                        sig.name
                    ),
                });
            }
        }
        // Calls from an event-loop file to tainted functions defined
        // elsewhere (calls into clock.rs are the sanctioned boundary).
        for call in &file.calls {
            let Some(caller) = file.fns.get(call.caller) else {
                continue;
            };
            let cands = g.resolve(call, &caller.self_ty);
            let offender = cands
                .iter()
                .find(|&&c| tainted.contains(&c) && g.file_of(c) != CLOCK);
            if let Some(&c) = offender {
                diags.push(Diagnostic {
                    lint: Lint::FloatFlow,
                    rel_path: file.rel.clone(),
                    line: call.line,
                    ident: call.callee.clone(),
                    message: format!(
                        "call to `{}` ({}) returns float-seconds into event-loop code; \
                         the line-local lints cannot see this helper — route the \
                         conversion through `SimClock` (crates/sim/src/clock.rs) or keep \
                         the value in integer `Cycles`",
                        call.callee,
                        g.file_of(c)
                    ),
                });
            }
        }
    }
}

/// Runs L1-FLOW over the summaries.
fn unit_flow(g: &Graph<'_>, diags: &mut Vec<Diagnostic>) {
    for file in g.files {
        for call in &file.calls {
            if call.args.iter().all(Option::is_none) {
                continue;
            }
            let Some(caller) = file.fns.get(call.caller) else {
                continue;
            };
            let cands = g.resolve(call, &caller.self_ty);
            for (i, fact) in call.args.iter().enumerate() {
                let Some((newtype, via)) = fact else { continue };
                let escape = cands.iter().find(|&&c| {
                    let sig = g.sig(c);
                    sig.is_pub
                        && UNIT_SCOPE.iter().any(|p| g.file_of(c).starts_with(p))
                        && sig.params.get(i).is_some_and(|(_, ty)| is_bare_numeric(ty))
                });
                if let Some(&c) = escape {
                    let (pname, pty) = &g.sig(c).params[i];
                    diags.push(Diagnostic {
                        lint: Lint::UnitFlow,
                        rel_path: file.rel.clone(),
                        line: call.line,
                        ident: call.callee.clone(),
                        message: format!(
                            "raw `{newtype}` extraction (`{via}`) flows into bare \
                             `{pty}` parameter `{pname}` of pub fn `{}` ({}); the \
                             quantity loses its unit at a public API — pass the \
                             newtype through instead",
                            call.callee,
                            g.file_of(c)
                        ),
                    });
                }
            }
        }
    }
}

/// Runs both interprocedural lints over the full summary set.
pub fn check(files: &[FileSummary]) -> Vec<Diagnostic> {
    let g = Graph::build(files);
    let mut diags = Vec::new();
    float_flow(&g, &mut diags);
    unit_flow(&g, &mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::extract_calls;
    use crate::lexer::lex;
    use crate::source::SourceFile;
    use crate::summary::summarize;
    use crate::symbols::parse;

    fn mk(rel: &str, src: &str) -> FileSummary {
        let f = SourceFile::parse(rel, src);
        let toks = lex(&f);
        let syms = parse(&f, &toks);
        let calls = extract_calls(&syms, &toks);
        summarize(rel, 0, &syms, calls, Vec::new())
    }

    const CLOCK_SRC: &str = "impl SimClock {\n    pub fn to_seconds(&self, c: Cycles) -> f64 { 0.0 }\n    pub fn span_seconds(&self, a: Cycles, b: Cycles) -> f64 { 0.0 }\n}\n";

    #[test]
    fn helper_laundering_is_caught() {
        // The exact hole from the issue: a helper in an unguarded crate
        // returns float seconds; the engine calls it. No banned token ever
        // appears in the engine, so L2-TIME is silent — L2-FLOW fires.
        let files = vec![
            mk("crates/sim/src/clock.rs", CLOCK_SRC),
            mk(
                "crates/bench/src/lib.rs",
                "pub fn secs(c: Cycles) -> f64 { c.as_f64() / 1e9 }\n",
            ),
            mk(
                "crates/core/src/engine.rs",
                "fn step(c: Cycles) -> u64 {\n    let s = secs(c);\n    quantize(s)\n}\n",
            ),
        ];
        let d = check(&files);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint.code(), "L2-FLOW");
        assert_eq!(d[0].rel_path, "crates/core/src/engine.rs");
        assert_eq!(d[0].ident, "secs");
    }

    #[test]
    fn clock_boundary_calls_are_sanctioned() {
        let files = vec![
            mk("crates/sim/src/clock.rs", CLOCK_SRC),
            mk(
                "crates/sim/src/kernel.rs",
                "fn finish(clock: &SimClock, c: Cycles) -> SimResult {\n    let s = clock.to_seconds(c);\n    pack(s)\n}\n",
            ),
        ];
        let d = check(&files);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn taint_propagates_through_f64_wrappers() {
        // `wall` has no seconds-ish name and no banned token, but it wraps
        // a seed; the engine's call one hop away is still caught.
        let files = vec![
            mk(
                "crates/bench/src/lib.rs",
                "pub fn base_time(c: Cycles) -> f64 { c.as_f64() }\npub fn wall(c: Cycles) -> f64 { base_time(c) }\n",
            ),
            mk(
                "crates/prema/src/engine.rs",
                "fn tick(c: Cycles) {\n    record(wall(c));\n}\n",
            ),
        ];
        let d = check(&files);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].ident, "wall");
    }

    #[test]
    fn non_f64_wrappers_stop_taint() {
        // A fn returning a struct is a legitimate result boundary; calling
        // it from the engine is fine.
        let files = vec![
            mk(
                "crates/bench/src/lib.rs",
                "pub fn elapsed_secs(c: Cycles) -> f64 { c.as_f64() }\npub fn report(c: Cycles) -> Report { wrap(elapsed_secs(c)) }\n",
            ),
            mk(
                "crates/core/src/engine.rs",
                "fn done(c: Cycles) {\n    emit(report(c));\n}\n",
            ),
        ];
        let d = check(&files);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn tainted_definitions_inside_event_loop_are_flagged() {
        let files = vec![mk(
            "crates/sim/src/kernel.rs",
            "fn elapsed_seconds(c: Cycles) -> f64 { c.as_f64() }\n",
        )];
        let d = check(&files);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].ident, "elapsed_seconds");
    }

    #[test]
    fn newtype_escape_through_one_hop_is_caught() {
        // `budget` is not unit-named, so line-local L1 passes the callee
        // signature; only the flow pass sees the extraction cross it.
        let files = vec![
            mk(
                "crates/timing/src/lib.rs",
                "pub fn set_budget(budget: u64) -> bool { budget > 0 }\n",
            ),
            mk(
                "crates/cli/src/lib.rs",
                "fn apply(c: Cycles) {\n    set_budget(c.get());\n}\n",
            ),
        ];
        let d = check(&files);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint.code(), "L1-FLOW");
        assert_eq!(d[0].rel_path, "crates/cli/src/lib.rs");
        assert!(d[0].message.contains("Cycles"), "{}", d[0].message);
    }

    #[test]
    fn newtype_passed_whole_is_clean() {
        let files = vec![
            mk(
                "crates/timing/src/lib.rs",
                "pub fn set_budget(budget: Cycles) -> bool { budget.get() > 0 }\n",
            ),
            mk(
                "crates/cli/src/lib.rs",
                "fn apply(c: Cycles) {\n    set_budget(c);\n}\n",
            ),
        ];
        assert!(check(&files).is_empty());
    }

    #[test]
    fn extraction_into_unguarded_crate_is_clean() {
        // `Cycles::new(x.get())`-style round-trips through the model crate
        // (out of scope) must not fire.
        let files = vec![
            mk(
                "crates/model/src/units.rs",
                "impl Cycles { pub fn new(raw: u64) -> Cycles { Cycles(raw) } }\n",
            ),
            mk(
                "crates/cli/src/lib.rs",
                "fn bump(c: Cycles) -> Cycles {\n    Cycles::new(c.get() + 1)\n}\n",
            ),
        ];
        assert!(check(&files).is_empty());
    }
}
