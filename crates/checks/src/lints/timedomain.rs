//! L2 time-domain: event-loop code must keep time in integer cycles.
//!
//! The discrete-event kernel refactor removed every float-seconds
//! accumulator from the engines: arrivals/deadlines convert to [`Cycles`]
//! once on admission and back to seconds once at the result boundary.
//! This lint keeps it that way inside the event-loop files — the policy
//! engines (`crates/core/src/engine.rs`, `crates/prema/src/engine.rs`)
//! and the kernel itself (`crates/sim/src/`):
//!
//! * the old float-era idioms (`DONE_EPS` completion tolerances,
//!   `to_cycles` per-event conversions, `round`-based quantization,
//!   `seconds_at` presentation helpers, `1e-12` arrival epsilons and
//!   `1e-9` tolerances) are banned outright;
//! * raw `as u64` casts are banned: cycle-valued quantities flow through
//!   the `Cycles` newtype, and any narrowing goes through `u64::try_from`
//!   so truncation is explicit.
//!
//! The single sanctioned float↔cycle boundary is `crates/sim/src/clock.rs`
//! (`SimClock`), allowlisted as such.
//!
//! [`Cycles`]: https://docs.rs/planaria-model

use crate::diagnostics::{Diagnostic, Lint};
use crate::lints::find_word;
use crate::source::SourceFile;

/// Event-loop files where float time arithmetic is banned. Exact files
/// for the engines and the cluster dispatch layers (their scheduler/
/// policy siblings legitimately hold dimensionless f64 scores) plus the
/// whole kernel crate — which includes the multi-node fabric — and the
/// streaming quantile sketch, whose cycle-valued buckets must stay
/// integer end-to-end.
pub(super) const TIME_SCOPE: [&str; 8] = [
    "crates/arch/src/geometry.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/cluster.rs",
    "crates/core/src/fleet.rs",
    "crates/prema/src/engine.rs",
    "crates/prema/src/cluster.rs",
    "crates/sim/src/",
    "crates/telemetry/src/sketch.rs",
];

/// Banned whole-word tokens and why.
const TIME_TOKENS: [(&str, &str); 6] = [
    (
        "DONE_EPS",
        "float completion tolerances are gone; completion is exact integer \
         `work_done >= work_total`",
    ),
    (
        "to_cycles",
        "per-event float→cycle conversion drifts; convert once at the \
         `SimClock` boundary",
    ),
    (
        "round",
        "rounding implies float time inside the event loop; keep cycles \
         integer end-to-end",
    ),
    (
        "seconds_at",
        "seconds belong at the presentation boundary, not inside the \
         event loop",
    ),
    (
        "1e-12",
        "arrival epsilons are gone; integer cycle comparison is exact",
    ),
    (
        "1e-9",
        "float time tolerances are gone; integer cycle comparison is exact",
    ),
];

/// Runs the time-domain lint over one file.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    if !TIME_SCOPE.iter().any(|p| file.rel.starts_with(p)) {
        return Vec::new();
    }
    let mut diags = Vec::new();
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        for (token, why) in TIME_TOKENS {
            if find_word(&line.code, token).is_some() {
                diags.push(Diagnostic {
                    lint: Lint::TimeDomain,
                    rel_path: file.rel.clone(),
                    line: line.number,
                    ident: token.to_string(),
                    message: format!("`{token}` in event-loop code; {why}"),
                });
            }
        }
        // `as u64` is a substring pattern (two tokens), not a word.
        if line.code.contains("as u64") {
            diags.push(Diagnostic {
                lint: Lint::TimeDomain,
                rel_path: file.rel.clone(),
                line: line.number,
                ident: "as_u64".to_string(),
                message: "raw `as u64` cast in event-loop code; keep cycle values in \
                          the `Cycles` newtype or narrow explicitly with `u64::try_from`"
                    .to_string(),
            });
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_epsilons_in_engine_are_flagged() {
        let f = SourceFile::parse(
            "crates/core/src/engine.rs",
            "const DONE_EPS: f64 = 1e-9;\nlet c = (dt * freq).round() as u64;\n",
        );
        let d = check(&f);
        let idents: Vec<&str> = d.iter().map(|d| d.ident.as_str()).collect();
        assert!(idents.contains(&"DONE_EPS"));
        assert!(idents.contains(&"1e-9"));
        assert!(idents.contains(&"round"));
        assert!(idents.contains(&"as_u64"));
    }

    #[test]
    fn arrival_epsilon_is_flagged() {
        let f = SourceFile::parse(
            "crates/sim/src/kernel.rs",
            "while arrival <= now + 1e-12 {}\n",
        );
        let d = check(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ident, "1e-12");
    }

    #[test]
    fn integer_cycles_pass() {
        let f = SourceFile::parse(
            "crates/sim/src/kernel.rs",
            "let dt = t_next.saturating_sub(sim.now);\nsim.now = t_next;\n\
             let n = u64::try_from(scaled).unwrap_or(u64::MAX);\n",
        );
        assert!(check(&f).is_empty());
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let f = SourceFile::parse(
            "crates/workload/src/trace.rs",
            "let t = (seconds * freq).round() as u64;\n",
        );
        assert!(check(&f).is_empty());
    }

    #[test]
    fn scheduler_scores_stay_out_of_scope() {
        // Dimensionless f64 ratios in the scheduler are fine; only the
        // event-loop files are scoped.
        let f = SourceFile::parse(
            "crates/core/src/scheduler.rs",
            "let score = priority as f64 / cycles.round();\n",
        );
        assert!(check(&f).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let f = SourceFile::parse(
            "crates/sim/src/kernel.rs",
            "#[cfg(test)]\nmod tests {\n    fn x() { let _ = 7u32 as u64; }\n}\n",
        );
        assert!(check(&f).is_empty());
    }
}
