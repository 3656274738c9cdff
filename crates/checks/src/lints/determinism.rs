//! L2 determinism: the simulator must be bit-reproducible run-to-run.
//!
//! * `HashMap`/`HashSet` have per-process randomized iteration order
//!   (SipHash keys), so any scheduler, compiler, or workload code that
//!   iterates one can change results between runs. Those crates must use
//!   `BTreeMap`/`BTreeSet` (or index-based structures).
//! * Wall-clock and OS entropy (`thread_rng`, `SystemTime::now`,
//!   `Instant::now`) must never feed simulation logic; all randomness goes
//!   through the seeded `SplitMix64`.
//! * Raw threading (`std::thread::spawn`, `std::thread::scope`) is banned
//!   in the simulation crates: ad-hoc threads make result order depend on
//!   scheduling. All fan-out goes through `planaria-parallel::par_map`,
//!   whose index-ordered join is bit-identical at any job count. Only
//!   `crates/parallel` (the pool itself) and `crates/bench` (the harness)
//!   may touch `std::thread`.
//! * Ad-hoc printing (`println!`/`eprintln!`/`dbg!` and friends) is banned
//!   in library code: observability goes through a
//!   `planaria_telemetry::Collector`, and presentation through the CLI and
//!   bench binaries. Stray prints interleave nondeterministically under
//!   `par_map` and silently corrupt table/TSV output.

use crate::diagnostics::{Diagnostic, Lint};
use crate::lints::find_word;
use crate::source::SourceFile;

/// Crates where container iteration order can leak into results.
pub(super) const ORDER_SCOPE: [&str; 5] = [
    "crates/compiler/src/",
    "crates/workload/src/",
    "crates/prema/src/",
    "crates/core/src/",
    "crates/sim/src/",
];

/// Crates forming the simulation core, where clocks/entropy are forbidden.
/// `crates/workload/src/` joined when trace generation went streaming:
/// `TraceStream` draws lazily from `SplitMix64`, and any OS entropy there
/// would silently break `generate() == stream().collect()`.
pub(super) const CLOCK_SCOPE: [&str; 7] = [
    "crates/timing/src/",
    "crates/energy/src/",
    "crates/funcsim/src/",
    "crates/workload/src/",
    "crates/core/src/",
    "crates/prema/src/",
    "crates/sim/src/",
];

/// Crates where raw `std::thread` use is forbidden (the union of the order
/// and clock scopes): fan-out must go through `planaria-parallel` so joins
/// stay index-ordered. `crates/parallel/` and `crates/bench/` are outside
/// this scope by construction.
pub(super) const THREAD_SCOPE: [&str; 8] = [
    "crates/compiler/src/",
    "crates/workload/src/",
    "crates/prema/src/",
    "crates/core/src/",
    "crates/timing/src/",
    "crates/energy/src/",
    "crates/funcsim/src/",
    "crates/sim/src/",
];

/// Library crates whose code must not print: telemetry is the only
/// sanctioned side channel there. The CLI (`crates/cli`) and the
/// experiment harness (`crates/bench`) are presentation layers and stay
/// out of scope, as does `crates/checks` itself.
pub(super) const PRINT_SCOPE: [&str; 12] = [
    "crates/sim/src/",
    "crates/model/src/",
    "crates/arch/src/",
    "crates/timing/src/",
    "crates/energy/src/",
    "crates/funcsim/src/",
    "crates/compiler/src/",
    "crates/workload/src/",
    "crates/core/src/",
    "crates/prema/src/",
    "crates/parallel/src/",
    "crates/telemetry/src/",
];

const ORDER_TOKENS: [&str; 2] = ["HashMap", "HashSet"];
const PRINT_TOKENS: [&str; 5] = ["println", "eprintln", "print", "eprint", "dbg"];
const THREAD_TOKENS: [&str; 1] = ["thread"];
const CLOCK_TOKENS: [(&str, &str); 3] = [
    (
        "thread_rng",
        "use the seeded `SplitMix64` from `planaria-model`",
    ),
    (
        "SystemTime",
        "simulation time must come from the model, not the OS",
    ),
    (
        "Instant",
        "simulation time must come from the model, not the OS",
    ),
];

/// Runs L2 over one file.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    let order = ORDER_SCOPE.iter().any(|p| file.rel.starts_with(p));
    let clock = CLOCK_SCOPE.iter().any(|p| file.rel.starts_with(p));
    let thread = THREAD_SCOPE.iter().any(|p| file.rel.starts_with(p));
    // Binaries inside an otherwise-library crate are presentation code.
    let print = PRINT_SCOPE.iter().any(|p| file.rel.starts_with(p))
        && !file.rel.contains("/bin/")
        && !file.rel.ends_with("/main.rs");
    if !order && !clock && !thread && !print {
        return Vec::new();
    }
    let mut diags = Vec::new();
    for line in &file.lines {
        if line.in_test {
            continue;
        }
        if order {
            for token in ORDER_TOKENS {
                if find_word(&line.code, token).is_some() {
                    diags.push(Diagnostic {
                        lint: Lint::Determinism,
                        rel_path: file.rel.clone(),
                        line: line.number,
                        ident: token.to_string(),
                        message: format!(
                            "`{token}` iteration order is randomized per process; \
                             use `BTree{}` for reproducible results",
                            &token[4..]
                        ),
                    });
                }
            }
        }
        if clock {
            for (token, fix) in CLOCK_TOKENS {
                if find_word(&line.code, token).is_some() {
                    diags.push(Diagnostic {
                        lint: Lint::Determinism,
                        rel_path: file.rel.clone(),
                        line: line.number,
                        ident: token.to_string(),
                        message: format!(
                            "`{token}` is nondeterministic in simulation logic; {fix}"
                        ),
                    });
                }
            }
        }
        if thread {
            for token in THREAD_TOKENS {
                if find_word(&line.code, token).is_some() {
                    diags.push(Diagnostic {
                        lint: Lint::Determinism,
                        rel_path: file.rel.clone(),
                        line: line.number,
                        ident: token.to_string(),
                        message: format!(
                            "raw `{token}` use in a simulation crate; fan out through \
                             `planaria_parallel::par_map`, whose index-ordered join is \
                             deterministic at any job count"
                        ),
                    });
                }
            }
        }
        if print {
            for token in PRINT_TOKENS {
                if find_word(&line.code, token).is_some() {
                    diags.push(Diagnostic {
                        lint: Lint::Determinism,
                        rel_path: file.rel.clone(),
                        line: line.number,
                        ident: token.to_string(),
                        message: format!(
                            "`{token}!` in library code; record through a \
                             `planaria_telemetry::Collector` (or report from the \
                             CLI/bench binaries) instead of printing"
                        ),
                    });
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashmap_in_scheduler_scope_is_flagged() {
        let f = SourceFile::parse(
            "crates/core/src/scheduler.rs",
            "use std::collections::HashMap;\nlet m: HashMap<u32, u32> = HashMap::new();\n",
        );
        let d = check(&f);
        assert_eq!(d.len(), 2); // one diagnostic per token per line
        assert!(d[0].message.contains("BTreeMap"));
    }

    #[test]
    fn btreemap_passes() {
        let f = SourceFile::parse(
            "crates/core/src/scheduler.rs",
            "use std::collections::BTreeMap;\n",
        );
        assert!(check(&f).is_empty());
    }

    #[test]
    fn clock_in_timing_is_flagged() {
        let f = SourceFile::parse(
            "crates/timing/src/lib.rs",
            "let t = std::time::Instant::now();\n",
        );
        let d = check(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ident, "Instant");
    }

    #[test]
    fn comments_and_strings_never_trigger() {
        let f = SourceFile::parse(
            "crates/core/src/x.rs",
            "// HashMap would be wrong here\nlet s = \"Instant::now\";\n",
        );
        assert!(check(&f).is_empty());
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let f = SourceFile::parse("crates/cli/src/args.rs", "use std::collections::HashMap;\n");
        assert!(check(&f).is_empty());
    }

    #[test]
    fn bench_is_allowed_wall_clock() {
        let f = SourceFile::parse("crates/bench/src/lib.rs", "let t = Instant::now();\n");
        assert!(check(&f).is_empty());
    }

    #[test]
    fn raw_threading_in_sim_crates_is_flagged() {
        for rel in [
            "crates/compiler/src/library.rs",
            "crates/workload/src/metrics.rs",
            "crates/timing/src/lib.rs",
        ] {
            let f = SourceFile::parse(rel, "std::thread::scope(|s| {});\n");
            let d = check(&f);
            assert_eq!(d.len(), 1, "{rel}");
            assert!(d[0].message.contains("par_map"), "{rel}");
        }
    }

    #[test]
    fn pool_and_bench_may_use_threads() {
        for rel in ["crates/parallel/src/lib.rs", "crates/bench/src/lib.rs"] {
            let f = SourceFile::parse(rel, "std::thread::scope(|s| {});\n");
            assert!(check(&f).is_empty(), "{rel}");
        }
    }

    #[test]
    fn print_in_library_code_is_flagged() {
        for rel in [
            "crates/core/src/engine.rs",
            "crates/telemetry/src/report.rs",
            "crates/parallel/src/lib.rs",
        ] {
            let f = SourceFile::parse(rel, "println!(\"progress\");\n");
            let d = check(&f);
            assert_eq!(d.len(), 1, "{rel}");
            assert_eq!(d[0].ident, "println", "{rel}");
            assert!(d[0].message.contains("Collector"), "{rel}");
        }
    }

    #[test]
    fn print_tokens_match_whole_words_only() {
        // `println` must not additionally fire the `print` token.
        let f = SourceFile::parse("crates/core/src/engine.rs", "eprintln!(\"x\");\n");
        let d = check(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ident, "eprintln");
    }

    #[test]
    fn dbg_macro_is_flagged() {
        let f = SourceFile::parse("crates/compiler/src/table.rs", "dbg!(&shape);\n");
        let d = check(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ident, "dbg");
    }

    #[test]
    fn presentation_layers_may_print() {
        for rel in [
            "crates/cli/src/commands/trace.rs",
            "crates/bench/src/lib.rs",
            "crates/bench/src/bin/fig12_throughput.rs",
            "crates/checks/src/main.rs",
        ] {
            let f = SourceFile::parse(rel, "println!(\"table\");\n");
            assert!(check(&f).is_empty(), "{rel}");
        }
    }

    #[test]
    fn prints_in_tests_are_fine() {
        let f = SourceFile::parse(
            "crates/core/src/engine.rs",
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        println!(\"dbg\");\n    }\n}\n",
        );
        assert!(check(&f).is_empty());
    }

    #[test]
    fn thread_rng_is_not_double_counted_as_threading() {
        // `thread_rng` is one identifier: the clock lint owns it, the
        // thread lint's whole-word match must not also fire.
        let f = SourceFile::parse("crates/core/src/engine.rs", "let r = thread_rng();\n");
        let d = check(&f);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].ident, "thread_rng");
    }
}
