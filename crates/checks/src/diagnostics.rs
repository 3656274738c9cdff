//! Diagnostic records and their text/JSON renderings.

use std::fmt;

/// Which lint produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// L1: bare numeric types where a unit newtype is required.
    UnitSafety,
    /// L1-FLOW: raw newtype extraction flowing into a bare pub parameter.
    UnitFlow,
    /// L2: nondeterministic containers or entropy/clock sources.
    Determinism,
    /// L2-TIME: float-seconds idioms inside event-loop files.
    TimeDomain,
    /// L2-HOT: per-event allocation idioms inside the event loop.
    HotLoop,
    /// L2-FLOW: float-seconds taint reaching the event loop via helpers.
    FloatFlow,
    /// L3: unjustified `unwrap`/`expect`/`#[allow]`.
    Hygiene,
    /// L4: nondeterministic state captured by a `par_map` or
    /// `par_for_each_mut` closure.
    Parallelism,
}

impl Lint {
    /// Every lint, in code order.
    pub const ALL: [Lint; 8] = [
        Lint::UnitSafety,
        Lint::UnitFlow,
        Lint::Determinism,
        Lint::TimeDomain,
        Lint::HotLoop,
        Lint::FloatFlow,
        Lint::Hygiene,
        Lint::Parallelism,
    ];

    /// Stable short code used in output and the allowlist.
    pub fn code(self) -> &'static str {
        match self {
            Lint::UnitSafety => "L1",
            Lint::UnitFlow => "L1-FLOW",
            Lint::Determinism => "L2",
            Lint::TimeDomain => "L2-TIME",
            Lint::HotLoop => "L2-HOT",
            Lint::FloatFlow => "L2-FLOW",
            Lint::Hygiene => "L3",
            Lint::Parallelism => "L4",
        }
    }

    /// Parses a lint code back to the lint.
    pub fn from_code(code: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.code() == code)
    }

    /// A long-form explanation for `--explain <CODE>`.
    pub fn explain(self) -> &'static str {
        match self {
            Lint::UnitSafety => {
                "L1 unit-safety (line-local)\n\
                 \n\
                 Public functions and struct fields in the quantity crates\n\
                 (timing, energy, compiler, isa, workload, core, prema) must\n\
                 not pass cycle/byte/energy quantities as bare u64/usize/f64.\n\
                 Use the Cycles/Bytes/Picojoules newtypes from planaria-model\n\
                 so the type system prevents cycles-vs-seconds and\n\
                 joules-vs-picojoules mix-ups. Rates (e.g. bytes per cycle)\n\
                 are legitimately dimensionless and belong in the allowlist."
            }
            Lint::UnitFlow => {
                "L1-FLOW newtype escape (interprocedural)\n\
                 \n\
                 A raw extraction (`.0`, `.get()`, `.as_f64()`) of a\n\
                 Cycles/Bytes/Picojoules value is passed as an argument whose\n\
                 receiving `pub fn` parameter is typed bare u64/usize/f64 in a\n\
                 guarded crate. The quantity loses its unit at a public API\n\
                 boundary — exactly what L1 exists to prevent — but through a\n\
                 call, where the line-local L1 signature check cannot see it.\n\
                 Change the callee parameter to the newtype, or keep the raw\n\
                 value crate-internal."
            }
            Lint::Determinism => {
                "L2 determinism (line-local)\n\
                 \n\
                 Simulation results must be bit-reproducible run-to-run: no\n\
                 HashMap/HashSet (per-process randomized iteration order) in\n\
                 scheduler/compiler/workload code, no wall-clock or OS entropy\n\
                 (thread_rng, SystemTime::now, Instant::now) in simulation\n\
                 logic, no raw std::thread (fan out via planaria_parallel::\n\
                 par_map), and no ad-hoc printing in library code (use a\n\
                 planaria_telemetry::Collector)."
            }
            Lint::TimeDomain => {
                "L2-TIME integer time domain (line-local)\n\
                 \n\
                 Event-loop files (crates/sim/src/, the two engines) keep time\n\
                 in integer Cycles end-to-end: float-era idioms (DONE_EPS,\n\
                 to_cycles, round, seconds_at, 1e-12/1e-9 epsilons) and raw\n\
                 `as u64` casts are banned. The single sanctioned float<->cycle\n\
                 boundary is crates/sim/src/clock.rs (SimClock)."
            }
            Lint::HotLoop => {
                "L2-HOT hot-loop allocation (line-local)\n\
                 \n\
                 The per-event path (kernel event loop, both engine policies,\n\
                 the scheduler memo) must not allocate per event: collect,\n\
                 to_vec, with_capacity, Vec::new, vec!, format!, String::new,\n\
                 Box::new, and .clone() on collection-typed values are banned.\n\
                 Extend a policy-owned scratch buffer that is clear()ed per\n\
                 event instead; one-time setup buffers go in the allowlist."
            }
            Lint::FloatFlow => {
                "L2-FLOW float-seconds taint (interprocedural)\n\
                 \n\
                 Seeds: f64-returning functions of crates/sim/src/clock.rs\n\
                 (the sanctioned boundary) and any f64-returning function with\n\
                 a seconds-suggestive name (contains `sec`/`second`/`time`, or\n\
                 ends in `_s`). Taint propagates caller-ward through functions\n\
                 that themselves return f64 — a helper `fn secs(c: Cycles) ->\n\
                 f64` defined in an unguarded crate is tainted even though no\n\
                 banned token appears in the event loop. Reported: any call in\n\
                 an event-loop file to a tainted function defined outside\n\
                 clock.rs, and any tainted function defined in an event-loop\n\
                 file. Calling clock.rs directly is the sanctioned conversion\n\
                 and is never reported."
            }
            Lint::Hygiene => {
                "L3 hygiene (line-local)\n\
                 \n\
                 Library code must not panic on recoverable paths: .unwrap()/\n\
                 .expect(...) and #[allow(...)] require an adjacent\n\
                 `// lint: <reason>` justification. Binary targets (src/bin/,\n\
                 main.rs, the cli crate) are exempt."
            }
            Lint::Parallelism => {
                "L4 parallel determinism (closure analysis)\n\
                 \n\
                 Closures passed to par_map must be pure functions of their\n\
                 item, and closures passed to par_for_each_mut may mutate\n\
                 only the item they are given: the fan-out is only\n\
                 bit-deterministic if workers share no mutable state.\n\
                 Flagged inside the closure body: `&mut`\n\
                 captures of outer state, interior mutability (Cell/RefCell/\n\
                 Mutex/RwLock/UnsafeCell/atomics), `static mut` access, and\n\
                 order-sensitive accumulation through shared state\n\
                 (.lock()/.borrow_mut()/.fetch_*) in reduction position. Move\n\
                 per-item state into the closure or reduce over the ordered\n\
                 result vector after the join."
            }
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding: lint, location, the offending identifier/token, and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The lint that fired.
    pub lint: Lint,
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// 1-based line number.
    pub line: usize,
    /// The identifier or token the lint matched (allowlist key).
    pub ident: String,
    /// Explanation and suggested fix.
    pub message: String,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Diagnostic {
    /// `path:line: [Lx] message` — the editor-clickable text form.
    pub fn render_text(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.rel_path, self.line, self.lint, self.message
        )
    }

    /// One JSON object (no trailing newline).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"lint\":\"{}\",\"path\":\"{}\",\"line\":{},\"ident\":\"{}\",\"message\":\"{}\"}}",
            self.lint,
            json_escape(&self.rel_path),
            self.line,
            json_escape(&self.ident),
            json_escape(&self.message)
        )
    }
}

/// Renders the full diagnostic list as a JSON array.
pub fn render_json_report(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[\n");
    for (i, d) in diags.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&d.render_json());
        if i + 1 < diags.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            lint: Lint::UnitSafety,
            rel_path: "crates/timing/src/lib.rs".into(),
            line: 42,
            ident: "cycles".into(),
            message: "say \"Cycles\"".into(),
        }
    }

    #[test]
    fn text_form_is_clickable() {
        assert_eq!(
            diag().render_text(),
            "crates/timing/src/lib.rs:42: [L1] say \"Cycles\""
        );
    }

    #[test]
    fn json_form_escapes_quotes() {
        let j = diag().render_json();
        assert!(j.contains("\\\"Cycles\\\""), "{j}");
        assert!(j.contains("\"line\":42"));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn json_report_is_an_array() {
        let r = render_json_report(&[diag(), diag()]);
        assert!(r.starts_with('[') && r.ends_with(']'));
        assert_eq!(r.matches("\"lint\"").count(), 2);
        assert_eq!(render_json_report(&[]), "[\n]");
    }
}
