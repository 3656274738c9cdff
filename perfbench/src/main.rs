//! The Planaria simulator's benchmark: one command per workload, printing
//! every end-to-end metric (bare run) or per-layer metric (traced run)
//! with its unit, after checking that the simulated outputs are correct.
//!
//! ```text
//! perfbench --workload <serve-burst|fleet-jsq|figure-sweep> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --fingerprints <workload> <first-seed> <last-seed>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` beside
//! this crate for what each workload and metric is for.

mod host;
mod layers;
mod run;
#[cfg(test)]
mod tests;
mod workloads;

use host::{CountingAlloc, Host};
use run::{Report, Spec};
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <serve-burst|fleet-jsq|figure-sweep> \
--seed <n> --seconds <s> --trace <0|1>\n       \
perfbench --fingerprints <workload> <first-seed> <last-seed>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let host = match Host::detect() {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.first().map(String::as_str) == Some("--fingerprints") {
        fingerprints(&args[1..])
    } else {
        parse(&args, &host).map(|spec| benchmark(&spec, &host))
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String], host: &Host) -> Result<Spec, String> {
    let get = |flag: &str| -> Result<Option<String>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let num = |v: Option<String>, flag: &str| -> Result<Option<u64>, String> {
        v.map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("{flag} {s:?} is not a whole number"))
        })
        .transpose()
    };
    let workload = get("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let seed = num(get("--seed")?, "--seed")?.ok_or("--seed is required")?;
    let seconds = num(get("--seconds")?, "--seconds")?.ok_or("--seconds is required")?;
    let trace = match get("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace {v:?} must be 0 or 1")),
    };
    Ok(Spec {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        requests: workload.default_requests(),
        expected: workloads::expected_fingerprint(workload.expected_table(), seed),
        jobs: host.jobs,
    })
}

fn benchmark(spec: &Spec, host: &Host) -> ExitCode {
    let w = spec.workload;
    println!(
        "# perfbench {} seed={} held_out_seed={} requests={} seconds={} trace={} \
         expected={} nproc={} jobs={} commit={} rustc={:?}",
        w.name(),
        spec.seed,
        w.held_out_seed(),
        spec.requests,
        spec.seconds,
        u8::from(spec.trace),
        spec.expected.map_or("none".into(), |f| format!("{f:016x}")),
        host.nproc,
        host.jobs,
        host.commit,
        host.rustc,
    );
    let report = run::run(spec);
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    print_report(&report);
    ExitCode::SUCCESS
}

fn print_report(r: &Report) {
    for (lane, walls) in [("bare", &r.bare_walls), ("traced", &r.traced_walls)] {
        if !walls.is_empty() {
            let list: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
            println!(
                "# {lane} repetitions ({}), wall s: {}",
                walls.len(),
                list.join(" ")
            );
        }
    }
    for m in r.metrics.iter().chain(&r.extra) {
        println!("{:<30} {:>22} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite value is a bug.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let finite = r.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct && finite,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
}

/// Prints `seed<TAB>fingerprint` for a seed range at full size: the
/// tables under `expected/` are this output.
fn fingerprints(args: &[String]) -> Result<ExitCode, String> {
    let [w, first, last] = args else {
        return Err("--fingerprints takes a workload and two seeds".into());
    };
    let w = Workload::parse(w).ok_or(format!("unknown workload {w:?}"))?;
    let seed = |s: &String| s.parse::<u64>().map_err(|_| format!("bad seed {s:?}"));
    let setup = workloads::Setup::build(w);
    println!(
        "# {} at {} requests: seed, fingerprint, sla_met_frac, p99_ms, mj_per_req",
        w.name(),
        w.default_requests()
    );
    for s in seed(first)?..=seed(last)? {
        let rep = workloads::rep(w, &setup, s, w.default_requests(), false);
        if rep.outcome.retired != rep.attempted {
            return Err(format!("seed {s}: not every request retired"));
        }
        let o = &rep.outcome;
        println!(
            "{s}\t{:016x}\t{:.6}\t{:.6}\t{:.6}",
            rep.fingerprint,
            o.met as f64 / o.retired as f64,
            o.p99_ms,
            o.energy_j * 1e3 / o.retired as f64
        );
    }
    Ok(ExitCode::SUCCESS)
}
