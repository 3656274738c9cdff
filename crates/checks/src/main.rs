//! The `planaria-checks` binary: walks the workspace, runs the
//! line-local and interprocedural lints, filters through the checked-in
//! allowlist, and reports.
//!
//! Exit codes: `0` clean, `1` violations found, `2` usage error, I/O
//! error, or stale allowlist entries (run `--fix-allowlist` to repair).

use planaria_checks::diagnostics::render_json_report;
use planaria_checks::{run_all, Allowlist, Lint};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

struct Options {
    root: PathBuf,
    format: Format,
    allowlist: Option<PathBuf>,
    fix_allowlist: bool,
}

const USAGE: &str = "usage: planaria-checks [--root DIR] [--format text|json] [--allowlist FILE]
                       [--fix-allowlist]
       planaria-checks --explain CODE

Runs the workspace's domain-invariant lints:
  L1 unit-safety    bare u64/usize/f64 where Cycles/Bytes/Picojoules belong
  L1-FLOW           raw newtype extraction crossing a guarded pub fn (call graph)
  L2 determinism    HashMap/HashSet or clocks/entropy in simulation code
  L2-TIME           float-seconds idioms inside the event-loop files
  L2-HOT            per-event allocation idioms in the per-event path
  L2-FLOW           float-seconds taint reaching the event loop via helpers (call graph)
  L3 hygiene        unjustified unwrap()/expect()/#[allow(...)]
  L4 parallelism    par_map/par_for_each_mut closures capturing shared mutable state

Options:
  --fix-allowlist   rewrite the allowlist, pruning stale entries
  --explain CODE    print the long-form rule text for a lint code

Exits 0 when clean, 1 on violations, 2 on errors or stale allowlist entries.";

/// Walks upward from `start` to find the workspace root (a directory
/// containing both `Cargo.toml` and `crates/`).
fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut root = None;
    let mut format = Format::Text;
    let mut allowlist = None;
    let mut fix_allowlist = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                root = Some(PathBuf::from(args.next().ok_or("--root requires a value")?));
            }
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => return Err(format!("--format must be text|json, got {other:?}")),
            },
            "--allowlist" => {
                allowlist = Some(PathBuf::from(
                    args.next().ok_or("--allowlist requires a value")?,
                ));
            }
            "--fix-allowlist" => fix_allowlist = true,
            "--explain" => {
                let code = args.next().ok_or("--explain requires a lint code")?;
                match Lint::from_code(&code) {
                    Some(lint) => {
                        println!("{}", lint.explain());
                        std::process::exit(0);
                    }
                    None => {
                        let known: Vec<&str> = Lint::ALL.iter().map(|l| l.code()).collect();
                        return Err(format!(
                            "unknown lint code {code:?}; known codes: {}",
                            known.join(", ")
                        ));
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            find_root(&cwd).ok_or("cannot find workspace root (run from the repo)")?
        }
    };
    Ok(Options {
        root,
        format,
        allowlist,
        fix_allowlist,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("planaria-checks: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let allow_path = opts
        .allowlist
        .clone()
        .unwrap_or_else(|| opts.root.join("crates/checks/allowlist.txt"));
    let allow = match Allowlist::load(&allow_path) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("planaria-checks: bad allowlist: {e}");
            return ExitCode::from(2);
        }
    };
    let diags = match run_all(&opts.root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("planaria-checks: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.fix_allowlist {
        let text = match std::fs::read_to_string(&allow_path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => {
                eprintln!("planaria-checks: {e}");
                return ExitCode::from(2);
            }
        };
        let (fixed, pruned) = match Allowlist::fix(&text, &diags) {
            Ok(r) => r,
            Err(e) => {
                eprintln!(
                    "planaria-checks: bad allowlist: {}:{}: {}",
                    allow_path.display(),
                    e.line,
                    e.reason
                );
                return ExitCode::from(2);
            }
        };
        if fixed == text {
            eprintln!("planaria-checks: allowlist already clean");
            return ExitCode::SUCCESS;
        }
        if let Err(e) = std::fs::write(&allow_path, &fixed) {
            eprintln!("planaria-checks: {e}");
            return ExitCode::from(2);
        }
        for entry in &pruned {
            eprintln!("planaria-checks: pruned stale allowlist entry `{entry}`");
        }
        eprintln!(
            "planaria-checks: rewrote {} ({} stale entr{} pruned)",
            allow_path.display(),
            pruned.len(),
            if pruned.len() == 1 { "y" } else { "ies" }
        );
        return ExitCode::SUCCESS;
    }
    let (violations, unused) = allow.filter(diags);
    match opts.format {
        Format::Json => println!("{}", render_json_report(&violations)),
        Format::Text => {
            for d in &violations {
                println!("{}", d.render_text());
            }
        }
    }
    for entry in &unused {
        eprintln!("planaria-checks: stale allowlist entry `{entry}` (run --fix-allowlist)");
    }
    if !violations.is_empty() {
        eprintln!("planaria-checks: {} violation(s)", violations.len());
        return ExitCode::from(1);
    }
    if !unused.is_empty() {
        eprintln!(
            "planaria-checks: {} stale allowlist entr{}",
            unused.len(),
            if unused.len() == 1 { "y" } else { "ies" }
        );
        return ExitCode::from(2);
    }
    if opts.format == Format::Text {
        eprintln!(
            "planaria-checks: clean ({} allowlist entr{})",
            allow.len(),
            if allow.len() == 1 { "y" } else { "ies" }
        );
    }
    ExitCode::SUCCESS
}
