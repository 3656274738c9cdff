//! `planaria-checks`: a std-only lint pass enforcing the workspace's
//! domain invariants. It walks the workspace source tree, builds a
//! lightweight model of each file (a stripped line/token view, parsed
//! item signatures, extracted call sites), assembles a workspace symbol
//! table and conservative call graph, and runs two layers of lints:
//!
//! **Line-local lints** (per file):
//!
//! * **L1 unit-safety** — public functions and struct fields in the
//!   quantity crates must not pass cycles/energy/bytes quantities as bare
//!   `u64`/`usize`/`f64`; they must use the `Cycles`/`Picojoules`/`Bytes`
//!   newtypes from `planaria-model`.
//! * **L2 determinism** — no `HashMap`/`HashSet`, wall clocks, OS
//!   entropy, raw `std::thread`, or ad-hoc printing in simulation code.
//! * **L2-TIME integer time domain** — float-seconds idioms banned in the
//!   event-loop files; `crates/sim/src/clock.rs` is the one boundary.
//! * **L2-HOT hot-loop allocation** — per-event allocation idioms banned
//!   in the per-event path.
//! * **L3 hygiene** — `unwrap()`/`expect(...)`/`#[allow(...)]` require a
//!   `// lint: <reason>` justification in library code.
//! * **L4 parallel determinism** — closures passed to `par_map` or
//!   `par_for_each_mut` must not capture `&mut` state, interior
//!   mutability, or `static mut`.
//!
//! **Interprocedural lints** (over the workspace call graph):
//!
//! * **L2-FLOW float-seconds taint** — catches helpers that launder float
//!   seconds into the event loops without any banned token in scope.
//! * **L1-FLOW newtype escape** — catches raw newtype extractions whose
//!   value crosses a guarded `pub fn` boundary one call later.
//!
//! The per-file phase fans out through `planaria_parallel::par_map` and
//! feeds an incremental cache keyed by content hash; both are invisible
//! in the output — diagnostics are byte-identical for any job count and
//! any cache state (the binary self-certifies this in CI). `--explain
//! <CODE>` prints the long-form rule text.

pub mod allowlist;
pub mod callgraph;
pub mod diagnostics;
pub mod lexer;
pub mod lints;
pub mod source;
pub mod summary;
pub mod symbols;

pub use allowlist::Allowlist;
pub use diagnostics::{Diagnostic, Lint};
pub use source::SourceFile;
pub use summary::FileSummary;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Analysis options.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Worker count for the per-file phase; `None` follows
    /// `PLANARIA_JOBS`/available parallelism.
    pub jobs: Option<usize>,
    /// Incremental cache file. When set, per-file summaries are reused
    /// for files whose content hash is unchanged and the cache is
    /// rewritten after the run.
    pub cache: Option<PathBuf>,
}

/// The result of a full analysis run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// All diagnostics (unfiltered), sorted by path, line, code.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of workspace source files scanned.
    pub files_total: usize,
    /// Number of files actually re-lexed (cache misses).
    pub files_relexed: usize,
}

/// Runs the full per-file pipeline on one source text.
fn analyze_file(rel: &str, text: &str) -> FileSummary {
    let hash = summary::fnv1a(text.as_bytes());
    let file = SourceFile::parse(rel, text);
    let tokens = lexer::lex(&file);
    let syms = symbols::parse(&file, &tokens);
    let mut diags = Vec::new();
    diags.extend(lints::units::check(&file));
    diags.extend(lints::determinism::check(&file));
    diags.extend(lints::timedomain::check(&file));
    diags.extend(lints::hotloop::check(&file, &tokens, &syms));
    diags.extend(lints::hygiene::check(&file));
    diags.extend(lints::parallelism::check(&file, &tokens, &syms));
    let calls = callgraph::extract_calls(&syms, &tokens);
    summary::summarize(rel, hash, &syms, calls, diags)
}

/// Runs every lint over the workspace rooted at `root`. The per-file
/// phase fans out via `par_map` (order restored by the index-ordered
/// join) and consults the cache; the interprocedural lints then run over
/// the complete summary set, so cached files fully participate in the
/// call graph.
pub fn analyze(root: &Path, opts: &Options) -> io::Result<Analysis> {
    let texts = source::workspace_source_texts(root)?;
    let files_total = texts.len();
    let cached: BTreeMap<String, FileSummary> = opts
        .cache
        .as_deref()
        .and_then(|p| fs::read_to_string(p).ok())
        .and_then(|t| summary::parse_cache(&t))
        .map(|files| files.into_iter().map(|f| (f.rel.clone(), f)).collect())
        .unwrap_or_default();
    // The closure is pure in its item: it reads only the shared cache
    // map. That keeps the checker itself L4-clean under its own lint.
    let worker = |(rel, text): (String, String)| -> (FileSummary, bool) {
        let hash = summary::fnv1a(text.as_bytes());
        match cached.get(&rel) {
            Some(hit) if hit.hash == hash => (hit.clone(), false),
            _ => (analyze_file(&rel, &text), true),
        }
    };
    let results = match opts.jobs {
        Some(jobs) => planaria_parallel::par_map(texts, jobs.max(1), worker),
        None => planaria_parallel::par_map_auto(texts, worker),
    };
    let files_relexed = results.iter().filter(|(_, fresh)| *fresh).count();
    let summaries: Vec<FileSummary> = results.into_iter().map(|(s, _)| s).collect();
    let mut diagnostics: Vec<Diagnostic> = summaries
        .iter()
        .flat_map(|s| s.diags.iter().cloned())
        .collect();
    diagnostics.extend(lints::flow::check(&summaries));
    diagnostics.sort_by(|a, b| {
        (&a.rel_path, a.line, a.lint.code(), &a.ident, &a.message).cmp(&(
            &b.rel_path,
            b.line,
            b.lint.code(),
            &b.ident,
            &b.message,
        ))
    });
    diagnostics.dedup();
    if let Some(path) = &opts.cache {
        fs::write(path, summary::render_cache(&summaries))?;
    }
    Ok(Analysis {
        diagnostics,
        files_total,
        files_relexed,
    })
}

/// Runs every lint with default options and returns the raw (unfiltered)
/// diagnostics, sorted by path and line.
pub fn run_all(root: &Path) -> io::Result<Vec<Diagnostic>> {
    Ok(analyze(root, &Options::default())?.diagnostics)
}

/// Runs every lint and filters through `allow`; returns `(violations,
/// unused allowlist entries)`.
pub fn run_filtered(root: &Path, allow: &Allowlist) -> io::Result<(Vec<Diagnostic>, Vec<String>)> {
    let diags = run_all(root)?;
    Ok(allow.filter(diags))
}
