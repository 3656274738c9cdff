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
//! Each file is analyzed once, in one serial pass over the workspace
//! in path order; the interprocedural lints then run over the complete
//! summary set. `--explain <CODE>` prints the long-form rule text.

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

use std::io;
use std::path::Path;

/// Runs the line-local lints on one parsed file and summarizes it for
/// the interprocedural pass.
fn analyze_file(file: SourceFile) -> FileSummary {
    let tokens = lexer::lex(&file);
    let syms = symbols::parse(&file, &tokens);
    let mut diags = Vec::new();
    diags.extend(lints::units::check(&file));
    diags.extend(lints::determinism::check(&file));
    diags.extend(lints::timedomain::check(&file));
    diags.extend(lints::hotloop::check(&file, &tokens, &syms));
    diags.extend(lints::hygiene::check(&file));
    diags.extend(lints::parallelism::check(&file, &tokens, &syms));
    FileSummary {
        calls: callgraph::extract_calls(&syms, &tokens),
        rel: file.rel,
        diags,
        fns: syms.fns,
    }
}

/// Runs every lint over the workspace rooted at `root` and returns the
/// raw (unfiltered) diagnostics, sorted by path, line and code.
pub fn run_all(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let summaries: Vec<FileSummary> = source::workspace_sources(root)?
        .into_iter()
        .map(analyze_file)
        .collect();
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
    Ok(diagnostics)
}

/// Runs every lint and filters through `allow`; returns `(violations,
/// unused allowlist entries)`.
pub fn run_filtered(root: &Path, allow: &Allowlist) -> io::Result<(Vec<Diagnostic>, Vec<String>)> {
    let diags = run_all(root)?;
    Ok(allow.filter(diags))
}
