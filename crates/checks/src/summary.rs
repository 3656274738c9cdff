//! Per-file analysis summaries.
//!
//! A [`FileSummary`] is everything the global passes need from one file:
//! its line-local diagnostics, function signatures, and call sites. The
//! checker builds one per workspace file in a single serial pass, then
//! runs the interprocedural flow lints over the complete summary set.

use crate::diagnostics::Diagnostic;
use crate::symbols::FnSym;

/// One call site.
#[derive(Debug, Clone)]
pub struct CallRec {
    /// Index of the calling function in [`FileSummary::fns`].
    pub caller: usize,
    /// Callee name.
    pub callee: String,
    /// Path segments before the name (`a::b::` → `["a", "b"]`).
    pub qualifier: Vec<String>,
    /// Whether the call is through a `.` receiver.
    pub is_method: bool,
    /// 1-based source line.
    pub line: usize,
    /// Per-argument newtype extraction fact: `(newtype, via)`.
    pub args: Vec<Option<(String, String)>>,
}

/// Everything the global passes need from one analyzed file.
#[derive(Debug, Clone)]
pub struct FileSummary {
    /// Workspace-relative path.
    pub rel: String,
    /// Line-local diagnostics (unfiltered).
    pub diags: Vec<Diagnostic>,
    /// Function signatures, in source order.
    pub fns: Vec<FnSym>,
    /// Call sites.
    pub calls: Vec<CallRec>,
}
