//! The checked-in allowlist of intentional lint escapes.
//!
//! Format: one entry per line, `CODE PATH IDENT`, whitespace-separated.
//! `#` starts a comment (full-line or trailing). `IDENT` may be `*` to
//! match any identifier at that path.
//!
//! `CODE` is one lint code (`L2`, `L2-HOT`, `L1-FLOW`, ...), and an
//! entry covers only diagnostics with exactly that code: `L2` does not
//! cover `L2-TIME`, `L2-HOT` or `L2-FLOW`. [`Allowlist::fix`] prunes
//! entries that match nothing.

use crate::diagnostics::{Diagnostic, Lint};
use std::fs;
use std::io;
use std::path::Path;

/// One allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Lint code (`L1`, `L2-HOT`, ...), matched exactly.
    pub code: String,
    /// Workspace-relative path the escape applies to.
    pub path: String,
    /// Identifier (or `*`).
    pub ident: String,
    /// Line in the allowlist file (for stale-entry reporting).
    pub source_line: usize,
}

impl Entry {
    fn matches(&self, d: &Diagnostic) -> bool {
        self.code == d.lint.code()
            && self.path == d.rel_path
            && (self.ident == "*" || self.ident == d.ident)
    }

    /// Renders the entry back in file format.
    pub fn render(&self) -> String {
        format!("{} {} {}", self.code, self.path, self.ident)
    }
}

/// A parsed allowlist.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: Vec<Entry>,
}

/// A malformed allowlist line.
#[derive(Debug)]
pub struct ParseError {
    /// 1-based line number in the allowlist file.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

/// Parses one non-comment allowlist line into its three fields.
fn parse_fields(raw: &str, idx: usize) -> Result<Option<(String, String, String)>, ParseError> {
    let line = match raw.find('#') {
        Some(pos) => &raw[..pos],
        None => raw,
    };
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.is_empty() {
        return Ok(None);
    }
    if fields.len() != 3 {
        return Err(ParseError {
            line: idx + 1,
            reason: format!("expected `CODE PATH IDENT`, got {} field(s)", fields.len()),
        });
    }
    if Lint::from_code(fields[0]).is_none() {
        return Err(ParseError {
            line: idx + 1,
            reason: format!("unknown lint code {:?}", fields[0]),
        });
    }
    Ok(Some((
        fields[0].to_string(),
        fields[1].to_string(),
        fields[2].to_string(),
    )))
}

impl Allowlist {
    /// An empty allowlist (filters nothing).
    pub fn empty() -> Allowlist {
        Allowlist::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the allowlist has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Parses allowlist text.
    pub fn parse(text: &str) -> Result<Allowlist, ParseError> {
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            if let Some((code, path, ident)) = parse_fields(raw, idx)? {
                entries.push(Entry {
                    code,
                    path,
                    ident,
                    source_line: idx + 1,
                });
            }
        }
        Ok(Allowlist { entries })
    }

    /// Loads the allowlist from `path`; a missing file yields an empty list.
    pub fn load(path: &Path) -> io::Result<Allowlist> {
        match fs::read_to_string(path) {
            Ok(text) => Allowlist::parse(&text).map_err(|e| {
                io::Error::other(format!("{}:{}: {}", path.display(), e.line, e.reason))
            }),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Allowlist::empty()),
            Err(e) => Err(e),
        }
    }

    /// Splits diagnostics into `(kept violations, unused entry renderings)`.
    pub fn filter(&self, diags: Vec<Diagnostic>) -> (Vec<Diagnostic>, Vec<String>) {
        let mut used = vec![false; self.entries.len()];
        let mut kept = Vec::new();
        for d in diags {
            let mut allowed = false;
            for (i, e) in self.entries.iter().enumerate() {
                if e.matches(&d) {
                    used[i] = true;
                    allowed = true;
                }
            }
            if !allowed {
                kept.push(d);
            }
        }
        let unused = self
            .entries
            .iter()
            .zip(&used)
            .filter(|(_, &u)| !u)
            .map(|(e, _)| e.render())
            .collect();
        (kept, unused)
    }

    /// Rewrites allowlist text against the current raw diagnostics:
    /// stale entries (matching nothing) are pruned, and every other line,
    /// comments included, is kept verbatim. Returns the new text and the
    /// rendered entries that were pruned.
    pub fn fix(text: &str, diags: &[Diagnostic]) -> Result<(String, Vec<String>), ParseError> {
        let mut out = String::new();
        let mut pruned = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            if let Some((code, path, ident)) = parse_fields(raw, idx)? {
                let entry = Entry {
                    code,
                    path,
                    ident,
                    source_line: idx + 1,
                };
                if !diags.iter().any(|d| entry.matches(d)) {
                    pruned.push(entry.render());
                    continue;
                }
            }
            out.push_str(raw);
            out.push('\n');
        }
        Ok((out, pruned))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::Lint;

    fn diag(path: &str, ident: &str) -> Diagnostic {
        diag_with(Lint::UnitSafety, path, ident)
    }

    fn diag_with(lint: Lint, path: &str, ident: &str) -> Diagnostic {
        Diagnostic {
            lint,
            rel_path: path.into(),
            line: 1,
            ident: ident.into(),
            message: String::new(),
        }
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let a = Allowlist::parse("# header\n\nL1 crates/x/src/lib.rs foo # rate\n").unwrap();
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn malformed_lines_error_with_location() {
        let e = Allowlist::parse("L1 only-two-fields\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(Allowlist::parse("L9 a b\n").is_err());
    }

    #[test]
    fn qualified_codes_parse() {
        let a = Allowlist::parse(
            "L2-HOT crates/x/src/lib.rs Vec_new\nL1-FLOW crates/x/src/lib.rs *\nL4 crates/x/src/lib.rs *\n",
        )
        .unwrap();
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn filter_removes_matches_and_reports_stale() {
        let a =
            Allowlist::parse("L1 crates/x/src/lib.rs foo\nL1 crates/x/src/lib.rs stale\n").unwrap();
        let (kept, unused) = a.filter(vec![
            diag("crates/x/src/lib.rs", "foo"),
            diag("crates/x/src/lib.rs", "bar"),
        ]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].ident, "bar");
        assert_eq!(unused, vec!["L1 crates/x/src/lib.rs stale".to_string()]);
    }

    #[test]
    fn wildcard_ident_matches_anything() {
        let a = Allowlist::parse("L1 crates/x/src/lib.rs *\n").unwrap();
        let (kept, unused) = a.filter(vec![diag("crates/x/src/lib.rs", "anything")]);
        assert!(kept.is_empty());
        assert!(unused.is_empty());
    }

    #[test]
    fn family_codes_do_not_cover_qualified_sub_codes() {
        let a = Allowlist::parse("L2 crates/x/src/lib.rs *\n").unwrap();
        let (kept, unused) = a.filter(vec![
            diag_with(Lint::TimeDomain, "crates/x/src/lib.rs", "round"),
            diag_with(Lint::HotLoop, "crates/x/src/lib.rs", "collect"),
            diag_with(Lint::Determinism, "crates/x/src/lib.rs", "HashMap"),
        ]);
        let codes: Vec<&str> = kept.iter().map(|d| d.lint.code()).collect();
        assert_eq!(codes, vec!["L2-TIME", "L2-HOT"]);
        assert!(unused.is_empty());
        // Nor does a qualified entry cover its siblings or family.
        let b = Allowlist::parse("L2-HOT crates/x/src/lib.rs *\n").unwrap();
        let (kept, _) = b.filter(vec![
            diag_with(Lint::TimeDomain, "crates/x/src/lib.rs", "round"),
            diag_with(Lint::Determinism, "crates/x/src/lib.rs", "HashMap"),
        ]);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn fix_prunes_stale_entries() {
        let text = "# keep this header\nL2-HOT crates/x/src/lib.rs * # one-time setup\nL1 crates/x/src/lib.rs stale\nL2 crates/x/src/lib.rs *\n";
        let diags = vec![diag_with(Lint::HotLoop, "crates/x/src/lib.rs", "Vec_new")];
        let (fixed, pruned) = Allowlist::fix(text, &diags).unwrap();
        assert_eq!(
            fixed,
            "# keep this header\nL2-HOT crates/x/src/lib.rs * # one-time setup\n"
        );
        // The family entry matches no `L2` diagnostic, so it is stale too.
        assert_eq!(
            pruned,
            vec![
                "L1 crates/x/src/lib.rs stale".to_string(),
                "L2 crates/x/src/lib.rs *".to_string()
            ]
        );
        // A fixed allowlist is idempotent under fix.
        let (again, pruned2) = Allowlist::fix(&fixed, &diags).unwrap();
        assert_eq!(again, fixed);
        assert!(pruned2.is_empty());
    }

    #[test]
    fn fix_keeps_exact_entries_verbatim() {
        let text = "L3 crates/x/src/lib.rs unwrap # guarded\n";
        let diags = vec![diag_with(Lint::Hygiene, "crates/x/src/lib.rs", "unwrap")];
        let (fixed, pruned) = Allowlist::fix(text, &diags).unwrap();
        assert_eq!(fixed, text);
        assert!(pruned.is_empty());
    }
}
