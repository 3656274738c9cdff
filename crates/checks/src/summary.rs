//! Per-file analysis summaries and the incremental cache.
//!
//! A [`FileSummary`] is everything the global passes need from one file:
//! its line-local diagnostics, function signatures, and call sites. It is
//! deliberately position-free beyond line numbers, so it can be cached on
//! disk keyed by a content hash — a warm rerun reuses the summary of
//! every unchanged file and re-lexes only what changed, then re-runs the
//! (cheap) global flow passes over the full summary set. The cache format
//! is an internal, versioned, line-based text format; any parse
//! irregularity discards the whole cache rather than risking a stale
//! diagnostic.

use crate::diagnostics::{Diagnostic, Lint};
use crate::symbols::FileSymbols;

/// One function signature, flattened for serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigRec {
    /// Function name.
    pub name: String,
    /// Module path segments.
    pub module: Vec<String>,
    /// `impl` target type, `""` for free functions.
    pub self_ty: String,
    /// `pub` visibility.
    pub is_pub: bool,
    /// Whether the first parameter is a `self` receiver.
    pub has_self: bool,
    /// `(name, type)` per parameter, excluding `self`.
    pub params: Vec<(String, String)>,
    /// Rendered return type, `""` for unit.
    pub ret: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
}

/// One call site, flattened for serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSummary {
    /// Workspace-relative path.
    pub rel: String,
    /// FNV-1a hash of the file bytes (cache key).
    pub hash: u64,
    /// Line-local diagnostics (unfiltered).
    pub diags: Vec<Diagnostic>,
    /// Function signatures, in source order.
    pub fns: Vec<SigRec>,
    /// Call sites.
    pub calls: Vec<CallRec>,
}

/// FNV-1a 64-bit over raw bytes: the cache's content hash. Stable across
/// platforms, std-only.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds a summary from the parse products of one file.
pub fn summarize(
    rel: &str,
    hash: u64,
    syms: &FileSymbols,
    calls: Vec<CallRec>,
    diags: Vec<Diagnostic>,
) -> FileSummary {
    FileSummary {
        rel: rel.to_string(),
        hash,
        diags,
        fns: syms
            .fns
            .iter()
            .map(|f| SigRec {
                name: f.name.clone(),
                module: f.module.clone(),
                self_ty: f.self_ty.clone().unwrap_or_default(),
                is_pub: f.is_pub,
                has_self: f.has_self,
                params: f
                    .params
                    .iter()
                    .map(|p| (p.name.clone(), p.ty.clone()))
                    .collect(),
                ret: f.ret.clone(),
                line: f.line,
            })
            .collect(),
        calls,
    }
}

/// Cache file header; bump the version on any format change.
pub const CACHE_HEADER: &str = "planaria-checks-cache v1";

// Field separators below the line level. Tab separates record fields;
// these two separate list elements and pair halves inside a field.
const LIST_SEP: char = '\u{1f}';
const PAIR_SEP: char = '\u{1e}';

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            LIST_SEP | PAIR_SEP => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some(c) => out.push(c),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn join_pairs(pairs: &[(String, String)]) -> String {
    pairs
        .iter()
        .map(|(a, b)| format!("{}{}{}", esc(a), PAIR_SEP, esc(b)))
        .collect::<Vec<_>>()
        .join(&LIST_SEP.to_string())
}

fn split_pairs(s: &str) -> Option<Vec<(String, String)>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(LIST_SEP)
        .map(|p| {
            let (a, b) = p.split_once(PAIR_SEP)?;
            Some((unesc(a), unesc(b)))
        })
        .collect()
}

/// Serializes summaries into the cache text format.
pub fn render_cache(files: &[FileSummary]) -> String {
    let mut out = String::from(CACHE_HEADER);
    out.push('\n');
    for f in files {
        out.push_str(&format!("F\t{}\t{:016x}\n", esc(&f.rel), f.hash));
        for d in &f.diags {
            out.push_str(&format!(
                "D\t{}\t{}\t{}\t{}\n",
                d.lint.code(),
                d.line,
                esc(&d.ident),
                esc(&d.message)
            ));
        }
        for s in &f.fns {
            out.push_str(&format!(
                "S\t{}\t{}\t{}\t{}{}\t{}\t{}\t{}\n",
                esc(&s.name),
                esc(&s.module.join("::")),
                esc(&s.self_ty),
                u8::from(s.is_pub),
                u8::from(s.has_self),
                esc(&s.ret),
                s.line,
                join_pairs(&s.params)
            ));
        }
        for c in &f.calls {
            let args = c
                .args
                .iter()
                .map(|a| match a {
                    None => "-".to_string(),
                    Some((n, v)) => format!("{}{}{}", esc(n), PAIR_SEP, esc(v)),
                })
                .collect::<Vec<_>>()
                .join(&LIST_SEP.to_string());
            out.push_str(&format!(
                "C\t{}\t{}\t{}\t{}\t{}\t{}\n",
                c.caller,
                esc(&c.callee),
                esc(&c.qualifier.join("::")),
                u8::from(c.is_method),
                c.line,
                args
            ));
        }
    }
    out
}

fn split_path(s: &str) -> Vec<String> {
    if s.is_empty() {
        Vec::new()
    } else {
        s.split("::").map(str::to_string).collect()
    }
}

/// Parses cache text back into summaries. Returns `None` on any
/// irregularity (wrong header, malformed record) — the caller treats
/// that as a cold cache.
pub fn parse_cache(text: &str) -> Option<Vec<FileSummary>> {
    let mut lines = text.lines();
    if lines.next()? != CACHE_HEADER {
        return None;
    }
    let mut out: Vec<FileSummary> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        match fields.first().copied()? {
            "F" => {
                if fields.len() != 3 {
                    return None;
                }
                out.push(FileSummary {
                    rel: unesc(fields[1]),
                    hash: u64::from_str_radix(fields[2], 16).ok()?,
                    diags: Vec::new(),
                    fns: Vec::new(),
                    calls: Vec::new(),
                });
            }
            "D" => {
                if fields.len() != 5 {
                    return None;
                }
                let cur = out.last_mut()?;
                cur.diags.push(Diagnostic {
                    lint: Lint::from_code(fields[1])?,
                    rel_path: cur.rel.clone(),
                    line: fields[2].parse().ok()?,
                    ident: unesc(fields[3]),
                    message: unesc(fields[4]),
                });
            }
            "S" => {
                if fields.len() != 8 {
                    return None;
                }
                let flags = fields[4].as_bytes();
                if flags.len() != 2 {
                    return None;
                }
                out.last_mut()?.fns.push(SigRec {
                    name: unesc(fields[1]),
                    module: split_path(fields[2]),
                    self_ty: unesc(fields[3]),
                    is_pub: flags[0] == b'1',
                    has_self: flags[1] == b'1',
                    ret: unesc(fields[5]),
                    line: fields[6].parse().ok()?,
                    params: split_pairs(fields[7])?,
                });
            }
            "C" => {
                if fields.len() != 7 {
                    return None;
                }
                let args = if fields[6].is_empty() {
                    Vec::new()
                } else {
                    fields[6]
                        .split(LIST_SEP)
                        .map(|a| {
                            if a == "-" {
                                Some(None)
                            } else {
                                let (n, v) = a.split_once(PAIR_SEP)?;
                                Some(Some((unesc(n), unesc(v))))
                            }
                        })
                        .collect::<Option<Vec<_>>>()?
                };
                out.last_mut()?.calls.push(CallRec {
                    caller: fields[1].parse().ok()?,
                    callee: unesc(fields[2]),
                    qualifier: split_path(fields[3]),
                    is_method: fields[4] == "1",
                    line: fields[5].parse().ok()?,
                    args,
                });
            }
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FileSummary {
        FileSummary {
            rel: "crates/sim/src/clock.rs".into(),
            hash: 0xdead_beef_0123_4567,
            diags: vec![Diagnostic {
                lint: Lint::Hygiene,
                rel_path: "crates/sim/src/clock.rs".into(),
                line: 7,
                ident: "unwrap".into(),
                message: "has a\ttab and \"quote\"".into(),
            }],
            fns: vec![SigRec {
                name: "to_seconds".into(),
                module: vec!["sim".into(), "clock".into()],
                self_ty: "SimClock".into(),
                is_pub: true,
                has_self: true,
                params: vec![("cycles".into(), "Cycles".into())],
                ret: "f64".into(),
                line: 42,
            }],
            calls: vec![CallRec {
                caller: 0,
                callee: "get".into(),
                qualifier: Vec::new(),
                is_method: true,
                line: 43,
                args: vec![None, Some(("Cycles".into(), ".get()".into()))],
            }],
        }
    }

    #[test]
    fn cache_round_trips() {
        let files = vec![sample()];
        let text = render_cache(&files);
        let back = parse_cache(&text).expect("parses");
        assert_eq!(back, files);
    }

    #[test]
    fn bad_header_or_garbage_discards() {
        assert!(parse_cache("not-a-cache\n").is_none());
        let mut text = render_cache(&[sample()]);
        text.push_str("X\tbogus\n");
        assert!(parse_cache(&text).is_none());
        // A truncated numeric field also discards.
        let broken = text.replace("\t42\t", "\tforty\t");
        assert!(parse_cache(&broken).is_none());
    }

    #[test]
    fn fnv1a_is_stable() {
        // Reference vectors for 64-bit FNV-1a.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn empty_lists_round_trip() {
        let f = FileSummary {
            rel: "src/lib.rs".into(),
            hash: 1,
            diags: Vec::new(),
            fns: vec![SigRec {
                name: "f".into(),
                module: Vec::new(),
                self_ty: String::new(),
                is_pub: false,
                has_self: false,
                params: Vec::new(),
                ret: String::new(),
                line: 1,
            }],
            calls: vec![CallRec {
                caller: 0,
                callee: "g".into(),
                qualifier: Vec::new(),
                is_method: false,
                line: 2,
                args: Vec::new(),
            }],
        };
        let back = parse_cache(&render_cache(std::slice::from_ref(&f))).expect("parses");
        assert_eq!(back, vec![f]);
    }
}
