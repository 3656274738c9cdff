//! A lightweight source model: files are loaded as lines, each line paired
//! with a "code view" (comments and string literals blanked out) and a flag
//! marking whether it sits inside a `#[cfg(test)]` region. The lints match
//! against the code view, so patterns inside comments, doc comments, and
//! string literals never trigger.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// 1-based line number.
    pub number: usize,
    /// The line exactly as written (used to find `// lint:` justifications).
    pub raw: String,
    /// The line with comments and string/char literal *contents* blanked.
    pub code: String,
    /// Whether the line is inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// A parsed source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// Parsed lines.
    pub lines: Vec<Line>,
}

/// Lexer state carried across lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    /// Inside `/* ... */`, with nesting depth.
    BlockComment(u32),
    /// Inside a string literal. `raw_hashes` is `None` for a plain
    /// `"..."` string (backslash escapes apply) and `Some(n)` for a raw
    /// `r"..."` / `r#"..."#` string closed by `"` followed by `n` hashes.
    Str {
        raw_hashes: Option<u8>,
    },
}

/// Whether `bytes[i]` starts a word (is not preceded by an identifier
/// character), so `r"` raw-string detection never fires mid-identifier.
fn is_word_start(bytes: &[u8], i: usize) -> bool {
    i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// Blanks comments and literal contents from one line, returning the code
/// view and the updated lexer mode. String/char delimiters are kept (as
/// `"` / `'`) so token boundaries survive, but their contents become spaces.
fn strip_line(raw: &str, mode: Mode) -> (String, Mode) {
    let bytes = raw.as_bytes();
    let mut out = String::with_capacity(raw.len());
    let mut i = 0;
    let mut mode = mode;
    while i < bytes.len() {
        match mode {
            Mode::BlockComment(depth) => {
                if bytes[i..].starts_with(b"*/") {
                    mode = if depth > 1 {
                        Mode::BlockComment(depth - 1)
                    } else {
                        Mode::Code
                    };
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if bytes[i..].starts_with(b"/*") {
                    mode = Mode::BlockComment(depth + 1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            Mode::Str { raw_hashes } => {
                match raw_hashes {
                    None => {
                        // Plain string: `\x` escapes (including `\"`) are
                        // blanked as a pair; a backslash ending the line
                        // escapes the newline, so the string continues.
                        if bytes[i] == b'\\' {
                            if i + 1 < bytes.len() {
                                out.push(' ');
                                out.push(' ');
                                i += 2;
                            } else {
                                out.push(' ');
                                i += 1;
                            }
                        } else if bytes[i] == b'"' {
                            out.push('"');
                            i += 1;
                            mode = Mode::Code;
                        } else {
                            out.push(' ');
                            i += 1;
                        }
                    }
                    Some(h) => {
                        // Raw string: closes on `"` followed by `h` hashes;
                        // no escapes, may span any number of lines.
                        let h = h as usize;
                        if bytes[i] == b'"'
                            && bytes[i + 1..].len() >= h
                            && bytes[i + 1..i + 1 + h].iter().all(|&b| b == b'#')
                        {
                            out.push('"');
                            for _ in 0..h {
                                out.push(' ');
                            }
                            i += 1 + h;
                            mode = Mode::Code;
                        } else {
                            out.push(' ');
                            i += 1;
                        }
                    }
                }
            }
            Mode::Code => {
                if bytes[i..].starts_with(b"//") {
                    // Line comment: blank the rest of the line.
                    for _ in i..bytes.len() {
                        out.push(' ');
                    }
                    i = bytes.len();
                } else if bytes[i..].starts_with(b"/*") {
                    mode = Mode::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                } else if bytes[i] == b'"' {
                    out.push('"');
                    i += 1;
                    mode = Mode::Str { raw_hashes: None };
                } else if bytes[i] == b'r'
                    && {
                        // `r"`, `r#"`, `r##"`, ... — count the hashes.
                        let mut j = i + 1;
                        while j < bytes.len() && bytes[j] == b'#' {
                            j += 1;
                        }
                        j < bytes.len() && bytes[j] == b'"' && j - i - 1 <= u8::MAX as usize
                    }
                    && is_word_start(bytes, i)
                {
                    let mut j = i + 1;
                    while bytes[j] == b'#' {
                        j += 1;
                    }
                    let hashes = (j - i - 1) as u8;
                    // Keep the opening delimiter as `"` so token
                    // boundaries survive; hashes become spaces.
                    out.push(' ');
                    for _ in 0..hashes {
                        out.push(' ');
                    }
                    out.push('"');
                    i = j + 1;
                    mode = Mode::Str {
                        raw_hashes: Some(hashes),
                    };
                } else if bytes[i] == b'\'' {
                    // Char literal or lifetime. Treat as a char literal only
                    // when it closes within a few bytes; otherwise it is a
                    // lifetime tick and passes through.
                    let close = if bytes[i + 1..].starts_with(b"\\") {
                        bytes.get(i + 3) == Some(&b'\'')
                    } else {
                        bytes.get(i + 2) == Some(&b'\'')
                    };
                    if close {
                        let len = if bytes[i + 1..].starts_with(b"\\") {
                            4
                        } else {
                            3
                        };
                        out.push('\'');
                        for _ in 1..len - 1 {
                            out.push(' ');
                        }
                        out.push('\'');
                        i += len;
                    } else {
                        out.push('\'');
                        i += 1;
                    }
                } else {
                    out.push(bytes[i] as char);
                    i += 1;
                }
            }
        }
    }
    (out, mode)
}

impl SourceFile {
    /// Parses `text` into the line model.
    pub fn parse(rel: &str, text: &str) -> SourceFile {
        // Pass 1: strip comments and literals.
        let mut mode = Mode::Code;
        let mut stripped = Vec::new();
        for raw in text.lines() {
            let (code, next) = strip_line(raw, mode);
            mode = next;
            stripped.push((raw.to_string(), code));
        }
        // Pass 2: mark `#[cfg(test)]` regions. An attribute applies to the
        // next item; the region spans that item's braces (or, for a
        // brace-less item such as `mod tests;`, just that line).
        let mut in_test = vec![false; stripped.len()];
        let mut depth: i64 = 0;
        let mut test_until: Option<i64> = None; // region open while depth > N
        let mut pending_attr = false;
        for (idx, (_, code)) in stripped.iter().enumerate() {
            let trimmed = code.trim();
            if test_until.is_none() && trimmed.contains("#[cfg(test)]") {
                pending_attr = true;
                in_test[idx] = true;
            } else if test_until.is_some() {
                in_test[idx] = true;
            }
            let opens = code.matches('{').count() as i64;
            let closes = code.matches('}').count() as i64;
            if pending_attr && opens > 0 {
                test_until = Some(depth);
                pending_attr = false;
                in_test[idx] = true;
            } else if pending_attr && trimmed.ends_with(';') {
                // `#[cfg(test)] mod x;` — single-line item.
                pending_attr = false;
                in_test[idx] = true;
            }
            depth += opens - closes;
            if let Some(base) = test_until {
                in_test[idx] = true;
                if depth <= base {
                    test_until = None;
                }
            }
        }
        let lines = stripped
            .into_iter()
            .enumerate()
            .map(|(idx, (raw, code))| Line {
                number: idx + 1,
                raw,
                code,
                in_test: in_test[idx],
            })
            .collect();
        SourceFile {
            rel: rel.to_string(),
            lines,
        }
    }

    /// Loads and parses the file at `path`, recording its path relative to
    /// `root`.
    pub fn load(root: &Path, path: &Path) -> io::Result<SourceFile> {
        let text = fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        Ok(SourceFile::parse(&rel, &text))
    }
}

/// Whether the pattern occurrence at `lines[idx]` carries a
/// `// lint: <reason>` justification — on the same line, or in the
/// contiguous comment block immediately above it.
pub fn justified(lines: &[Line], idx: usize) -> bool {
    if lines[idx].raw.contains("// lint:") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let t = lines[i].raw.trim();
        if t.starts_with("//") {
            if t.contains("// lint:") {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Collects and parses the workspace's library sources —
/// `crates/*/src/**` plus the root facade's `src/**` — in deterministic
/// path order.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut paths = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crates: Vec<_> = fs::read_dir(&crates_dir)?.collect::<Result<_, _>>()?;
        crates.sort_by_key(|e| e.file_name());
        for entry in crates {
            let src = entry.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut paths)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut paths)?;
    }
    paths.iter().map(|p| SourceFile::load(root, p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_comments_are_blanked() {
        let f = SourceFile::parse("x.rs", "let a = 1; // HashMap here\n");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].code.contains("let a = 1;"));
    }

    #[test]
    fn string_contents_are_blanked_but_delimiters_kept() {
        let f = SourceFile::parse("x.rs", "let s = \".unwrap() HashMap\";\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].code.contains('"'));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let f = SourceFile::parse("x.rs", r#"let s = "a\"unwrap()"; thread_rng();"#);
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("thread_rng"));
    }

    #[test]
    fn block_comments_span_lines() {
        let f = SourceFile::parse("x.rs", "/* HashMap\n still HashMap */ let x = 1;\n");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(!f.lines[1].code.contains("HashMap"));
        assert!(f.lines[1].code.contains("let x = 1;"));
    }

    #[test]
    fn raw_strings_span_lines() {
        let src = "let q = r#\"first HashMap\nsecond .unwrap() line\ntail\"# ; let x = 1;\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(!f.lines[1].code.contains("unwrap"));
        assert!(f.lines[2].code.contains("; let x = 1;"));
        assert!(!f.lines[2].code.contains("tail"));
    }

    #[test]
    fn raw_strings_with_more_hashes_span_lines() {
        let src = "let q = r##\"a \"# quote\nstill HashMap inside\"## ; Instant::now();\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.lines[0].code.contains("quote"));
        assert!(!f.lines[1].code.contains("HashMap"));
        assert!(f.lines[1].code.contains("Instant::now()"));
    }

    #[test]
    fn plain_strings_span_lines() {
        // Rust string literals may contain literal newlines; the contents
        // on every line must be blanked until the closing quote.
        let src = "let s = \"first HashMap\nsecond line\"; thread_rng();\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(!f.lines[1].code.contains("second"));
        assert!(f.lines[1].code.contains("thread_rng"));
    }

    #[test]
    fn backslash_continuation_keeps_string_open() {
        let src = "let s = \"ends with \\\nescaped start\"; let y = 2;\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.lines[1].code.contains("escaped"));
        assert!(f.lines[1].code.contains("let y = 2;"));
    }

    #[test]
    fn escaped_quote_in_multiline_string_does_not_close_it() {
        let src = "let s = \"line one \\\" still\ninside HashMap\"; done();\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.lines[1].code.contains("HashMap"));
        assert!(f.lines[1].code.contains("done()"));
    }

    #[test]
    fn raw_string_prefix_mid_identifier_does_not_open_string() {
        // `var"` never occurs in valid Rust, but an identifier ending in
        // `r` directly before a string must not eat the whole line.
        let f = SourceFile::parse("x.rs", "let nr = 1; let s = \"x\"; f(nr);\n");
        assert!(f.lines[0].code.contains("f(nr);"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "pub fn lib_code() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\npub fn more() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn lifetimes_survive_char_stripping() {
        let f = SourceFile::parse("x.rs", "fn f<'a>(x: &'a str, c: char) { let y = 'q'; }\n");
        assert!(f.lines[0].code.contains("&'a str"));
        assert!(!f.lines[0].code.contains('q'));
    }

    #[test]
    fn justification_found_in_comment_block_above() {
        let src = "// lint: guarded by is_empty above\n// second comment line\nlet x = v.first().unwrap();\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(justified(&f.lines, 2));
        let src2 = "let a = 1;\nlet x = v.first().unwrap();\n";
        let f2 = SourceFile::parse("x.rs", src2);
        assert!(!justified(&f2.lines, 1));
    }
}
