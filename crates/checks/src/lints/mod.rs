//! The lint passes.

pub mod determinism;
pub mod flow;
pub mod hotloop;
pub mod hygiene;
pub mod parallelism;
pub mod timedomain;
pub mod units;

/// Whether `text[pos..pos+len]` is a whole word (not embedded in a larger
/// identifier).
pub(crate) fn is_word_at(text: &str, pos: usize, len: usize) -> bool {
    let bytes = text.as_bytes();
    let before_ok = pos == 0 || {
        let c = bytes[pos - 1] as char;
        !(c.is_ascii_alphanumeric() || c == '_')
    };
    let after = pos + len;
    let after_ok = after >= bytes.len() || {
        let c = bytes[after] as char;
        !(c.is_ascii_alphanumeric() || c == '_')
    };
    before_ok && after_ok
}

/// Finds whole-word occurrences of `word` in `text`.
pub(crate) fn find_word(text: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(off) = text[from..].find(word) {
        let pos = from + off;
        if is_word_at(text, pos, word.len()) {
            return Some(pos);
        }
        from = pos + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::{determinism, flow, hotloop, timedomain, units};
    use std::path::Path;

    #[test]
    fn every_scope_path_exists_in_the_workspace() {
        // A scope entry naming a moved or deleted file silently lints
        // nothing, so every listed path must resolve.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let scopes: [(&str, &[&str]); 10] = [
            ("timedomain::TIME_SCOPE", &timedomain::TIME_SCOPE),
            ("units::SCOPE", &units::SCOPE),
            ("determinism::ORDER_SCOPE", &determinism::ORDER_SCOPE),
            ("determinism::CLOCK_SCOPE", &determinism::CLOCK_SCOPE),
            ("determinism::THREAD_SCOPE", &determinism::THREAD_SCOPE),
            ("determinism::PRINT_SCOPE", &determinism::PRINT_SCOPE),
            ("flow::TIME_SCOPE", &flow::TIME_SCOPE),
            ("flow::CLOCK", &[flow::CLOCK]),
            ("flow::UNIT_SCOPE", &flow::UNIT_SCOPE),
            ("hotloop::HOT_SCOPE", &hotloop::HOT_SCOPE),
        ];
        for (name, paths) in scopes {
            for rel in paths {
                assert!(root.join(rel).exists(), "{name} lists missing path {rel}");
            }
        }
    }
}
