//! Integration tests: the lints run over a fixture workspace with known
//! violations and must report exactly those — correct lint codes, paths,
//! and line numbers. A second set drives the installed binary to pin exit
//! codes and output formats, and a self-check keeps the real workspace
//! lint-clean.

use planaria_checks::{run_all, run_filtered, Allowlist, Lint};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad-ws")
}

fn workspace_root() -> PathBuf {
    // crates/checks -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("manifest dir has two ancestors")
        .to_path_buf()
}

#[test]
fn fixture_violations_are_found_with_locations() {
    let diags = run_all(&fixture_root()).expect("fixture scan");
    let got: Vec<(String, String, usize, String)> = diags
        .iter()
        .map(|d| {
            (
                d.lint.code().to_string(),
                d.rel_path.clone(),
                d.line,
                d.ident.clone(),
            )
        })
        .collect();
    let expect = [
        ("L2", "crates/compiler/src/lib.rs", 3, "HashMap"),
        ("L2", "crates/compiler/src/lib.rs", 4, "HashSet"),
        ("L2", "crates/compiler/src/lib.rs", 7, "HashMap"),
        ("L2", "crates/compiler/src/lib.rs", 8, "HashSet"),
        ("L2", "crates/compiler/src/lib.rs", 9, "HashMap"),
        ("L3", "crates/core/src/lib.rs", 5, "unwrap"),
        ("L3", "crates/core/src/lib.rs", 10, "expect"),
        ("L3", "crates/core/src/lib.rs", 25, "allow"),
        ("L3", "crates/model/src/lib.rs", 12, "unwrap"),
        ("L1", "crates/timing/src/lib.rs", 5, "cycles"),
        ("L1", "crates/timing/src/lib.rs", 6, "tile_bytes"),
        ("L1", "crates/timing/src/lib.rs", 12, "total_cycles"),
        ("L1", "crates/timing/src/lib.rs", 17, "dram_bytes"),
        ("L2", "crates/timing/src/lib.rs", 27, "Instant"),
        ("L2", "crates/timing/src/lib.rs", 28, "Instant"),
    ];
    let want: Vec<(String, String, usize, String)> = expect
        .iter()
        .map(|(c, p, l, i)| (c.to_string(), p.to_string(), *l, i.to_string()))
        .collect();
    assert_eq!(got, want, "diagnostics:\n{:#?}", diags);
}

#[test]
fn allowlist_suppresses_and_reports_stale_entries() {
    let allow = Allowlist::parse(
        "L1 crates/timing/src/lib.rs *\nL3 crates/model/src/lib.rs unwrap\nL2 crates/nope/src/lib.rs HashMap\n",
    )
    .expect("well-formed allowlist");
    let (violations, unused) = run_filtered(&fixture_root(), &allow).expect("fixture scan");
    assert!(
        violations
            .iter()
            .all(|d| !(d.lint == Lint::UnitSafety && d.rel_path.contains("timing"))),
        "L1 timing findings must be suppressed"
    );
    assert!(!violations.iter().any(|d| d.rel_path.contains("model")));
    assert_eq!(
        unused,
        vec!["L2 crates/nope/src/lib.rs HashMap".to_string()]
    );
}

#[test]
fn real_workspace_is_lint_clean_under_checked_in_allowlist() {
    let root = workspace_root();
    let allow =
        Allowlist::load(&root.join("crates/checks/allowlist.txt")).expect("allowlist loads");
    // The cap tracks the L2-HOT scope: it grew from 7 to 10 files when
    // the event queue, slab index and completion sinks joined the
    // per-event path, bringing their sanctioned setup points with them.
    assert!(
        allow.len() < 16,
        "allowlist must stay small, has {} entries",
        allow.len()
    );
    let (violations, unused) = run_filtered(&root, &allow).expect("workspace scan");
    assert!(
        violations.is_empty(),
        "workspace must be lint-clean:\n{}",
        violations
            .iter()
            .map(|d| d.render_text())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(unused.is_empty(), "stale allowlist entries: {unused:?}");
}

#[test]
fn binary_exits_nonzero_on_fixtures_and_zero_on_workspace() {
    let bin = env!("CARGO_BIN_EXE_planaria-checks");
    // Fixture workspace, no allowlist: violations => exit 1.
    let out = Command::new(bin)
        .args(["--root"])
        .arg(fixture_root())
        .args(["--allowlist", "/nonexistent-allowlist"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("crates/core/src/lib.rs:5: [L3]"),
        "missing file:line diagnostic in:\n{text}"
    );
    // Real workspace with the checked-in allowlist: clean => exit 0.
    let out = Command::new(bin)
        .args(["--root"])
        .arg(workspace_root())
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    // Usage error => exit 2.
    let out = Command::new(bin)
        .arg("--bogus-flag")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn json_format_is_parseable_shape() {
    let bin = env!("CARGO_BIN_EXE_planaria-checks");
    let out = Command::new(bin)
        .args(["--root"])
        .arg(fixture_root())
        .args(["--allowlist", "/nonexistent-allowlist", "--format", "json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    let trimmed = text.trim();
    assert!(
        trimmed.starts_with('[') && trimmed.ends_with(']'),
        "{trimmed}"
    );
    assert_eq!(trimmed.matches("\"lint\"").count(), 15);
    assert!(trimmed.contains("\"path\":\"crates/timing/src/lib.rs\""));
    assert!(trimmed.contains("\"line\":5"));
    // Every object carries the four keys.
    for key in [
        "\"lint\"",
        "\"path\"",
        "\"line\"",
        "\"ident\"",
        "\"message\"",
    ] {
        assert_eq!(trimmed.matches(key).count(), 15, "key {key}");
    }
}
