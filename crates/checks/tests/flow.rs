//! Integration tests for the interprocedural lints over the `flow-ws`
//! fixture workspace — a workspace the old line-local lints pass clean,
//! where only the call graph exposes the violations — plus the golden
//! `--format json` snapshot and `--explain`.

use planaria_checks::run_all;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/flow-ws")
}

#[test]
fn interprocedural_fixtures_fire_only_the_flow_lints() {
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
        ("L4", "crates/core/src/cluster.rs", 8, "total"),
        ("L4", "crates/core/src/cluster.rs", 17, "fetch_add"),
        ("L4", "crates/core/src/cluster.rs", 17, "hits"),
        ("L2-FLOW", "crates/core/src/engine.rs", 13, "span_secs"),
        ("L2-FLOW", "crates/core/src/engine.rs", 19, "window"),
        ("L1-FLOW", "crates/core/src/run.rs", 5, "admit"),
    ];
    let want: Vec<(String, String, usize, String)> = expect
        .iter()
        .map(|(c, p, l, i)| (c.to_string(), p.to_string(), *l, i.to_string()))
        .collect();
    assert_eq!(got, want, "diagnostics:\n{diags:#?}");
    // The whole point of the fixture: every diagnostic comes from a lint
    // the line-local passes cannot express — none from the old ones.
    assert!(
        diags
            .iter()
            .all(|d| matches!(d.lint.code(), "L1-FLOW" | "L2-FLOW" | "L4")),
        "line-local lint fired on a flow fixture:\n{diags:#?}"
    );
}

#[test]
fn golden_json_snapshot_is_stable() {
    let bin = env!("CARGO_BIN_EXE_planaria-checks");
    let out = Command::new(bin)
        .args(["--root"])
        .arg(fixture_root())
        .args(["--allowlist", "/nonexistent-allowlist", "--format", "json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let golden = include_str!("fixtures/flow-ws.json");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden,
        "JSON report drifted from tests/fixtures/flow-ws.json; if the \
         change is intentional, regenerate the snapshot with:\n  cargo run \
         -p planaria-checks -- --root crates/checks/tests/fixtures/flow-ws \
         --allowlist /nonexistent-allowlist --format json"
    );
}

#[test]
fn explain_prints_rule_text_for_every_code() {
    let bin = env!("CARGO_BIN_EXE_planaria-checks");
    for code in [
        "L1", "L1-FLOW", "L2", "L2-TIME", "L2-HOT", "L2-FLOW", "L3", "L4",
    ] {
        let out = Command::new(bin)
            .args(["--explain", code])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "--explain {code}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.len() > 80, "--explain {code} too short:\n{text}");
        assert!(text.contains(code), "--explain {code} must name the code");
    }
    let out = Command::new(bin)
        .args(["--explain", "L9"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}
