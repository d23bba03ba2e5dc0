//! `all` is the one figure entry point: `--list` names the artifact
//! registry, and `--only <name>` prints exactly that artifact's report.

use std::process::{Command, Output};

use vsnoop::experiments::RunScale;
use vsnoop_bench::campaign::artifact_names;
use vsnoop_bench::reports;

/// Runs `all` with `args` at the quick scale, every other knob unset.
fn all(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_all"));
    for name in vsnoop::knob::NAMES {
        cmd.env_remove(name);
    }
    let out = cmd
        .env("VSNOOP_SCALE", "quick")
        .args(args)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "all {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn list_is_the_artifact_registry() {
    let out = all(&["--list"]);
    let listed: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(listed, artifact_names());
}

#[test]
fn only_prints_the_artifact_report() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("one_entry_point");
    let out = all(&["--only", "table2", "--dir", dir.to_str().unwrap()]);
    let expected = reports::table2(RunScale::quick()).unwrap();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);
}
