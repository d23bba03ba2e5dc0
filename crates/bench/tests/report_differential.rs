//! Frozen digests of the paper artifacts: every one of the 15
//! figure/table reports, run at a tiny scale, must hash to the FNV-1a
//! digest captured while a second, frozen transaction path still shipped
//! and gave the same text.
//!
//! The digests cover whatever a report prints: counters, ratios, traffic,
//! removal periods and the warm-state reuse behind them, so a change that
//! moves one figure cell fails here, named by artifact.

use vsnoop::experiments::RunScale;
use vsnoop_bench::campaign::artifact_names;
use vsnoop_bench::reports;

type ReportFn = fn(RunScale) -> Result<String, String>;

/// Campaign order (checked against `artifact_names` below), with each
/// report's frozen digest.
const BINS: &[(&str, ReportFn, &str)] = &[
    ("fig1", reports::fig1, "6e4dea17b8f6fa1c"),
    ("fig2", reports::fig2, "cf8b60db9d0d6f39"),
    (
        "fig2_validation",
        reports::fig2_validation,
        "c260aa93317a298e",
    ),
    ("fig3", reports::fig3, "db938ea35df668e9"),
    ("table1", reports::table1, "746db7de0e1f1749"),
    ("table2", reports::table2, "51750459530602d6"),
    ("table3", reports::table3, "0cdd77aa08d8419f"),
    ("table4", reports::table4, "2eecfba0ce3029a6"),
    ("fig6", reports::fig6, "68dbe821dcc30702"),
    ("fig7", reports::fig7, "932050334bb412f4"),
    ("fig8", reports::fig8, "f161e40fc361d210"),
    ("fig9", reports::fig9, "2def75109fb15231"),
    ("table5", reports::table5, "b4b09c9a4602d10e"),
    ("fig10", reports::fig10, "a6dd572bad144242"),
    ("table6", reports::table6, "25c209dd36e6da21"),
];

/// FNV-1a over the report's bytes.
fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[test]
fn all_reports_match_their_frozen_digests() {
    let names: Vec<&str> = BINS.iter().map(|b| b.0).collect();
    assert_eq!(
        names,
        artifact_names(),
        "guard must cover exactly the campaign artifacts"
    );

    let scale = RunScale {
        warmup_rounds: 20,
        measure_rounds: 30,
        seed: 7,
    };
    let mut changed = Vec::new();
    for (name, run, frozen) in BINS {
        let text = run(scale).unwrap_or_else(|e| panic!("report {name} failed: {e}"));
        assert!(!text.is_empty(), "report {name} must produce output");
        let got = digest(&text);
        if got != *frozen {
            changed.push(format!("{name}: {got} (frozen {frozen})"));
        }
    }
    assert!(
        changed.is_empty(),
        "reports changed:\n{}",
        changed.join("\n")
    );
}
