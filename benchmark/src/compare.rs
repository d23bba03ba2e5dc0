//! `--compare A B`: two result sets of one host, one row per workload
//! and end-to-end metric, each with a verdict.
//!
//! A set is a file of suite passes (`--runs N --out FILE`), at least
//! five. `B` is judged against `A`: `worse` when its median is worse
//! by more than the metric's bound, `better` when it wins at least nine
//! tenths of all pairs and the medians differ by more than A's own
//! interquartile distance, `unresolved` when either side's spread is
//! wider than the bound (unless every run of one side beats every run
//! of the other), `same` otherwise.

use std::path::Path;
use std::process::ExitCode;

use vsnoop::runner::json::Value;

use crate::spec::{self, Better};
use crate::stats::{quartiles, sorted, spread};

pub const MIN_RUNS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: median and quartiles of its runs.
#[derive(Debug, PartialEq)]
pub struct Side {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Side {
    /// The side of a row and its spread (IQR / median).
    fn of(values: &[f64]) -> (Side, f64) {
        let values = sorted(values.to_vec());
        let (q1, median, q3) = quartiles(&values);
        (Side { q1, median, q3 }, spread(&values))
    }
}

/// Judges `b` against `a`. Returns both sides, the change of the median
/// as a share of `a`'s (positive = worse), and the verdict.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Side, Side, f64, Verdict) {
    let ((sa, spread_a), (sb, spread_b)) = (Side::of(a), Side::of(b));
    let beats = |x: f64, y: f64| match better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    // Pairs (x, y), one run of each side, in which x beats y.
    let wins = |xs: &[f64], ys: &[f64]| {
        xs.iter()
            .flat_map(|&x| ys.iter().map(move |&y| (x, y)))
            .filter(|&(x, y)| beats(x, y))
            .count() as f64
    };
    let pairs = (a.len() * b.len()) as f64;
    let (a_wins, b_wins) = (wins(a, b), wins(b, a));
    let change = if sa.median == 0.0 {
        0.0
    } else {
        (sb.median - sa.median) / sa.median.abs()
    };
    let worse_by = match better {
        Better::Higher => -change,
        Better::Lower => change,
    };
    let verdict = if spread_a.max(spread_b) > bound {
        if b_wins == pairs {
            Verdict::Better
        } else if a_wins == pairs && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < 0.0
        && b_wins >= 0.9 * pairs
        && (sb.median - sa.median).abs() > sa.q3 - sa.q1
    {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (sa, sb, worse_by, verdict)
}

/// A loaded result set.
struct Set {
    passes: Vec<Value>,
}

impl Set {
    fn load(path: &Path) -> Result<Set, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let passes: Vec<Value> = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| Value::parse(l).map_err(|e| format!("{}: {e}", path.display())))
            .collect::<Result<_, _>>()?;
        if passes.len() < MIN_RUNS {
            return Err(format!(
                "{} holds {} pass(es); a set needs at least {MIN_RUNS} (--runs {MIN_RUNS} --out FILE)",
                path.display(),
                passes.len()
            ));
        }
        Ok(Set { passes })
    }

    /// The host properties results may not be compared across.
    fn hosts(&self) -> Vec<(u64, String)> {
        let mut hosts: Vec<(u64, String)> = self
            .passes
            .iter()
            .map(|p| {
                let f = p.get("fingerprint");
                (
                    f.and_then(|f| f.get("nproc"))
                        .and_then(Value::as_u64)
                        .unwrap_or(0),
                    f.and_then(|f| f.get("cpu_model"))
                        .and_then(Value::as_str)
                        .unwrap_or("unknown")
                        .to_string(),
                )
            })
            .collect();
        hosts.sort();
        hosts.dedup();
        hosts
    }

    fn untraced(&self, workload: &str) -> impl Iterator<Item = &Value> {
        let workload = workload.to_string();
        self.passes
            .iter()
            .filter_map(|p| p.get("results").and_then(Value::as_arr))
            .flatten()
            .filter(move |r| {
                r.get("workload").and_then(Value::as_str) == Some(&workload)
                    && r.get("trace").and_then(Value::as_bool) == Some(false)
            })
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.untraced(workload)
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    /// Distinct digests seen for a workload, and failures counted.
    fn outputs(&self, workload: &str) -> (Vec<String>, u64) {
        let mut digests: Vec<String> = self
            .untraced(workload)
            .filter_map(|r| r.get("digest").and_then(Value::as_str).map(str::to_string))
            .collect();
        digests.sort();
        digests.dedup();
        let failed = self
            .untraced(workload)
            .map(|r| r.get("failed").and_then(Value::as_u64).unwrap_or(0))
            .sum();
        (digests, failed)
    }
}

pub fn run(a_path: &Path, b_path: &Path) -> ExitCode {
    let (a, b) = match (Set::load(a_path), Set::load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut hosts = a.hosts();
    hosts.extend(b.hosts());
    hosts.sort();
    hosts.dedup();
    if hosts.len() != 1 {
        eprintln!("compare: refusing to compare across hosts: {hosts:?}");
        return ExitCode::from(2);
    }
    println!(
        "A = {} ({} passes), B = {} ({} passes), host: {} x {}",
        a_path.display(),
        a.passes.len(),
        b_path.display(),
        b.passes.len(),
        hosts[0].0,
        hosts[0].1
    );
    println!(
        "{:<10} {:<15} {:>6} {:>38} {:>38} {:>9} {:>6}  verdict",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "worse by", "bound"
    );
    let mut not_same = 0;
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let (va, vb) = (a.values(w.name, m.name), b.values(w.name, m.name));
            if va.len() < MIN_RUNS || vb.len() < MIN_RUNS {
                continue;
            }
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (sa, sb, worse_by, verdict) = judge(&va, &vb, m.better, bound);
            let side = |s: &Side| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "{:<10} {:<15} {:>6} {:>38} {:>38} {:>8.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                m.unit,
                side(&sa),
                side(&sb),
                worse_by * 100.0,
                bound * 100.0,
                verdict.as_str()
            );
            if matches!(verdict, Verdict::Worse | Verdict::Unresolved) {
                not_same += 1;
            }
        }
        if a.untraced(w.name).next().is_none() && b.untraced(w.name).next().is_none() {
            continue;
        }
        // One digest a side where the workload has one (the service has
        // none), the same on both, and no failure anywhere.
        let ((da, fa), (db, fb)) = (a.outputs(w.name), b.outputs(w.name));
        let same_outputs = da.len() <= 1 && da == db && fa == 0 && fb == 0;
        println!(
            "{:<10} {:<15} {:>6} {:>38} {:>38} {:>9} {:>6}  {}",
            w.name,
            "outputs",
            "",
            format!("{} digest(s), {fa} failed", da.len()),
            format!("{} digest(s), {fb} failed", db.len()),
            "",
            "exact",
            if same_outputs { "same" } else { "DIFFERENT" }
        );
        if !same_outputs {
            not_same += 1;
        }
    }
    if not_same == 0 {
        println!("no row is worse, unresolved or different");
        ExitCode::SUCCESS
    } else {
        println!("{not_same} row(s) worse, unresolved or different");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way: same.
        let b = [103.0, 104.0, 102.0, 103.5, 102.5];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10).3, Verdict::Same);
        // Lower is better and B is 20 % higher: worse.
        let b = [120.0, 121.0, 119.0, 120.5, 119.5];
        let (_, _, worse_by, v) = judge(&a, &b, Better::Lower, 0.10);
        assert_eq!(v, Verdict::Worse);
        assert!((worse_by - 0.20).abs() < 1e-9);
        // The same numbers where higher is better: a clear win.
        assert_eq!(judge(&a, &b, Better::Higher, 0.10).3, Verdict::Better);
        // A small but clean win (every pair, beyond A's spread) counts.
        let b = [96.0, 96.5, 95.5, 96.2, 95.8];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10).3, Verdict::Better);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_one_side_sweeps() {
        let a = [100.0, 130.0, 80.0, 120.0, 90.0];
        let b = [105.0, 125.0, 85.0, 115.0, 95.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10).3, Verdict::Unresolved);
        // Every run of B beats every run of A: resolved as better.
        let b = [50.0, 60.0, 40.0, 55.0, 45.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10).3, Verdict::Better);
        // And the reverse: every run worse, median beyond the bound.
        let b = [200.0, 260.0, 160.0, 240.0, 180.0];
        assert_eq!(judge(&a, &b, Better::Lower, 0.10).3, Verdict::Worse);
    }
}
