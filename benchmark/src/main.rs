//! The repository's benchmark: simulator, campaign and service under
//! one command, measured from outside through public functions only.
//!
//! ```text
//! vsnoop-benchmark --home DIR [--workload NAME]... [--seed N] [--seconds S]
//!                  [--trace [0|1]] [--quick] [--runs N] [--out FILE]
//!                  [--expected DIR] [--bless]
//! vsnoop-benchmark --home DIR --compare A B
//! vsnoop-benchmark --home DIR --selftest
//! vsnoop-benchmark --list | --benchmark-json
//! ```
//!
//! With exactly one `--workload` the workload runs in this process and
//! the last line of standard output is the result object. Otherwise
//! every named workload (all seven by default) runs in a fresh process
//! of its own, so peak memory, the program's process-global metrics
//! registry and its warm pool are attributable to one workload.
//! `benchmark/README.md` describes workloads, metrics and how to read
//! the output.

mod campaign;
mod compare;
mod host;
mod ledger;
mod probes;
mod service;
mod sim;
mod span;
mod spec;
mod stats;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;

use vsnoop::runner::json::Value;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// What one workload run needs to know.
pub struct Ctx {
    pub seed: u64,
    /// How long the run measures, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// A tenth of the work, digests skipped, identities kept.
    pub quick: bool,
    /// Write the digests instead of checking them.
    pub bless: bool,
    pub expected_dir: PathBuf,
    /// Scratch and trace output; everything the run writes lands here.
    pub out_dir: PathBuf,
    /// Negative self-test: expect the wrong output text from the service.
    pub expect_wrong_text: bool,
}

/// A reported value, with the spread of the samples behind it.
pub struct Reported {
    pub name: &'static str,
    pub value: f64,
    /// Sample count and quartiles, where the value is a median.
    pub samples: Option<usize>,
    pub quartiles: Option<(f64, f64)>,
}

/// What one workload run found.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub failures: Vec<String>,
    pub values: Vec<Reported>,
    /// Lines for the reader (and, for `counts`/`digest`, for the suite).
    pub notes: Vec<String>,
}

impl Report {
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn push(
        &mut self,
        name: &str,
        value: f64,
        samples: Option<usize>,
        quartiles: Option<(f64, f64)>,
        table: &'static [spec::Metric],
    ) {
        let m = table
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"));
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.values.push(Reported {
            name: m.name,
            value,
            samples,
            quartiles,
        });
    }

    pub fn e2e(&mut self, name: &str, value: f64) {
        self.push(name, value, None, None, spec::END_TO_END);
    }

    pub fn e2e_detail(
        &mut self,
        name: &str,
        value: f64,
        samples: usize,
        quartiles: Option<(f64, f64)>,
    ) {
        self.push(name, value, Some(samples), quartiles, spec::END_TO_END);
    }

    /// The end-to-end metrics of a workload made of timed units
    /// (windows, passes): `secs` holds each unit's time, `work` what one
    /// unit does. Such a unit has no tail a user sees, and a run has too
    /// few of them to carry one, so the median stands in for the p95.
    pub fn e2e_units(&mut self, setups: &[f64], secs: &[f64], work: f64, rss_mib: f64) {
        use crate::stats::{median, quartiles, sorted};
        let per_s = sorted(secs.iter().map(|s| work / s).collect());
        let ms = sorted(secs.iter().map(|s| s * 1e3).collect());
        let (q1, med, q3) = quartiles(&per_s);
        let (l1, lmed, l3) = quartiles(&ms);
        self.e2e_detail(
            "setup_s",
            median(&sorted(setups.to_vec())),
            setups.len(),
            None,
        );
        self.e2e_detail("throughput", med, per_s.len(), Some((q1, q3)));
        self.e2e_detail("latency_p50_ms", lmed, ms.len(), Some((l1, l3)));
        self.e2e_detail("latency_p95_ms", lmed, ms.len(), None);
        self.e2e("peak_rss_mib", rss_mib);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.push(name, value, None, None, spec::PER_LAYER);
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }
}

/// FNV-1a, 64 bit: the digest of a workload's outputs.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Compares `got` with `expected/<workload>.<seed>.digest`, or writes
/// it under `--bless`. A seed without a committed digest has nothing to
/// compare against: the digest is printed and the identities stand
/// alone.
pub fn check_digest(ctx: &Ctx, workload: &str, got: &str) -> Vec<String> {
    let path = ctx
        .expected_dir
        .join(format!("{workload}.{:x}.digest", ctx.seed));
    if ctx.bless {
        std::fs::create_dir_all(&ctx.expected_dir)
            .and_then(|()| std::fs::write(&path, format!("{got}\n")))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return Vec::new();
    }
    match std::fs::read_to_string(&path) {
        Ok(want) if want.trim() == got => Vec::new(),
        Ok(want) => vec![format!(
            "digest mismatch: got {got}, {} holds {}",
            path.display(),
            want.trim()
        )],
        Err(_) => Vec::new(),
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    vsnoop_bench::service_load::peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

/// Turns the program's own observability switches on (trace directory
/// plus the metrics gate) or off.
pub fn program_switches(dir: Option<PathBuf>) {
    vsnoop::obs::metrics::set_enabled(dir.is_some());
    vsnoop::obs::set_trace_dir(dir);
}

/// Writes the span log of a traced run and notes where the time went.
pub fn finish_trace(ctx: &Ctx, workload: &str, tr: &span::Tracer, report: &mut Report) {
    let path = ctx.out_dir.join(format!("{workload}.trace.jsonl"));
    tr.write_jsonl(&path)
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    report.note(format!(
        "trace {} ({} spans)",
        path.display(),
        tr.spans().len()
    ));
    for (name, count, total, own) in span::self_times(tr.spans()).into_iter().take(8) {
        report.note(format!(
            "span {name}: n={count} total={:.3}s self={:.3}s",
            total as f64 / 1e9,
            own as f64 / 1e9
        ));
    }
}

#[derive(Debug)]
struct Cli {
    home: PathBuf,
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: usize,
    out: Option<PathBuf>,
    expected: Option<PathBuf>,
    bless: bool,
    compare: Option<(PathBuf, PathBuf)>,
    selftest: bool,
    expect_wrong_text: bool,
}

const USAGE: &str =
    "usage: run.sh [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]] [--quick]
              [--runs N] [--out FILE] [--expected DIR] [--bless]
       run.sh --compare A B | --selftest | --list";

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        home: PathBuf::from("benchmark"),
        workloads: Vec::new(),
        seed: spec::DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
        expected: None,
        bless: false,
        compare: None,
        selftest: false,
        expect_wrong_text: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--home" => cli.home = PathBuf::from(value("--home")?),
            "--workload" => {
                let name = value("--workload")?;
                if spec::workload(&name).is_none() {
                    let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name:?} (available: {})",
                        names.join(", ")
                    ));
                }
                cli.workloads.push(name);
            }
            "--seed" => cli.seed = parse_u64(&value("--seed")?).ok_or("--seed: not a number")?,
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it, or a bare flag.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => cli.quick = true,
            "--runs" => {
                cli.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if cli.runs == 0 {
                    return Err("--runs must be positive".into());
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            "--expected" => cli.expected = Some(PathBuf::from(value("--expected")?)),
            "--bless" => cli.bless = true,
            "--compare" => {
                cli.compare = Some((
                    PathBuf::from(value("--compare")?),
                    PathBuf::from(value("--compare")?),
                ))
            }
            "--selftest" => cli.selftest = true,
            "--expect-wrong-text" => cli.expect_wrong_text = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        }
    }
    Ok(cli)
}

/// Runs one workload in this process and prints its result; the last
/// line is the result object.
fn run_one(name: &str, ctx: &Ctx) -> ExitCode {
    std::fs::create_dir_all(&ctx.out_dir)
        .unwrap_or_else(|e| panic!("creating {}: {e}", ctx.out_dir.display()));
    let mut report = Report::default();
    match name {
        "campaign" => campaign::run(ctx, &mut report),
        "serve_open" => service::run(ctx, &mut report),
        _ => sim::run(name, ctx, &mut report),
    }

    // Every declared metric of this pass is printed; one that this
    // workload does not exercise reads 0.
    let table = if ctx.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    let mut metrics = Vec::new();
    for m in table {
        let r = report.values.iter().find(|r| r.name == m.name);
        let value = r.map_or(0.0, |r| r.value);
        if !ctx.trace && value == 0.0 {
            report
                .failures
                .push(format!("end-to-end metric {} was not measured", m.name));
        }
        if let Some(r) = r {
            let mut line = format!("{name:<10} {:<36} {:>16.4} {}", m.name, value, m.unit);
            if let Some(n) = r.samples {
                line.push_str(&format!("  n={n}"));
            }
            if let Some((q1, q3)) = r.quartiles {
                line.push_str(&format!(" q1={q1:.4} q3={q3:.4}"));
            }
            println!("{line}");
        }
        metrics.push((
            m.name.to_string(),
            Value::obj([
                ("value", Value::Float(value)),
                ("unit", Value::Str(m.unit.into())),
            ]),
        ));
    }
    for note in &report.notes {
        println!("{name:<10} {note}");
    }
    for f in &report.failures {
        println!("{name:<10} CHECK FAILED: {f}");
    }
    let failed = if report.failures.is_empty() {
        report.failed
    } else {
        report.failed.max(1)
    };
    let attempted = report.attempted.max(1);
    println!(
        "{name:<10} failed_share {:.6} ({failed} of {attempted})",
        failed as f64 / attempted as f64
    );
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(report.correct())),
            ("attempted", Value::UInt(attempted)),
            ("failed", Value::UInt(failed)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_json()
    );
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // No knob of the program may leak into a run.
    for (key, _) in std::env::vars_os() {
        let k = key.to_string_lossy();
        if k.starts_with("VSNOOP_") || k.starts_with("PERF_") || k.starts_with("SOAK_") {
            std::env::remove_var(&key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        print!("{}", spec::list());
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--benchmark-json") {
        println!("{}", suite::pretty(&spec::benchmark_json(), 0));
        return ExitCode::SUCCESS;
    }
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &cli.compare {
        return compare::run(a, b);
    }
    if cli.selftest {
        return suite::selftest(&cli.home);
    }
    let seconds = cli.seconds.unwrap_or(if cli.quick {
        1.0
    } else {
        spec::RUN_SECONDS as f64
    });
    if let [name] = cli.workloads.as_slice() {
        let ctx = Ctx {
            seed: cli.seed,
            seconds,
            trace: cli.trace,
            quick: cli.quick,
            bless: cli.bless,
            expected_dir: cli.expected.unwrap_or_else(|| cli.home.join("expected")),
            out_dir: cli.home.join("out"),
            expect_wrong_text: cli.expect_wrong_text,
        };
        return run_one(name, &ctx);
    }
    suite::run(&suite::Options {
        home: cli.home,
        workloads: if cli.workloads.is_empty() {
            spec::WORKLOADS.iter().map(|w| w.name.to_string()).collect()
        } else {
            cli.workloads
        },
        seed: cli.seed,
        seconds,
        trace: cli.trace,
        quick: cli.quick,
        bless: cli.bless,
        runs: cli.runs,
        out: cli.out,
        expected: cli.expected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_s_arguments_parse() {
        let c = cli(&[
            "--workload",
            "pinned",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (c.workloads.as_slice(), c.seed, c.seconds, c.trace),
            (&["pinned".to_string()][..], 7, Some(10.0), false)
        );
        assert!(
            cli(&["--workload", "pinned", "--trace", "1"])
                .unwrap()
                .trace
        );
        // A bare --trace, as a person types it, also means on.
        let c = cli(&["--trace", "--quick"]).unwrap();
        assert!(c.trace && c.quick);
        assert_eq!(cli(&["--seed", "0x50AC"]).unwrap().seed, spec::DEFAULT_SEED);
        assert!(cli(&["--workload", "nope"]).unwrap_err().contains("storm"));
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--frobnicate"]).is_err());
    }

    #[test]
    fn digest_is_fnv1a_64() {
        let mut h = Fnv::default();
        h.write(b"a");
        assert_eq!(h.hex(), "af63dc4c8601ec8c");
        assert_eq!(Fnv::default().hex(), "cbf29ce484222325");
    }
}
