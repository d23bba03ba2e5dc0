//! Running several workloads: each in a fresh process of this same
//! binary, their results gathered into one record with the host's
//! fingerprint, appended to `--out` as one JSON line per pass.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use vsnoop::runner::json::Value;

use crate::spec;

pub const SCHEMA: &str = "vsnoop-benchmark/v1";

pub struct Options {
    pub home: PathBuf,
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub bless: bool,
    pub runs: usize,
    pub out: Option<PathBuf>,
    pub expected: Option<PathBuf>,
}

/// What a child process reported: its exit status, the lines before
/// the result object, and the result object itself.
pub struct Child {
    pub exit_ok: bool,
    pub lines: Vec<String>,
    pub result: Option<Value>,
}

impl Child {
    pub fn failed(&self) -> u64 {
        self.result
            .as_ref()
            .and_then(|r| r.get("failed"))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }

    pub fn correct(&self) -> bool {
        self.exit_ok
            && self
                .result
                .as_ref()
                .and_then(|r| r.get("correct"))
                .and_then(Value::as_bool)
                .unwrap_or(false)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .as_ref()?
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    /// The note line starting with `key`, e.g. `counts` or `digest`.
    fn note(&self, key: &str) -> Option<&str> {
        self.lines
            .iter()
            .filter_map(|l| l.split_once(' ').map(|(_, rest)| rest.trim_start()))
            .find(|rest| rest.starts_with(key))
    }
}

/// Runs this binary again with `args` and collects what it printed.
pub fn spawn(home: &Path, args: &[String]) -> Child {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let out = Command::new(exe)
        .arg("--home")
        .arg(home)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("start a child benchmark process");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let result = lines
        .last()
        .filter(|l| l.starts_with('{'))
        .and_then(|l| Value::parse(l).ok());
    if result.is_some() {
        lines.pop();
    }
    Child {
        exit_ok: out.status.success(),
        lines,
        result,
    }
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What must match for two result sets to be comparable, and what
/// helps explain them when they differ.
pub fn fingerprint(o: &Options) -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let home = o.home.to_string_lossy();
    Value::obj([
        (
            "nproc",
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("cpu_model", Value::Str(cpu_model)),
        ("kernel", Value::Str(kernel)),
        (
            "rustc",
            Value::Str(command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_commit",
            Value::Str(
                command_output("git", &["-C", &home, "rev-parse", "HEAD"])
                    .unwrap_or_else(|| "unknown".into()),
            ),
        ),
        ("seed", Value::UInt(o.seed)),
        ("seconds", Value::Float(o.seconds)),
        ("quick", Value::Bool(o.quick)),
        ("window_rounds", Value::UInt(crate::sim::WINDOW_ROUNDS)),
        ("warmup_rounds", Value::UInt(crate::sim::WARMUP_ROUNDS)),
    ])
}

fn child_args(o: &Options, workload: &str, trace: bool) -> Vec<String> {
    let mut args = vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        o.seed.to_string(),
        "--seconds".to_string(),
        o.seconds.to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ];
    if o.quick {
        args.push("--quick".into());
    }
    if o.bless {
        args.push("--bless".into());
    }
    if let Some(dir) = &o.expected {
        args.push("--expected".into());
        args.push(dir.to_string_lossy().into_owned());
    }
    args
}

/// One pass over the workloads. Returns the pass's record and whether
/// every check held.
fn pass(o: &Options) -> (Value, bool) {
    let mut all_ok = true;
    let mut results = Vec::new();
    let mut counts: Vec<(String, String)> = Vec::new();
    for w in &o.workloads {
        // End-to-end metrics always come from an untraced process; the
        // traced pass is a second process.
        let plain = spawn(&o.home, &child_args(o, w, false));
        let traced = o.trace.then(|| spawn(&o.home, &child_args(o, w, true)));
        for (child, trace) in
            std::iter::once((&plain, false)).chain(traced.as_ref().map(|t| (t, true)))
        {
            for line in &child.lines {
                println!("{line}");
            }
            if !child.correct() {
                all_ok = false;
                println!(
                    "{w:<10} FAILED (trace {}): exit ok = {}, failed = {}",
                    u8::from(trace),
                    child.exit_ok,
                    child.failed()
                );
            }
            let mut obj = vec![
                ("workload".to_string(), Value::Str(w.clone())),
                ("trace".to_string(), Value::Bool(trace)),
                ("exit_ok".to_string(), Value::Bool(child.exit_ok)),
            ];
            if let Some(d) = child.note("digest") {
                obj.push(("digest".to_string(), Value::Str(d.to_string())));
            }
            if let Some(Value::Obj(result)) = &child.result {
                obj.extend(result.iter().cloned());
            }
            results.push(Value::Obj(obj));
        }
        if let Some(c) = plain.note("counts") {
            counts.push((w.clone(), c.to_string()));
        }
        // The in-run figure exists only where windows can alternate;
        // for the others the two processes are compared.
        if let Some(t) = &traced {
            if let (Some(base), Some(with)) = (
                plain.metric("throughput"),
                t.metric("obs.traced_throughput"),
            ) {
                if with > 0.0 {
                    println!(
                        "{w:<10} {:<36} {:>16.4} %  (untraced process {base:.4} 1/s vs traced process {with:.4} 1/s)",
                        "trace_overhead_across_processes",
                        (base / with - 1.0) * 100.0
                    );
                }
            }
        }
    }
    // pinned and broadcast replay one trace: same accesses, same hits.
    let of = |w: &str| counts.iter().find(|(n, _)| n == w).map(|(_, c)| c);
    if let (Some(p), Some(b)) = (of("pinned"), of("broadcast")) {
        if p == b {
            println!("pinned and broadcast agree: {p}");
        } else {
            all_ok = false;
            println!("CHECK FAILED: pinned ({p}) and broadcast ({b}) differ on the same trace");
        }
    }
    let record = Value::obj([
        ("schema", Value::Str(SCHEMA.into())),
        ("fingerprint", fingerprint(o)),
        ("results", Value::Arr(results)),
    ]);
    (record, all_ok)
}

pub fn run(o: &Options) -> ExitCode {
    let mut all_ok = true;
    for n in 0..o.runs {
        if o.runs > 1 {
            println!("--- pass {} of {} ---", n + 1, o.runs);
        }
        let (record, ok) = pass(o);
        all_ok &= ok;
        if let Some(path) = &o.out {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{}", record.to_json()));
            if let Err(e) = appended {
                eprintln!("writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    if all_ok {
        println!("all checks passed");
        ExitCode::SUCCESS
    } else {
        println!("SOME CHECKS FAILED");
        ExitCode::FAILURE
    }
}

/// The negative self-test: a corrupted digest, and a service reply
/// with the wrong text, must each fail the command with failures
/// counted; the uncorrupted digest must pass.
pub fn selftest(home: &Path) -> ExitCode {
    let seed = format!("{:x}", spec::DEFAULT_SEED);
    let committed = home.join("expected").join(format!("pinned.{seed}.digest"));
    let Ok(digest) = std::fs::read_to_string(&committed) else {
        eprintln!("selftest: {} is missing (run --bless)", committed.display());
        return ExitCode::from(2);
    };
    let bad_dir = home.join("out").join("selftest-expected");
    let written = std::fs::create_dir_all(&bad_dir).and_then(|()| {
        // Flip the first hex digit.
        let flipped = if digest.starts_with('0') { "1" } else { "0" };
        std::fs::write(
            bad_dir.join(format!("pinned.{seed}.digest")),
            format!("{flipped}{}", &digest[1..]),
        )
    });
    if let Err(e) = written {
        eprintln!("selftest: writing {}: {e}", bad_dir.display());
        return ExitCode::from(2);
    }
    let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let pinned = ["--workload", "pinned", "--seconds", "2"];
    let cases: [(&str, Vec<String>, bool); 3] = [
        ("committed digest passes", args(&pinned), true),
        (
            "corrupted digest fails",
            args(&[&pinned[..], &["--expected", &bad_dir.to_string_lossy()]].concat()),
            false,
        ),
        (
            "wrong service text fails",
            args(&[
                "--workload",
                "serve_open",
                "--seconds",
                "1",
                "--expect-wrong-text",
            ]),
            false,
        ),
    ];
    let mut ok = true;
    for (what, args, should_pass) in cases {
        let child = spawn(home, &args);
        let as_expected = if should_pass {
            child.correct() && child.failed() == 0
        } else {
            !child.exit_ok && !child.correct() && child.failed() > 0
        };
        println!(
            "selftest: {what}: exit ok = {}, correct = {}, failed = {} -> {}",
            child.exit_ok,
            child.correct(),
            child.failed(),
            if as_expected {
                "as expected"
            } else {
                "UNEXPECTED"
            }
        );
        ok &= as_expected;
    }
    let _ = std::fs::remove_dir_all(&bad_dir);
    if ok {
        println!("selftest ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// JSON for people: one field per line, lists of objects one object
/// per line, everything else compact.
pub fn pretty(v: &Value, indent: usize) -> String {
    let pad = " ".repeat(indent + 2);
    match v {
        Value::Obj(fields) if indent == 0 => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{pad}{}: {}",
                        Value::Str(k.clone()).to_json(),
                        pretty(v, indent + 2)
                    )
                })
                .collect();
            format!("{{\n{}\n}}", body.join(",\n"))
        }
        Value::Arr(items) if items.iter().any(|i| matches!(i, Value::Obj(_))) => {
            let body: Vec<String> = items
                .iter()
                .map(|i| format!("{pad}{}", spaced(i)))
                .collect();
            format!("[\n{}\n{}]", body.join(",\n"), " ".repeat(indent))
        }
        other => spaced(other),
    }
}

/// Compact JSON with a space after each separator.
fn spaced(v: &Value) -> String {
    match v {
        Value::Arr(items) => format!(
            "[{}]",
            items.iter().map(spaced).collect::<Vec<_>>().join(", ")
        ),
        Value::Obj(fields) => format!(
            "{{{}}}",
            fields
                .iter()
                .map(|(k, v)| format!("{}: {}", Value::Str(k.clone()).to_json(), spaced(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        scalar => scalar.to_json(),
    }
}
