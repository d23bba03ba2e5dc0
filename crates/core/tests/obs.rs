//! Integration tests for the observability layer: flight-recorder
//! dumps on checker violations, job panics and watchdog timeouts;
//! telemetry lifecycle records; epoch-delta conservation; and the
//! zero-cost-when-off contract.
//!
//! The trace directory and the enabled flag are process-global, so
//! every test that turns tracing on holds [`OBS_LOCK`] and restores
//! the disabled state through a drop guard.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use vsnoop::runner::{json::Value, run_campaign, Job, RunnerConfig};
use vsnoop::{CheckerConfig, ContentPolicy, FilterPolicy, Simulator, SystemConfig};
use workloads::{profile, Workload, WorkloadConfig};

/// Serializes tests that flip the process-global tracing state.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// A scratch directory unique to one test, cleaned before use.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vsnoop-obs-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Enables tracing into `dir` for the guard's lifetime, then disables
/// it again — even when the test body panics.
struct Traced;

impl Traced {
    fn new(dir: &Path) -> Self {
        vsnoop::obs::flight::clear_ring();
        vsnoop::obs::set_trace_dir(Some(dir.to_path_buf()));
        Traced
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        vsnoop::obs::set_trace_dir(None);
        vsnoop::obs::flight::clear_ring();
    }
}

fn workload(cfg: &SystemConfig, seed: u64) -> Workload {
    Workload::homogeneous(
        profile("fft").expect("registered"),
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed,
            ..Default::default()
        },
    )
}

/// Telemetry lines (skipping none — every line must parse).
fn telemetry_lines(dir: &std::path::Path) -> Vec<Value> {
    let text = std::fs::read_to_string(dir.join("telemetry.jsonl")).expect("telemetry.jsonl");
    text.lines()
        .map(|l| Value::parse(l).expect("telemetry line parses"))
        .collect()
}

fn events_named<'a>(lines: &'a [Value], event: &str) -> Vec<&'a Value> {
    lines
        .iter()
        .filter(|v| v.get("event").and_then(Value::as_str) == Some(event))
        .collect()
}

fn quiet() -> impl FnMut(&str) {
    |_line: &str| {}
}

#[test]
fn tracing_off_records_nothing() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(!vsnoop::obs::enabled(), "tests start with tracing off");
    vsnoop::obs::flight::clear_ring();

    let cfg = SystemConfig::small_test();
    let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
    let mut wl = workload(&cfg, 0xA11CE);
    sim.run(&mut wl, 300);

    assert!(sim.stats().l2_misses > 0, "the run must do real work");
    assert_eq!(vsnoop::obs::flight::recorded_len(), 0);
    assert_eq!(vsnoop::obs::flight::recorded_total(), 0);
    assert_eq!(vsnoop::obs::dump_flight("panic"), None);
}

#[test]
fn checker_violation_dumps_flight_ring() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("violation");
    let _t = Traced::new(&dir);

    let (dump_path, last_before_kill, violation_cycle) = vsnoop::obs::with_scope("viol", || {
        let cfg = SystemConfig::small_test();
        let mut sim = Simulator::new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast);
        sim.enable_checker(CheckerConfig::default());
        let mut wl = workload(&cfg, 0xBEEF);
        sim.run(&mut wl, 400);
        assert!(
            vsnoop::obs::flight::recorded_total() > 0,
            "tracing on must record transactions"
        );
        let last = vsnoop::obs::flight::last_event().expect("ring non-empty");

        sim.debug_corrupt_token_state()
            .expect("a cached line to corrupt");
        sim.run_checker_sweep();
        let ch = sim.checker().expect("checker enabled");
        assert!(
            ch.total_violations() > 0,
            "corruption must trip the checker"
        );
        let violation_cycle = ch.violations().last().expect("recorded violation").cycle;
        (
            dir.join("flight-viol-violation.jsonl"),
            last,
            violation_cycle,
        )
    });

    // The dump exists, carries the schema header, and its final event
    // is the last transaction recorded before the checker killed the
    // run — the event closest to the violation.
    let text = std::fs::read_to_string(&dump_path).expect("violation flight dump written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "header plus at least one event");
    let header = Value::parse(lines[0]).unwrap();
    assert_eq!(
        header.get("schema").and_then(Value::as_str),
        Some(vsnoop::obs::flight::FLIGHT_SCHEMA)
    );
    assert_eq!(
        header.get("reason").and_then(Value::as_str),
        Some("violation")
    );
    let last_line = Value::parse(lines.last().unwrap()).unwrap();
    assert_eq!(
        last_line.get("cycle").and_then(Value::as_u64),
        Some(last_before_kill.cycle)
    );
    assert_eq!(
        last_line.get("block").and_then(Value::as_u64),
        Some(last_before_kill.block)
    );

    // The telemetry stream carries the matching violation record.
    let lines = telemetry_lines(&dir);
    let viol = events_named(&lines, "checker_violation");
    assert_eq!(viol.len(), 1, "first violation latches exactly one record");
    assert_eq!(
        viol[0].get("cycle").and_then(Value::as_u64),
        Some(violation_cycle),
        "the sweep reports at the cycle it ran"
    );
    assert_eq!(
        viol[0].get("flight_dump").and_then(Value::as_str),
        Some(dump_path.display().to_string().as_str())
    );
}

#[test]
fn job_panic_dumps_flight_ring_and_emits_lifecycle() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("panic");
    let _t = Traced::new(&dir);

    let job = Job::new("boomjob", 7, Value::obj(vec![]), |_ctx| {
        let cfg = SystemConfig::small_test();
        let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
        let mut wl = workload(&cfg, 7);
        sim.run(&mut wl, 200);
        panic!("deliberate obs test panic");
    });
    let report = run_campaign(&[job], &RunnerConfig::default(), &mut quiet()).unwrap();
    assert_eq!(report.failed(), 1);

    // The job thread's ring was dumped before the panic propagated.
    let dump = dir.join("flight-boomjob-panic.jsonl");
    let text = std::fs::read_to_string(&dump).expect("panic flight dump written");
    let header = Value::parse(text.lines().next().unwrap()).unwrap();
    assert_eq!(header.get("scope").and_then(Value::as_str), Some("boomjob"));
    assert_eq!(header.get("reason").and_then(Value::as_str), Some("panic"));

    let lines = telemetry_lines(&dir);
    assert_eq!(events_named(&lines, "job_start").len(), 1);
    let failed = events_named(&lines, "job_failed");
    assert_eq!(failed.len(), 1);
    assert_eq!(
        failed[0].get("error_kind").and_then(Value::as_str),
        Some("panic")
    );
    assert!(
        failed[0].get("wall_ms").and_then(Value::as_u64).is_some(),
        "terminal records carry wall-clock timing"
    );
}

/// A campaign's jobs share its pool's workers, yet each attempt starts
/// with an empty flight ring: a job that panics after another ran on the
/// same worker dumps its own events only.
#[test]
fn a_panic_on_a_reused_worker_dumps_only_its_own_events() {
    use vsnoop::obs::flight::{self, FlightEvent};
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("reused");
    let _t = Traced::new(&dir);

    let threads = std::sync::Arc::new(Mutex::new(Vec::new()));
    let job = |name: &str, block: u64, events: u64, panics: bool| {
        let threads = std::sync::Arc::clone(&threads);
        Job::new(name, 7, Value::obj(vec![]), move |_ctx| {
            threads.lock().unwrap().push(std::thread::current().id());
            for cycle in 0..events {
                flight::record_tx(FlightEvent {
                    cycle,
                    block,
                    dest_mask: 0,
                    delivered: 0,
                    core: 0,
                    tokens_moved: 0,
                    attempt: 0,
                    sharing: 0,
                    flags: 0,
                });
            }
            assert!(!panics, "deliberate panic after {events} events");
            Ok(String::new())
        })
    };
    let jobs = [job("first", 0xA, 40, false), job("second", 0xB, 3, true)];
    let report = run_campaign(&jobs, &RunnerConfig::default(), &mut quiet()).unwrap();
    assert_eq!((report.succeeded(), report.failed()), (1, 1));
    assert_eq!(report.worker_spawns, 1);
    let threads = threads.lock().unwrap();
    assert_eq!(threads.len(), 2);
    assert_eq!(threads[0], threads[1], "both jobs ran on the one worker");

    let text = std::fs::read_to_string(dir.join("flight-second-panic.jsonl"))
        .expect("panic flight dump written");
    let mut lines = text.lines().map(|l| Value::parse(l).unwrap());
    let header = lines.next().unwrap();
    assert_eq!(header.get("events").and_then(Value::as_u64), Some(3));
    assert_eq!(
        header.get("recorded_total").and_then(Value::as_u64),
        Some(3)
    );
    let blocks: Vec<u64> = lines
        .map(|ev| ev.get("block").and_then(Value::as_u64).unwrap())
        .collect();
    assert_eq!(blocks, [0xB; 3]);
}

#[test]
fn watchdog_timeout_dumps_flight_ring() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("timeout");
    let _t = Traced::new(&dir);

    // The simulator polls the cancel token at round boundaries, so the
    // watchdog's deadline unwinds this loop cooperatively.
    let job = Job::new("slowjob", 7, Value::obj(vec![]), |_ctx| {
        let cfg = SystemConfig::small_test();
        let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
        let mut wl = workload(&cfg, 9);
        loop {
            sim.run(&mut wl, 50);
        }
    });
    let cfg = RunnerConfig {
        timeout: Some(Duration::from_millis(150)),
        ..Default::default()
    };
    let report = run_campaign(&[job], &cfg, &mut quiet()).unwrap();
    assert_eq!(report.failed(), 1);

    let dump = dir.join("flight-slowjob-timeout.jsonl");
    let text = std::fs::read_to_string(&dump).expect("timeout flight dump written");
    let header = Value::parse(text.lines().next().unwrap()).unwrap();
    assert_eq!(
        header.get("reason").and_then(Value::as_str),
        Some("timeout")
    );

    let lines = telemetry_lines(&dir);
    let failed = events_named(&lines, "job_failed");
    assert_eq!(failed.len(), 1);
    assert_eq!(
        failed[0].get("error_kind").and_then(Value::as_str),
        Some("timeout")
    );
}

#[test]
fn heartbeats_carry_progress_and_warm_counters() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("heartbeat");
    let _t = Traced::new(&dir);
    std::env::set_var("VSNOOP_HEARTBEAT_MS", "1");

    let job = Job::new("steady", 7, Value::obj(vec![]), |_ctx| {
        let cfg = SystemConfig::small_test();
        let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
        let mut wl = workload(&cfg, 11);
        for _ in 0..20 {
            sim.run(&mut wl, 50);
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok("ok\n".into())
    });
    let report = run_campaign(&[job], &RunnerConfig::default(), &mut quiet()).unwrap();
    std::env::remove_var("VSNOOP_HEARTBEAT_MS");
    assert!(report.all_ok());

    let lines = telemetry_lines(&dir);
    let beats = events_named(&lines, "heartbeat");
    assert!(!beats.is_empty(), "a 1 ms interval must fire during 100 ms");
    let beat = beats.last().unwrap();
    for key in [
        "jobs_total",
        "jobs_done",
        "jobs_running",
        "retries",
        "rounds_per_sec",
        "rss_bytes",
        "warm_hits",
        "warm_misses",
        "warm_evictions",
    ] {
        assert!(beat.get(key).is_some(), "heartbeat missing {key}");
    }
    let ok = events_named(&lines, "job_ok");
    assert_eq!(ok.len(), 1);
    assert!(ok[0].get("attempt_ms").and_then(Value::as_u64).is_some());
}

#[test]
fn shard_panic_emits_partial_progress_telemetry() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("shard");
    let _t = Traced::new(&dir);

    vsnoop::runner::set_shard_workers(4);
    let r = std::panic::catch_unwind(|| {
        vsnoop::runner::scatter((0..12).collect::<Vec<u32>>(), |i| {
            if i == 2 {
                panic!("shard {i} failed");
            }
            std::thread::sleep(Duration::from_millis(2));
            i
        })
    });
    vsnoop::runner::set_shard_workers(0);
    assert!(r.is_err(), "the shard panic must propagate");

    let lines = telemetry_lines(&dir);
    let panics = events_named(&lines, "shard_panic");
    assert_eq!(panics.len(), 1);
    let p = panics[0];
    assert_eq!(p.get("index").and_then(Value::as_u64), Some(2));
    assert_eq!(p.get("shards").and_then(Value::as_u64), Some(12));
    assert_eq!(
        p.get("message").and_then(Value::as_str),
        Some("shard 2 failed")
    );
    assert!(
        p.get("completed_after").and_then(Value::as_u64).is_some()
            && p.get("dropped_unstarted").and_then(Value::as_u64).is_some(),
        "the record must account for the dropped partial progress"
    );
}

/// Satellite: every telemetry record carries a `mono_ms` field from
/// the process-monotonic clock next to the wall-clock `ts_ms` —
/// tailers correlate records across clock steps with it, so it must
/// be present and nondecreasing in emit order.
#[test]
fn telemetry_records_carry_nondecreasing_mono_ms() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = scratch("mono");
    let _t = Traced::new(&dir);

    vsnoop::obs::telemetry::emit("mono_probe", vec![("i", Value::UInt(0))]);
    std::thread::sleep(Duration::from_millis(5));
    vsnoop::obs::telemetry::emit("mono_probe", vec![("i", Value::UInt(1))]);

    let lines = telemetry_lines(&dir);
    let probes = events_named(&lines, "mono_probe");
    assert_eq!(probes.len(), 2);
    let mut prev = 0u64;
    for p in probes {
        assert!(
            p.get("ts_ms").and_then(Value::as_u64).is_some(),
            "the wall clock stays for log correlation: {p:?}"
        );
        let mono = p
            .get("mono_ms")
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("mono_ms in {p:?}"));
        assert!(mono >= prev, "mono_ms went backwards: {mono} < {prev}");
        prev = mono;
    }
}

/// Satellite: the engine-phase metrics gate is zero-cost when off. A
/// parallel-eligible batched run with the gate disabled (the default)
/// must not touch the engine-phase histograms at all; the same run
/// with the gate on records every phase. Held under [`OBS_LOCK`]
/// because the gate — like the trace flag — is process-global.
#[test]
fn engine_phase_metrics_record_only_when_the_gate_is_on() {
    use vsnoop::obs::metrics;

    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(!vsnoop::obs::enabled(), "tests start with tracing off");
    assert!(!metrics::enabled(), "tests start with the metrics gate off");

    let run = || {
        let cfg = SystemConfig::small_test();
        let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
        sim.set_engine_workers(2);
        let mut wl = workload(&cfg, 0x0B5E);
        sim.run(&mut wl, 400);
        assert!(sim.stats().l2_misses > 0, "the run must do real work");
    };
    let counts = || {
        (
            metrics::ENGINE_UPDATE_PROCS_US.snapshot().count,
            metrics::ENGINE_UPDATE_CACHES_US.snapshot().count,
            metrics::ENGINE_UPDATE_NET_US.snapshot().count,
            metrics::ENGINE_SHARD_IMBALANCE_US.snapshot().count,
        )
    };

    let before = counts();
    run();
    assert_eq!(counts(), before, "a disabled gate must record nothing");

    metrics::set_enabled(true);
    let before = counts();
    run();
    let after = counts();
    metrics::set_enabled(false);
    assert!(
        after.0 > before.0 && after.1 > before.1 && after.2 > before.2 && after.3 > before.3,
        "an enabled gate must record every phase: {before:?} -> {after:?}"
    );
}

/// Runs a simulator with epoch recording and checks that the sum of the
/// per-epoch deltas reproduces the final aggregate for **every**
/// counter field — the conservation property that catches a counter
/// the snapshotter forgot. Exercised both fault-free and under a
/// migration storm (so swaps, retries and map-maintenance counters are
/// all nonzero).
fn assert_epoch_deltas_conserve(every: u64, rounds: u64, seed: u64, migrate: bool) {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sim_vm::{VcpuId, VmId};

    let cfg = SystemConfig::small_test();
    let mut sim = Simulator::new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast);
    sim.enable_epochs(every);
    let mut wl = workload(&cfg, seed);
    if migrate {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pick = move |_cycle: u64| {
            let a = rng.gen_range(0..cfg.n_vms) as u16;
            let mut b = rng.gen_range(0..cfg.n_vms - 1) as u16;
            if b >= a {
                b += 1;
            }
            (
                VcpuId::new(VmId::new(a), rng.gen_range(0..cfg.vcpus_per_vm)),
                VcpuId::new(VmId::new(b), rng.gen_range(0..cfg.vcpus_per_vm)),
            )
        };
        sim.run_with_migration(&mut wl, rounds, cfg.cycles_per_access * 3, pick);
    } else {
        sim.run(&mut wl, rounds);
    }
    sim.flush_epochs();

    let recorder = sim.epochs().expect("recorder enabled");
    let expected_epochs = rounds.div_ceil(every.max(1));
    assert_eq!(
        recorder.epochs().len() as u64,
        expected_epochs,
        "every={every} rounds={rounds}"
    );

    let mut summed = vsnoop::SimStats::new(cfg.n_cores());
    for epoch in recorder.epochs() {
        summed.add_delta(&epoch.stats);
    }
    let aggregate = sim.stats();
    assert_eq!(
        summed.counters(),
        aggregate.counters(),
        "per-epoch deltas must sum to the aggregate for every counter \
         (every={every}, rounds={rounds}, migrate={migrate})"
    );
    assert_eq!(
        summed.stall_cycles, aggregate.stall_cycles,
        "per-core stall deltas must sum too"
    );
}

#[test]
fn epoch_deltas_sum_to_final_aggregate() {
    // No lock: epoch recording is per-simulator and needs no tracing.
    assert_epoch_deltas_conserve(7, 97, 0xE90C, false);
    assert_epoch_deltas_conserve(16, 160, 0xE90C, true);
    assert_epoch_deltas_conserve(1, 13, 3, true);
}

mod prop {
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn epoch_delta_conservation_holds_for_any_shape(
            every in 1u64..40,
            rounds in 1u64..250,
            seed in any::<u64>(),
            migrate in any::<bool>(),
        ) {
            super::assert_epoch_deltas_conserve(every, rounds, seed, migrate);
        }
    }
}
