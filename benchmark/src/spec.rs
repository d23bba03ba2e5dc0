//! The benchmark's vocabulary: every workload and every metric, by
//! name, once. `--list`, the result printer, `--compare` and the root
//! `BENCHMARK.json` (rendered by [`benchmark_json`], pinned by a test)
//! all read these tables, so a name cannot drift between them.

use vsnoop::runner::json::Value;

/// Seconds one run measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// Seed used when `--seed` is not given; `expected/` holds its digests.
pub const DEFAULT_SEED: u64 = 0x50AC;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One set of inputs the benchmark runs.
pub struct Workload {
    pub name: &'static str,
    /// Why it exists: what it exercises and what it bypasses.
    pub why: &'static str,
}

/// A metric: end-to-end ones carry the share of the parent's median by
/// which they may worsen before a change counts as a regression.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "storm",
        why: "Counter policy, every fault class, checker on, 0.1 ms migration storm: every simulator layer plus checker, fault and map upkeep work; gains there show here only.",
    },
    Workload {
        name: "pinned",
        why: "VsnoopBase, fault-free, checker off, no migration: the filtered fast path (4 snoops/miss); bypasses checker, faults, migration and engine, so changes to those must read no change.",
    },
    Workload {
        name: "broadcast",
        why: "Same trace as pinned under TokenBroadcast: full 15-way fan-out (16 snoops/miss) through the same protocol and mesh code; a filter-path gain that costs the fan-out path shows here.",
    },
    Workload {
        name: "migrate",
        why: "VsnoopBase, fault-free, checker off, 0.1 ms migrations, default engine setting: vCPU maps are written, not just read, with no checker or fault cost; the profile the batched engine accepts.",
    },
    Workload {
        name: "campaign",
        why: "Cold passes over all 15 paper artifacts via campaign_jobs + run_campaign: what a figure-regenerating user waits for, dominated by the fig7/fig8 sweeps through warm snapshots and scatter.",
    },
    Workload {
        name: "serve_open",
        why: "In-process serve with its WAL, open loop at 200 req/s of zero-work jobs, latency from each request's due time: queue wait (the 20 ms tick), WAL and outbox flush own the time; no simulator layer runs.",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these (none is ever 0): `throughput` counts the workload's own unit
/// of work per second — simulated access steps for the four simulator
/// workloads, campaign passes for `campaign`, answered requests for
/// `serve_open` — and `latency_*` is the wait for one unit a user asks
/// for: a 50 000-round window, a campaign pass, a request. Simulator
/// and campaign times are normalised to nominal host speed (`host.rs`).
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_p95_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher as H, Lower as L};

/// Metrics of single layers (layer = module), measured in the traced
/// run. A metric reads 0 on a workload that does not run its layer.
pub const PER_LAYER: &[Metric] = &[
    // Micro-probes: one public call, timed from outside.
    layer("workloads.next_access_ns", "ns", L),
    layer("workloads.zipf_sample_ns", "ns", L),
    layer("sim_vm.tlb_lookup_hit_ns", "ns", L),
    layer("sim_vm.tlb_lookup_miss_ns", "ns", L),
    layer("sim_vm.try_swap_ns", "ns", L),
    layer("sim_vm.run_scheduler_ms", "ms", L),
    layer("sim_mem.cache_access_hit_ns", "ns", L),
    layer("sim_mem.cache_access_miss_ns", "ns", L),
    layer("sim_mem.read_miss_filtered_ns", "ns", L),
    layer("sim_mem.read_miss_bcast_ns", "ns", L),
    layer("sim_mem.write_miss_filtered_ns", "ns", L),
    layer("sim_mem.write_miss_bcast_ns", "ns", L),
    layer("sim_net.multicast_quadrant_ns", "ns", L),
    layer("sim_net.multicast_bcast_ns", "ns", L),
    layer("sim_net.unicast_ns", "ns", L),
    // The simulator as a whole, and its exact operation counts.
    layer("host.relative_speed", "ratio", H),
    layer("simulator.raw_steps_per_s", "1/s", H),
    layer("simulator.ns_per_step", "ns", L),
    layer("simulator.snoops_per_miss", "ratio", L),
    layer("simulator.byte_links_per_step", "ratio", L),
    layer("simulator.l1_hit_share", "ratio", H),
    layer("simulator.l2_hit_share", "ratio", H),
    layer("simulator.miss_share", "ratio", L),
    layer("simulator.retries_per_kstep", "ratio", L),
    layer("simulator.msgs_per_step", "ratio", L),
    layer("simulator.map_updates_per_mstep", "ratio", L),
    // The step-cost ledger: rows sum to simulator.ns_per_step.
    layer("ledger.gen_ns", "ns", L),
    layer("ledger.classify_ns", "ns", L),
    layer("ledger.l1_ns", "ns", L),
    layer("ledger.l2_ns", "ns", L),
    layer("ledger.transaction_ns", "ns", L),
    layer("ledger.traffic_ns", "ns", L),
    layer("ledger.checker_ns", "ns", L),
    layer("ledger.fault_ns", "ns", L),
    layer("ledger.residual_ns", "ns", L),
    layer("ledger.coverage", "ratio", H),
    layer("checker.sweep_ms", "ms", L),
    // The batched engine against the serial loop, twin windows.
    layer("engine.par_steps_per_s", "1/s", H),
    layer("engine.par_spread", "ratio", L),
    layer("engine.serial_steps_per_s", "1/s", H),
    layer("engine.par_over_serial", "ratio", H),
    layer("engine.update_procs_us_p50", "us", L),
    layer("engine.update_caches_us_p50", "us", L),
    layer("engine.update_net_us_p50", "us", L),
    layer("engine.shard_imbalance_us_p50", "us", L),
    layer("engine.serial_fraction", "ratio", L),
    // Campaign layers.
    layer("warm.snapshot_ms", "ms", L),
    layer("warm.fork_ms", "ms", L),
    layer("warm.hit_share", "ratio", H),
    layer("warm.pool_len", "count", L),
    layer("runner.job_wall_s.fig7", "s", L),
    layer("runner.job_wall_s.fig8", "s", L),
    layer("runner.job_wall_s.rest", "s", L),
    layer("runner.overhead_ms_per_job", "ms", L),
    // Service layers.
    layer("runner.json_parse_ns", "ns", L),
    layer("runner.json_emit_ns", "ns", L),
    layer("protocol.request_parse_ns", "ns", L),
    layer("protocol.response_parse_ns", "ns", L),
    layer("protocol.done_emit_ns", "ns", L),
    layer("quota.offer_dispatch_finish_ns", "ns", L),
    layer("wal.append_sync_us_p50", "us", L),
    layer("wal.append_sync_us_p95", "us", L),
    layer("wal.append_nosync_us_p50", "us", L),
    layer("wal.replay_krec_per_s", "krec/s", H),
    layer("wal.appends_per_request", "ratio", L),
    layer("reactor.wake_roundtrip_us", "us", L),
    layer("server.accept_p50_ms", "ms", L),
    layer("server.accept_to_done_p50_ms", "ms", L),
    layer("server.latency_p99_ms", "ms", L),
    layer("server.slo_miss_share", "ratio", L),
    layer("server.late_p95_ms", "ms", L),
    layer("server.late_max_ms", "ms", L),
    layer("server.done_before_accepted", "count", L),
    layer("server.connect_us", "us", L),
    layer("server.sat_req_per_s", "1/s", H),
    layer("server.sat_latency_p50_ms", "ms", L),
    layer("server.sat_latency_p95_ms", "ms", L),
    layer("server.stage_admission_wait_us_p50", "us", L),
    layer("server.stage_admission_wait_us_p99", "us", L),
    layer("server.stage_wal_fsync_us_p50", "us", L),
    layer("server.stage_wal_fsync_us_p99", "us", L),
    layer("server.stage_queue_wait_us_p50", "us", L),
    layer("server.stage_queue_wait_us_p99", "us", L),
    layer("server.stage_run_us_p50", "us", L),
    layer("server.stage_run_us_p99", "us", L),
    layer("server.stage_request_us_p50", "us", L),
    layer("server.stage_request_us_p99", "us", L),
    layer("server.stage_sum_over_total", "ratio", H),
    // What the traced run itself costs.
    layer("obs.hist_record_ns", "ns", L),
    layer("obs.traced_throughput", "1/s", H),
    layer("obs.trace_overhead_pct", "%", L),
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The text `--list` prints: one line per workload and metric.
pub fn list() -> String {
    let mut out = String::new();
    for w in WORKLOADS {
        out.push_str(&format!("workload {}\n", w.name));
    }
    for m in END_TO_END {
        out.push_str(&format!("end_to_end {} {}\n", m.name, m.unit));
    }
    for m in PER_LAYER {
        out.push_str(&format!("per_layer {} {}\n", m.name, m.unit));
    }
    out
}

/// The root `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Value {
    let str_arr =
        |items: &[&str]| Value::Arr(items.iter().map(|s| Value::Str(s.to_string())).collect());
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name", Value::Str(m.name.into())),
            ("unit", Value::Str(m.unit.into())),
            ("better", Value::Str(m.better.as_str().into())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Value::Float(b)));
        }
        Value::obj(fields)
    };
    Value::obj([
        ("command", str_arr(&["bash", "benchmark/run.sh"])),
        ("paths", str_arr(&["benchmark"])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj([
                            ("name", Value::Str(w.name.into())),
                            ("why", Value::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "workload name {:?}", w.name);
            assert!(seen.insert(w.name), "{} is used twice", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} characters",
                w.name,
                w.why.len()
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "metric name {:?}", m.name);
            assert!(unit_ok(m.unit), "{}: unit {:?}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_is_what_the_tables_render() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Value::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: benchmark/run.sh --benchmark-json > BENCHMARK.json"
        );

        // And `--list` prints exactly the names the file lists.
        let names = |key: &str| -> Vec<String> {
            on_disk
                .get(key)
                .and_then(Value::as_arr)
                .expect("a list")
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(Value::as_str)
                        .expect("a name")
                        .to_string()
                })
                .collect()
        };
        let listed = |kind: &str| -> Vec<String> {
            list()
                .lines()
                .filter_map(|l| l.strip_prefix(kind))
                .map(|rest| rest.split_whitespace().next().expect("a name").to_string())
                .collect()
        };
        assert_eq!(names("workloads"), listed("workload "));
        assert_eq!(names("end_to_end"), listed("end_to_end "));
        assert_eq!(names("per_layer"), listed("per_layer "));
    }
}
