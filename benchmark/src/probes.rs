//! Micro-probes: one public call of one layer, timed from outside, on
//! inputs built from the run's seed. Each reports the median cost per
//! call over at least twenty batches.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sim_mem::{
    BlockAddr, Cache, CacheGeometry, CacheLine, LineTag, ReadMode, TokenProtocol, TokenState,
};
use sim_net::{Mesh, MessageKind, Network, NodeId};
use sim_vm::{Hypervisor, SharingDirectory, SharingType, TypeTlb, VcpuId, VmId};
use vsnoop::runner::json::Value;
use vsnoop::runner::{run_campaign, Job, JobError, RunnerConfig};
use vsnoop::service::reactor::{drain_wakes, wake_pair, Interest, Poller};
use vsnoop::service::{protocol, Admission, Request, Response, TenantQuota, Wal, WalRecord};
use vsnoop::{ContentPolicy, FilterPolicy, Simulator, SystemConfig};
use workloads::{AccessStream, ZipfSampler};

use crate::host::Host;
use crate::stats::{median, percentile, sorted};
use crate::Report;

/// Time one probe may take.
const BUDGET: Duration = Duration::from_millis(120);
const MIN_BATCHES: usize = 20;

/// Runs `f` in batches of `iters` calls until both [`MIN_BATCHES`] and
/// [`BUDGET`] are spent; returns the per-call time of every batch, in
/// nanoseconds, ascending.
fn batches(iters: u32, mut f: impl FnMut()) -> Vec<f64> {
    let deadline = Instant::now() + BUDGET;
    let mut per_call = Vec::new();
    while per_call.len() < MIN_BATCHES || Instant::now() < deadline {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    sorted(per_call)
}

/// Median nanoseconds per call of `f`, normalised to nominal host
/// speed by the readings either side of the probe.
fn ns_per_call(host: &mut Host, iters: u32, f: impl FnMut()) -> f64 {
    let before = host.sample();
    let ns = median(&batches(iters, f));
    ns * (before + host.sample()) / 2.0
}

/// What one call into each simulator layer costs, in nanoseconds, plus
/// the two properties of the trace the ledger needs.
pub struct LayerCosts {
    pub next_access: f64,
    pub tlb_hit: f64,
    pub tlb_miss: f64,
    pub cache_hit: f64,
    pub cache_miss: f64,
    pub read_filtered: f64,
    pub read_bcast: f64,
    pub write_filtered: f64,
    pub write_bcast: f64,
    pub multicast_quadrant: f64,
    pub multicast_bcast: f64,
    pub unicast: f64,
    /// Share of the trace's accesses that hit a 64-slot TypeTlb.
    pub tlb_hit_share: f64,
    /// Share of the trace's accesses that are writes.
    pub write_share: f64,
}

/// One protocol miss per call by core 0 over a block range twice the
/// L2's capacity, so every block has left the requester's cache before
/// it recurs and every call is a genuine miss served by memory; only
/// the number of snooped caches differs between the two fan-outs.
fn protocol_miss_ns(host: &mut Host, dests: &[usize], write: bool) -> f64 {
    let cfg = SystemConfig::paper_default();
    let geometry = CacheGeometry::new(cfg.l2_bytes, cfg.l2_ways);
    let mut caches = vec![Cache::new(geometry, cfg.n_vms); cfg.n_cores()];
    let mut tp = TokenProtocol::new(cfg.n_cores() as u32);
    let tag = LineTag::Vm(VmId::new(0));
    let range = 2 * cfg.l2_bytes / sim_mem::BLOCK_BYTES;
    let mut b = 0u64;
    ns_per_call(host, 2000, || {
        b = (b + 1) % range;
        let block = BlockAddr::new(b);
        if write {
            black_box(
                tp.write_miss(&mut caches, 0, dests, block, true, tag)
                    .success,
            );
        } else {
            black_box(
                tp.read_miss(&mut caches, 0, dests, block, true, tag, ReadMode::Strict)
                    .success,
            );
        }
    })
}

/// Probes every layer a simulated step passes through and reports the
/// per-layer metrics; returns the costs for the ledger.
pub fn simulator_layers(seed: u64, host: &mut Host, report: &mut Report) -> LayerCosts {
    let cfg = SystemConfig::paper_default();

    // workloads
    let mut wl = crate::sim::trace(&cfg, seed);
    let mut i = 0u16;
    let next_access = ns_per_call(host, 4000, || {
        i = (i + 1) % 16;
        black_box(wl.next_access(VcpuId::new(VmId::new(i / 4), i % 4)));
    });
    let zipf = ZipfSampler::new(4096, 0.7);
    let mut rng = SmallRng::seed_from_u64(seed);
    let zipf_sample = ns_per_call(host, 4000, || {
        black_box(zipf.sample(&mut rng));
    });

    // The trace's own TLB hit share and write share: replay a slice of
    // it through one 64-slot TypeTlb per vCPU, as the simulator does.
    let mut wl = crate::sim::trace(&cfg, seed);
    let mut tlbs = vec![TypeTlb::new(cfg.tlb_slots); cfg.n_cores()];
    let (mut writes, replayed) = (0u64, 400_000u64);
    for n in 0..replayed {
        let v = (n % 16) as u16;
        let a = wl.next_access(VcpuId::new(VmId::new(v / 4), v % 4));
        writes += u64::from(a.write);
        tlbs[v as usize].lookup(a.addr / sim_mem::PAGE_BYTES, wl.directory());
    }
    let (hits, misses) = tlbs.iter().fold((0u64, 0u64), |(h, m), t| {
        (h + t.stats().hits, m + t.stats().misses)
    });

    // sim_vm
    let mut dir = SharingDirectory::new();
    for p in 0..10_000u64 {
        dir.register(p, SharingType::VmPrivate, Some(VmId::new((p % 4) as u16)));
    }
    let mut tlb = TypeTlb::new(cfg.tlb_slots);
    let mut p = 0u64;
    let tlb_hit = ns_per_call(host, 4000, || {
        p = (p + 1) % 32;
        black_box(tlb.lookup(p, &dir));
    });
    let tlb_miss = ns_per_call(host, 4000, || {
        // Consecutive pages 65 apart never share a slot's resident page.
        p = (p + 65) % 10_000;
        black_box(tlb.lookup(p, &dir));
    });
    let mut hv = Hypervisor::new(cfg.n_cores(), &wl.vm_specs());
    hv.place_round_robin();
    let mut k = 0u16;
    let try_swap = ns_per_call(host, 1000, || {
        k = (k + 1) % 4;
        let (a, b) = (
            VcpuId::new(VmId::new(0), k),
            VcpuId::new(VmId::new(1 + k % 3), k),
        );
        black_box(hv.try_swap(0, a, b).is_ok());
        if hv.relocations().len() > 4096 {
            hv.clear_relocations();
        }
    });

    // sim_mem
    let geometry = CacheGeometry::new(cfg.l2_bytes, cfg.l2_ways);
    let mut cache = Cache::new(geometry, cfg.n_vms);
    for b in 0..4096u64 {
        cache.insert(CacheLine::new(
            BlockAddr::new(b),
            TokenState::shared_one(),
            LineTag::Vm(VmId::new((b % 4) as u16)),
        ));
    }
    let mut b = 0u64;
    let cache_hit = ns_per_call(host, 4000, || {
        b = (b + 1) % 4096;
        black_box(cache.access(BlockAddr::new(b)));
    });
    let cache_miss = ns_per_call(host, 4000, || {
        b += 1;
        black_box(cache.access(BlockAddr::new(100_000 + b)));
    });
    let quadrant = [1usize, 4, 5];
    let everyone: Vec<usize> = (1..cfg.n_cores()).collect();
    let read_filtered = protocol_miss_ns(host, &quadrant, false);
    let read_bcast = protocol_miss_ns(host, &everyone, false);
    let write_filtered = protocol_miss_ns(host, &quadrant, true);
    let write_bcast = protocol_miss_ns(host, &everyone, true);

    // sim_net
    let mut net = Network::new(Mesh::new(cfg.mesh_width, cfg.mesh_height));
    let quad_nodes: Vec<NodeId> = quadrant.iter().map(|&i| NodeId::new(i as u16)).collect();
    let all_nodes: Vec<NodeId> = everyone.iter().map(|&i| NodeId::new(i as u16)).collect();
    let multicast_quadrant = ns_per_call(host, 4000, || {
        black_box(net.multicast(
            NodeId::new(0),
            quad_nodes.iter().copied(),
            MessageKind::Request,
        ));
    });
    let multicast_bcast = ns_per_call(host, 4000, || {
        black_box(net.multicast(
            NodeId::new(0),
            all_nodes.iter().copied(),
            MessageKind::Request,
        ));
    });
    let mut d = 0u16;
    let unicast = ns_per_call(host, 4000, || {
        d = 1 + d % 15;
        black_box(net.unicast(NodeId::new(d), NodeId::new(0), MessageKind::Data));
    });

    report.layer("workloads.next_access_ns", next_access);
    report.layer("workloads.zipf_sample_ns", zipf_sample);
    report.layer("sim_vm.tlb_lookup_hit_ns", tlb_hit);
    report.layer("sim_vm.tlb_lookup_miss_ns", tlb_miss);
    report.layer("sim_vm.try_swap_ns", try_swap);
    report.layer("sim_mem.cache_access_hit_ns", cache_hit);
    report.layer("sim_mem.cache_access_miss_ns", cache_miss);
    report.layer("sim_mem.read_miss_filtered_ns", read_filtered);
    report.layer("sim_mem.read_miss_bcast_ns", read_bcast);
    report.layer("sim_mem.write_miss_filtered_ns", write_filtered);
    report.layer("sim_mem.write_miss_bcast_ns", write_bcast);
    report.layer("sim_net.multicast_quadrant_ns", multicast_quadrant);
    report.layer("sim_net.multicast_bcast_ns", multicast_bcast);
    report.layer("sim_net.unicast_ns", unicast);

    LayerCosts {
        next_access,
        tlb_hit,
        tlb_miss,
        cache_hit,
        cache_miss,
        read_filtered,
        read_bcast,
        write_filtered,
        write_bcast,
        multicast_quadrant,
        multicast_bcast,
        unicast,
        tlb_hit_share: hits as f64 / (hits + misses).max(1) as f64,
        write_share: writes as f64 / replayed as f64,
    }
}

/// Probes the layers under the campaign: warm snapshots, the credit
/// scheduler behind fig3/table1, and the runner's per-job overhead.
pub fn campaign_layers(seed: u64, host: &mut Host, report: &mut Report) {
    let cfg = SystemConfig::paper_default();
    let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
    let mut wl = crate::sim::trace(&cfg, seed);
    sim.run(&mut wl, 5_000);
    let snapshot_ns = ns_per_call(host, 2, || {
        black_box(sim.snapshot(&wl));
    });
    let snap = sim.snapshot(&wl);
    let fork_ns = ns_per_call(host, 2, || {
        black_box(snap.fork());
    });
    report.layer("warm.snapshot_ms", snapshot_ns / 1e6);
    report.layer("warm.fork_ms", fork_ns / 1e6);

    // One cell of fig3: four 4-vCPU VMs on eight cores, full migration.
    let app = workloads::parsec_apps()[0];
    let sched_cfg = sim_vm::SchedulerConfig {
        n_cores: 8,
        tick_ms: 0.1,
        policy: sim_vm::SchedPolicy::FullMigration,
        seed,
        ..Default::default()
    };
    let vms = workloads::sched_vms(app, 4, 4, 0.1);
    let sched_ns = ns_per_call(host, 1, || {
        black_box(sim_vm::run_scheduler(&sched_cfg, &vms).makespan_ms());
    });
    report.layer("sim_vm.run_scheduler_ms", sched_ns / 1e6);

    let jobs: Vec<Job> = (0..100)
        .map(|i| {
            Job::new(
                format!("empty{i}"),
                seed,
                Value::Null,
                |_| Ok(String::new()),
            )
        })
        .collect();
    let overhead_ns = median(&sorted(
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let r = run_campaign(&jobs, &RunnerConfig::default(), &mut |_| {})
                    .expect("empty campaign runs");
                assert!(r.all_ok());
                t0.elapsed().as_nanos() as f64 / jobs.len() as f64
            })
            .collect(),
    ));
    report.layer("runner.overhead_ms_per_job", overhead_ns / 1e6);
}

/// Probes the layers under a served request. `scratch` is a directory
/// inside the benchmark's output directory for the WAL files.
pub fn service_layers(scratch: &Path, host: &mut Host, report: &mut Report) {
    let submit = r#"{"op":"submit","tenant":"bench0","job":"spin","params":{"ms":0},"deadline_ms":60000,"tag":"1234"}"#;
    let tag = Some("1234".to_string());
    let done_ok: Result<String, JobError> = Ok("spin:0\n".into());
    let done_line = protocol::done(42, "spin", &done_ok, &tag);

    let parsed = Value::parse(submit).expect("the probe's submit line is JSON");
    report.layer(
        "runner.json_parse_ns",
        ns_per_call(host, 500, || {
            black_box(Value::parse(black_box(submit)).is_ok());
        }),
    );
    report.layer(
        "runner.json_emit_ns",
        ns_per_call(host, 500, || {
            black_box(parsed.to_json());
        }),
    );
    report.layer(
        "protocol.request_parse_ns",
        ns_per_call(host, 500, || {
            black_box(Request::parse(black_box(submit)).is_ok());
        }),
    );
    report.layer(
        "protocol.response_parse_ns",
        ns_per_call(host, 500, || {
            black_box(Response::parse(black_box(&done_line)).is_ok());
        }),
    );
    report.layer(
        "protocol.done_emit_ns",
        ns_per_call(host, 500, || {
            black_box(protocol::done(42, "spin", &done_ok, &tag));
        }),
    );

    let mut adm: Admission<u64> = Admission::new(128, TenantQuota::default());
    let mut n = 0u64;
    report.layer(
        "quota.offer_dispatch_finish_ns",
        ns_per_call(host, 500, || {
            n += 1;
            let tenant = if n.is_multiple_of(2) {
                "bench0"
            } else {
                "bench1"
            };
            adm.offer(tenant, n, 100).expect("an empty queue admits");
            let (t, _) = adm.next_dispatch().expect("the offered job dispatches");
            adm.finish(&t);
        }),
    );

    // WAL: one appender, so every append pays its own fdatasync.
    let record = |job_id: u64| WalRecord::Accepted {
        job_id,
        tenant: "bench0".into(),
        job: "spin".into(),
        params: Value::obj([("ms", Value::UInt(0))]),
        deadline_ms: Some(60_000),
        idem_key: None,
        bytes: submit.len() as u64,
    };
    let append_us = |sync: bool, count: u64| {
        let path = scratch.join(if sync {
            "probe-sync.wal"
        } else {
            "probe-nosync.wal"
        });
        let _ = std::fs::remove_file(&path);
        let wal = Wal::open(&path, sync).expect("the probe WAL opens");
        sorted(
            (0..count)
                .map(|i| {
                    let r = record(i);
                    let t0 = Instant::now();
                    wal.append(&r).expect("the probe WAL appends");
                    t0.elapsed().as_nanos() as f64 / 1e3
                })
                .collect(),
        )
    };
    let synced = append_us(true, 200);
    report.layer("wal.append_sync_us_p50", median(&synced));
    report.layer("wal.append_sync_us_p95", percentile(&synced, 95.0));
    report.layer(
        "wal.append_nosync_us_p50",
        median(&append_us(false, 20_000)),
    );
    // The unsynced log now holds 20 000 records: replay it.
    let replay_path = scratch.join("probe-nosync.wal");
    let replay_s = median(&sorted(
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let state = Wal::replay(&replay_path).expect("the probe WAL replays");
                black_box(state);
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    ));
    report.layer("wal.replay_krec_per_s", 20.0 / replay_s);

    // Reactor: a wake from this thread until Poller::wait returns.
    let (waker, mut rx) = wake_pair().expect("socketpair");
    let mut poller = Poller::new().expect("poller");
    {
        use std::os::fd::AsRawFd;
        poller
            .register(rx.as_raw_fd(), 1, Interest::READ)
            .expect("register");
    }
    let mut events = Vec::new();
    let wake_ns = ns_per_call(host, 200, || {
        waker.wake();
        poller
            .wait(&mut events, Duration::from_secs(1))
            .expect("poll");
        drain_wakes(&mut rx);
    });
    report.layer("reactor.wake_roundtrip_us", wake_ns / 1e3);

    static HIST: vsnoop::obs::metrics::Histogram = vsnoop::obs::metrics::Histogram::new();
    let mut v = 1u64;
    report.layer(
        "obs.hist_record_ns",
        ns_per_call(host, 4000, || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            HIST.record(v >> 44);
        }),
    );
}
