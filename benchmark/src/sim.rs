//! The four simulator workloads: one paper machine, one trace, four
//! ways of using the same layers.
//!
//! Work is fixed per window (50 000 rounds = 800 000 access steps);
//! only the *number* of windows follows `--seconds`. Simulated counts
//! and the output digest are taken at a fixed window count, so they
//! repeat exactly for a seed however fast the host is.

use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_vm::{VcpuId, VmId};
use vsnoop::{
    CheckerConfig, ContentPolicy, FaultPlan, FilterPolicy, SimStats, Simulator, SystemConfig,
};
use workloads::{try_profile, Workload, WorkloadConfig};

use crate::host::Host;
use crate::span::Tracer;
use crate::stats::{median, quartiles, sorted, spread};
use crate::{ledger, probes, Ctx, Report};

/// Rounds per timed window and in the untimed warm-up.
pub const WINDOW_ROUNDS: u64 = 50_000;
pub const WARMUP_ROUNDS: u64 = 50_000;

/// How one simulator workload configures the shared machine.
#[derive(Clone, Copy)]
pub struct Profile {
    pub policy: FilterPolicy,
    pub faults: bool,
    pub checker: bool,
    pub migration: bool,
    /// Timed windows after which counts, memory and the digest are
    /// taken: a fixed amount of work, one to two seconds of it on this
    /// host.
    pub check_windows: u64,
}

pub fn profile(name: &str) -> Option<Profile> {
    let p = |policy, faults, checker, migration, check_windows| Profile {
        policy,
        faults,
        checker,
        migration,
        check_windows,
    };
    Some(match name {
        "storm" => p(FilterPolicy::Counter, true, true, true, 6),
        // pinned and broadcast check the same windows of the same trace:
        // the suite compares their hit and miss counts.
        "pinned" => p(FilterPolicy::VsnoopBase, false, false, false, 12),
        "broadcast" => p(FilterPolicy::TokenBroadcast, false, false, false, 12),
        "migrate" => p(FilterPolicy::VsnoopBase, false, false, true, 10),
        _ => return None,
    })
}

/// The migration picker of the storm: two vCPUs of different VMs.
fn picker(cfg: SystemConfig, seed: u64) -> impl FnMut(u64) -> (VcpuId, VcpuId) {
    let mut rng = SmallRng::seed_from_u64(seed);
    move |_| {
        let a = rng.gen_range(0..cfg.n_vms) as u16;
        let mut b = rng.gen_range(0..cfg.n_vms - 1) as u16;
        if b >= a {
            b += 1;
        }
        (
            VcpuId::new(VmId::new(a), rng.gen_range(0..cfg.vcpus_per_vm)),
            VcpuId::new(VmId::new(b), rng.gen_range(0..cfg.vcpus_per_vm)),
        )
    }
}

/// The homogeneous `ocean` trace every simulator workload replays.
pub fn trace(cfg: &SystemConfig, seed: u64) -> Workload {
    Workload::homogeneous(
        try_profile("ocean").expect("the ocean profile is registered"),
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed: seed ^ 0xD15_EA5E,
            ..Default::default()
        },
    )
}

/// A built machine with its trace and (for migrating profiles) the
/// picker, which must live across windows so the storm keeps drawing
/// new pairs.
pub struct Machine {
    pub sim: Simulator,
    pub wl: Workload,
    pick: Box<dyn FnMut(u64) -> (VcpuId, VcpuId)>,
    period: Option<u64>,
}

/// Engine setting of a machine: the program's default (no call), or an
/// explicit `set_engine_workers` argument.
#[derive(Clone, Copy, PartialEq)]
pub enum Engine {
    Default,
    Workers(Option<usize>),
}

impl Machine {
    /// Builds the paper machine for `p` and runs the warm-up.
    pub fn build(p: Profile, seed: u64, engine: Engine) -> Machine {
        let cfg = SystemConfig::paper_default();
        let mut sim = Simulator::new(cfg, p.policy, ContentPolicy::Broadcast);
        if let Engine::Workers(w) = engine {
            sim.set_engine_workers(w);
        }
        if p.faults {
            sim.set_fault_plan(FaultPlan::all(seed));
        }
        if p.checker {
            sim.enable_checker(CheckerConfig::default());
        }
        let mut m = Machine {
            sim,
            wl: trace(&cfg, seed),
            pick: Box::new(picker(cfg, seed ^ 0x51A9)),
            // 0.1 scaled ms.
            period: p.migration.then_some((cfg.cycles_per_ms / 10).max(1)),
        };
        m.run(WARMUP_ROUNDS);
        m
    }

    pub fn run(&mut self, rounds: u64) {
        match self.period {
            Some(period) => {
                self.sim
                    .run_with_migration(&mut self.wl, rounds, period, &mut self.pick)
            }
            None => self.sim.run(&mut self.wl, rounds),
        }
    }
}

pub fn steps_per_window() -> f64 {
    (WINDOW_ROUNDS * SystemConfig::paper_default().n_cores() as u64) as f64
}

/// FNV-1a over the machine's outputs: every counter, the traffic
/// total, and the architectural state.
pub fn digest(sim: &Simulator) -> String {
    let mut h = crate::Fnv::default();
    for (name, v) in sim.stats().counters() {
        h.write(format!("{name}={v}\n").as_bytes());
    }
    h.write(format!("byte_links={}\n", sim.traffic().byte_links()).as_bytes());
    h.write(sim.arch_state().as_bytes());
    h.hex()
}

/// Exact simulated counts over the checked windows.
pub struct Counts {
    pub stats: SimStats,
    pub byte_links: u64,
    pub messages: u64,
}

impl Counts {
    fn take(sim: &Simulator) -> Counts {
        Counts {
            stats: sim.stats().clone(),
            byte_links: sim.traffic().byte_links(),
            messages: sim.traffic().messages(),
        }
    }

    fn since(&self, start: &Counts) -> Counts {
        Counts {
            stats: self.stats.delta_since(&start.stats),
            byte_links: self.byte_links - start.byte_links,
            messages: self.messages - start.messages,
        }
    }

    pub fn steps(&self) -> f64 {
        self.stats.accesses as f64
    }

    pub fn snoops_per_miss(&self) -> f64 {
        self.stats.snoops as f64 / self.stats.l2_misses.max(1) as f64
    }
}

/// The identities that must hold on any seed. Returns the failures.
fn identities(name: &str, windows: u64, c: &Counts, sim: &Simulator) -> Vec<String> {
    let s = &c.stats;
    let mut bad = Vec::new();
    let mut need = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    let want = windows * WINDOW_ROUNDS * 16;
    need(
        s.accesses == want,
        format!("accesses {} != rounds x 16 = {want}", s.accesses),
    );
    need(
        s.l1_hits + s.l2_hits + s.l2_misses == s.accesses,
        "l1_hits + l2_hits + l2_misses != accesses".into(),
    );
    match name {
        "pinned" => need(
            s.snoops == 4 * s.l2_misses,
            format!("pinned snoops {} != 4 x misses {}", s.snoops, s.l2_misses),
        ),
        "broadcast" => need(
            s.snoops == 16 * s.l2_misses,
            format!(
                "broadcast snoops {} != 16 x misses {}",
                s.snoops, s.l2_misses
            ),
        ),
        "storm" => {
            let v = sim.checker().map_or(u64::MAX, |c| c.total_violations());
            need(v == 0, format!("storm checker violations: {v}"));
        }
        _ => {}
    }
    if name != "storm" {
        need(
            s.retries == 0,
            format!("fault-free run retried {} times", s.retries),
        );
    }
    bad
}

/// Set-up, repeated: building inputs and machine plus the warm-up.
/// Returns the last machine and every set-up time (normalised).
fn setup(
    p: Profile,
    seed: u64,
    host: &mut Host,
    tr: &mut Tracer,
    root: u64,
) -> (Machine, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        // Never two machines alive at once: peak memory is one machine's.
        last = None;
        let (wall, norm) = host.timed(|| last = Some(Machine::build(p, seed, Engine::Default)));
        tr.record("setup", root, i as u64, t0, t0 + wall);
        times.push(norm);
    }
    (last.expect("at least one set-up"), times)
}

/// Set-ups per simulator run: they are cheap, and `setup_s` is their
/// median.
const SETUP_REPEATS: usize = 7;

/// Runs one simulator workload and fills `report`.
pub fn run(name: &str, ctx: &Ctx, report: &mut Report) {
    let p = profile(name).expect("a simulator workload");
    let mut tr = Tracer::new(ctx.trace);
    let mut host = Host::new();
    let root = tr.open(&format!("workload:{name}"), 0, 0);
    let (mut m, setups) = setup(p, ctx.seed, &mut host, &mut tr, root);

    let check_windows = if ctx.quick {
        (p.check_windows / 4).max(1)
    } else {
        p.check_windows
    };
    // The traced run spends part of its time on twins and probes.
    let main_share = if ctx.trace { 0.45 } else { 1.0 };
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds * main_share);

    let obs_dir = ctx.out_dir.join(format!("obs-{name}"));
    let start = Counts::take(&m.sim);
    let mut raw = Vec::new(); // wall seconds of windows with the program's switches off
    let mut plain = Vec::new(); // the same, normalised to nominal host speed
    let mut traced = Vec::new(); // normalised seconds, program's switches on
    let mut checked: Option<(Counts, String, f64)> = None;
    let mut windows = 0u64;
    while windows < check_windows || Instant::now() < deadline {
        // The traced run alternates windows with the program's own
        // switches on and off, so drift hits both alike.
        let switches_on = ctx.trace && windows.is_multiple_of(2);
        if switches_on {
            crate::program_switches(Some(obs_dir.clone()));
        }
        let t0 = Instant::now();
        let (wall, norm) = host.timed(|| m.run(WINDOW_ROUNDS));
        if switches_on {
            crate::program_switches(None);
            tr.record("Simulator::run[traced]", root, windows + 1, t0, t0 + wall);
            traced.push(norm);
        } else {
            tr.record("Simulator::run", root, windows + 1, t0, t0 + wall);
            raw.push(wall.as_secs_f64());
            plain.push(norm);
        }
        windows += 1;
        if windows == check_windows {
            let counts = Counts::take(&m.sim).since(&start);
            // Memory after a fixed amount of work, and before the
            // digest builds its multi-megabyte state dump.
            let rss = crate::peak_rss_mib();
            let d = tr.time("digest", root, 0, || digest(&m.sim));
            checked = Some((counts, d, rss));
        }
    }
    let (counts, got_digest, rss_mib) =
        checked.expect("the loop runs at least check_windows windows");

    // Output checks.
    let mut failures = identities(name, check_windows, &counts, &m.sim);
    report.note(format!(
        "digest {name}.{:x} {got_digest} (after {check_windows} windows)",
        ctx.seed
    ));
    if !ctx.quick {
        failures.extend(crate::check_digest(ctx, name, &got_digest));
    }
    let s = &counts.stats;
    report.note(format!(
        "counts accesses={} l1_hits={} l2_hits={} l2_misses={}",
        s.accesses, s.l1_hits, s.l2_hits, s.l2_misses
    ));
    report.attempted = windows;
    report.failed = if failures.is_empty() { 0 } else { windows };
    report.failures = failures;

    let steps = steps_per_window();
    let speeds = |secs: &[f64]| sorted(secs.iter().map(|s| steps / s).collect());
    let raw_sps = speeds(&raw);
    let plain_sps = speeds(&plain);
    let (h1, hmed, h3) = quartiles(&sorted(host.readings.clone()));
    report.note(format!(
        "host speed {hmed:.3} of nominal (q1 {h1:.3}, q3 {h3:.3}, {} readings); raw median {:.0} steps/s over {} windows, spread {:.1} % (normalised {:.1} %)",
        host.readings.len(),
        median(&raw_sps),
        raw_sps.len(),
        spread(&raw_sps) * 100.0,
        spread(&plain_sps) * 100.0
    ));
    if !ctx.trace {
        report.e2e_units(&setups, &plain, steps, rss_mib);
        return;
    }

    // ---- traced run: per-layer metrics ----
    let traced_sps = speeds(&traced);
    let ns_per_step = 1e9 / median(&plain_sps);
    report.layer("host.relative_speed", hmed);
    report.layer("simulator.raw_steps_per_s", median(&raw_sps));
    report.layer("simulator.ns_per_step", ns_per_step);
    report.layer("obs.traced_throughput", median(&traced_sps));
    report.layer(
        "obs.trace_overhead_pct",
        (median(&plain_sps) / median(&traced_sps) - 1.0) * 100.0,
    );
    let n = counts.steps();
    report.layer("simulator.snoops_per_miss", counts.snoops_per_miss());
    report.layer(
        "simulator.byte_links_per_step",
        counts.byte_links as f64 / n,
    );
    report.layer("simulator.l1_hit_share", s.l1_hits as f64 / n);
    report.layer("simulator.l2_hit_share", s.l2_hits as f64 / n);
    report.layer("simulator.miss_share", s.l2_misses as f64 / n);
    report.layer("simulator.retries_per_kstep", s.retries as f64 / n * 1e3);
    report.layer("simulator.msgs_per_step", counts.messages as f64 / n);
    report.layer(
        "simulator.map_updates_per_mstep",
        (s.map_adds + s.map_removes) as f64 / n * 1e6,
    );

    let twin_budget = Duration::from_secs_f64(ctx.seconds * 0.3);
    let mut checker_ns = 0.0;
    let mut fault_ns = 0.0;
    if name == "storm" {
        // Interleaved twins: the same storm without the checker, and
        // without the fault plan. Their ns/step shortfall against the
        // full machine is what checker and fault machinery cost,
        // induced retries included.
        let mut no_checker = Machine::build(
            Profile {
                checker: false,
                ..p
            },
            ctx.seed,
            Engine::Default,
        );
        let mut no_faults =
            Machine::build(Profile { faults: false, ..p }, ctx.seed, Engine::Default);
        let ns = twin_windows(
            &mut [
                ("twin:full", &mut m, false),
                ("twin:no_checker", &mut no_checker, false),
                ("twin:no_faults", &mut no_faults, false),
            ],
            twin_budget,
            &mut host,
            &mut tr,
            root,
        );
        checker_ns = (median(&ns[0]) - median(&ns[1])).max(0.0);
        fault_ns = (median(&ns[0]) - median(&ns[2])).max(0.0);
        let sweeps = sorted(
            (0..20)
                .map(|_| host.timed(|| m.sim.run_checker_sweep()).1 * 1e3)
                .collect(),
        );
        report.layer("checker.sweep_ms", median(&sweeps));
    }
    if name == "migrate" {
        engine_twins(p, ctx, twin_budget, &mut host, &mut tr, root, report);
    }

    let costs = tr.time("probes", root, 0, || {
        probes::simulator_layers(ctx.seed, &mut host, report)
    });
    ledger::fill(report, &costs, &counts, ns_per_step, checker_ns, fault_ns);

    tr.close(root);
    crate::finish_trace(ctx, name, &tr, report);
}

/// Runs the machines round-robin, one window each, for `budget`, so
/// that a slow phase of the host hits all of them alike. The flag
/// turns the program's metrics gate on for that machine's windows.
/// Returns each machine's normalised ns/step per window, ascending.
fn twin_windows(
    machines: &mut [(&str, &mut Machine, bool)],
    budget: Duration,
    host: &mut Host,
    tr: &mut Tracer,
    root: u64,
) -> Vec<Vec<f64>> {
    let deadline = Instant::now() + budget;
    let mut ns: Vec<Vec<f64>> = vec![Vec::new(); machines.len()];
    let mut round = 0u64;
    while round < 3 || Instant::now() < deadline {
        for (i, (name, m, metrics_gate)) in machines.iter_mut().enumerate() {
            vsnoop::obs::metrics::set_enabled(*metrics_gate);
            let t0 = Instant::now();
            let (wall, norm) = host.timed(|| m.run(WINDOW_ROUNDS));
            vsnoop::obs::metrics::set_enabled(false);
            tr.record(name, root, round + 1, t0, t0 + wall);
            ns[i].push(norm / steps_per_window() * 1e9);
        }
        round += 1;
    }
    ns.into_iter().map(sorted).collect()
}

/// The batched engine at host parallelism against the pinned serial
/// loop, on the profile the engine accepts.
fn engine_twins(
    p: Profile,
    ctx: &Ctx,
    budget: Duration,
    host: &mut Host,
    tr: &mut Tracer,
    root: u64,
    report: &mut Report,
) {
    use vsnoop::obs::metrics as m;
    let mut serial = Machine::build(p, ctx.seed, Engine::Workers(Some(1)));
    let mut par = Machine::build(p, ctx.seed, Engine::Workers(None));
    // The phase histograms record only behind the metrics gate.
    let ns = twin_windows(
        &mut [
            ("engine:serial", &mut serial, false),
            ("engine:parallel", &mut par, true),
        ],
        budget,
        host,
        tr,
        root,
    );
    let sps = |ns: &[f64]| sorted(ns.iter().map(|n| 1e9 / n).collect());
    let (s_sps, p_sps) = (sps(&ns[0]), sps(&ns[1]));
    report.layer("engine.serial_steps_per_s", median(&s_sps));
    report.layer("engine.par_steps_per_s", median(&p_sps));
    report.layer("engine.par_spread", spread(&p_sps));
    report.layer("engine.par_over_serial", median(&p_sps) / median(&s_sps));
    let procs = m::ENGINE_UPDATE_PROCS_US.snapshot();
    let caches = m::ENGINE_UPDATE_CACHES_US.snapshot();
    let net = m::ENGINE_UPDATE_NET_US.snapshot();
    report.layer("engine.update_procs_us_p50", procs.quantile(50.0) as f64);
    report.layer("engine.update_caches_us_p50", caches.quantile(50.0) as f64);
    report.layer("engine.update_net_us_p50", net.quantile(50.0) as f64);
    report.layer(
        "engine.shard_imbalance_us_p50",
        m::ENGINE_SHARD_IMBALANCE_US.snapshot().quantile(50.0) as f64,
    );
    // update-procs runs on the main thread alone; the other two phases
    // fan out over the shards.
    let total = procs.mean() + caches.mean() + net.mean();
    report.layer(
        "engine.serial_fraction",
        if total > 0.0 {
            procs.mean() / total
        } else {
            0.0
        },
    );
}
