//! Frozen outcomes of the access generator and the simulator.
//!
//! Four grids are folded into one FNV-1a hash each, and each hash is
//! compared with a constant captured before the step's hot path was
//! rewritten. The first two predate dense burst slots in `Workload`,
//! table-driven mesh hops in `Network`, the narrowed `BlockView` probe and
//! the single L2 lookup in `Simulator::step`; the third predates the paged
//! token ledger and sharing directory, and classification without a TLB;
//! the fourth was captured while a second, frozen transaction path still
//! shipped, and both paths gave it. What they pin beyond the executable
//! specification (`tests/spec_refinement.rs`) is RegionScout, fault
//! injection, the checker, traffic and timing:
//!
//! * every `next_access` stream of every registered profile, with and
//!   without host activity and content sharing, at two seeds, with all
//!   vCPUs of all VMs interleaved round by round;
//! * every counter, the per-core stall cycles, the traffic per message
//!   kind, the removal log and the architectural state of short runs:
//!   pinned vsnoop-base, pinned TokenB, and a three-lane migrating cell
//!   at 0.1 ms (vsnoop-base primary, counter and counter-threshold as
//!   extra lanes), each on the paper machine and the small test machine;
//! * the same fields for content-sharing runs with host activity, under
//!   the friend-VM and memory-direct content policies, where stores to
//!   content-shared pages re-register pages mid-run (copy-on-write) and
//!   misses classify RO- and RW-shared pages;
//! * every counter, the stall cycles, the traffic, the removal log, the
//!   checker and fault counters and the architectural state of every
//!   filter policy (RegionScout included) under every content policy,
//!   pinned, migrating, migrating with every fault class armed, and
//!   migrating with the invariant checker on.
//!
//! Any change that moves one RNG draw, one hop, one snoop, one stall
//! cycle or one removal fails here, so the hot path can be rewritten
//! without keeping the old one around as an oracle.
//!
//! Runs in ~1 s under `cargo test` (opt-level 1) on a 2-CPU host; the
//! content-sharing grid and the policy grid take ~0.4 s each.

use sim_net::{MessageKind, TrafficStats};
use sim_vm::{Agent, VcpuId, VmId};
use vsnoop::experiments::{cross_vm_picker, migration_policies};
use vsnoop::{
    CheckerConfig, ContentPolicy, FaultPlan, FilterPolicy, RemovalEvent, SimStats, Simulator,
    SystemConfig,
};
use workloads::{profile, AccessStream, AppProfile, Workload, WorkloadConfig, PROFILES};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, s: &[u8]) {
        self.word(s.len() as u64);
        for &b in s {
            self.word(u64::from(b));
        }
    }

    fn agent(&mut self, a: Agent) {
        match a {
            Agent::Guest(v) => {
                self.word(0);
                self.word(v.vm().index() as u64);
                self.word(v.index() as u64);
            }
            Agent::Dom0 => self.word(1),
            Agent::Hypervisor => self.word(2),
        }
    }

    fn stats(&mut self, s: &SimStats) {
        for (name, v) in s.counters() {
            self.bytes(name.as_bytes());
            self.word(v);
        }
        self.word(s.stall_cycles.len() as u64);
        for &c in &s.stall_cycles {
            self.word(c);
        }
    }

    fn traffic(&mut self, t: &TrafficStats) {
        self.word(t.byte_links());
        for kind in MessageKind::ALL {
            self.word(t.byte_links_of(kind));
            self.word(t.messages_of(kind));
        }
    }

    fn removals(&mut self, log: &[RemovalEvent]) {
        self.word(log.len() as u64);
        for e in log {
            self.word(e.cycle);
            self.word(e.core as u64);
            self.word(e.vm as u64);
            self.word(e.period.map_or(u64::MAX, |p| p));
        }
    }

    fn sim(&mut self, sim: &Simulator) {
        self.word(sim.lane_count() as u64);
        for lane in 0..sim.lane_count() {
            self.stats(&sim.lane_stats(lane));
            self.traffic(sim.lane_traffic(lane));
            self.removals(sim.lane_removal_log(lane));
        }
        self.bytes(sim.arch_state().as_bytes());
    }
}

/// Hash (a): the access generator alone, over every profile.
#[test]
fn access_streams_are_frozen() {
    let mut h = Fnv::new();
    let (n_vms, vcpus_per_vm) = (4u16, 4u16);
    for p in PROFILES {
        for (host_activity, content_sharing) in
            [(false, false), (true, false), (false, true), (true, true)]
        {
            for seed in [5, 0xA11CE] {
                let cfg = WorkloadConfig {
                    vcpus_per_vm,
                    seed,
                    host_activity,
                    content_sharing,
                };
                let mut wl = Workload::homogeneous(p, n_vms.into(), cfg);
                for _ in 0..150 {
                    for vm in 0..n_vms {
                        for i in 0..vcpus_per_vm {
                            let a = wl.next_access(VcpuId::new(VmId::new(vm), i));
                            h.agent(a.agent);
                            h.word(a.addr);
                            h.word(u64::from(a.write));
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        format!("{:016x}", h.0),
        "5925161c369a96a6",
        "an access stream changed"
    );
}

fn workload(app: &str, cfg: &SystemConfig) -> Workload {
    Workload::homogeneous(
        profile(app).unwrap(),
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed: 0xF20,
            ..Default::default()
        },
    )
}

/// Warms `app` pinned, adds `policies[1..]` as filter lanes, and runs
/// `rounds` rounds with a cross-VM swap every 0.1 ms.
fn migrating(
    cfg: SystemConfig,
    app: &str,
    warm: u64,
    rounds: u64,
    policies: &[FilterPolicy],
) -> Simulator {
    let mut sim = Simulator::new(cfg, policies[0], ContentPolicy::Broadcast);
    let mut wl = workload(app, &cfg);
    sim.run(&mut wl, warm);
    sim.add_filter_lanes(&policies[1..]).unwrap();
    sim.reset_measurement();
    let period_cycles = cfg.cycles_per_ms / 10;
    sim.run_with_migration(&mut wl, rounds, period_cycles, cross_vm_picker(cfg, 0x51A9));
    sim
}

/// Hash (b): short simulations, pinned under two policies and migrating
/// with filter lanes, on the paper machine, the small test machine, and
/// the small machine with one vCPU per VM (where a swap takes a VM off a
/// core entirely, so the counter policies remove cores).
///
/// The migrating cells are the Figs. 7-8 cell (vsnoop-base primary,
/// counter and counter-threshold as extra lanes) and counter primary
/// with counter-threshold as its only extra lane. In the second, the
/// extra lane's first attempt skips cores counter-threshold removed
/// while they still held lines, so the lane probe must widen to find
/// those holders.
#[test]
fn simulation_outcomes_are_frozen() {
    let mut h = Fnv::new();
    let (mut removals, mut threshold_retries) = (0, 0);
    let machines = [
        (SystemConfig::paper_default(), 2_000, 20_000),
        (SystemConfig::small_test(), 1_500, 12_000),
        (
            SystemConfig {
                n_vms: 4,
                vcpus_per_vm: 1,
                ..SystemConfig::small_test()
            },
            1_500,
            12_000,
        ),
    ];
    for (cfg, warm, rounds) in machines {
        for app in ["fft", "canneal"] {
            for policy in [FilterPolicy::VsnoopBase, FilterPolicy::TokenBroadcast] {
                let mut sim = Simulator::new(cfg, policy, ContentPolicy::Broadcast);
                let mut wl = workload(app, &cfg);
                sim.run(&mut wl, warm);
                sim.reset_measurement();
                sim.run(&mut wl, rounds);
                h.sim(&sim);
            }

            let sim = migrating(cfg, app, warm, rounds, &migration_policies());
            removals += sim.lane_removal_log(1).len();
            h.sim(&sim);

            let pair = [FilterPolicy::Counter, FilterPolicy::COUNTER_THRESHOLD_10];
            let sim = migrating(cfg, app, warm, rounds, &pair);
            threshold_retries += sim.lane_stats(1).retries;
            h.sim(&sim);
        }
    }
    // Not vacuous: the counter lane removed cores, and counter-threshold
    // removed some that still held lines, so its filtered attempts failed.
    assert!(removals > 0 && threshold_retries > 0);
    assert_eq!(
        format!("{:016x}", h.0),
        "6a619c00575e8535",
        "a simulation outcome changed"
    );
}

/// `app` with stores to its content pool, so copy-on-write breaks sharing
/// during the run (the calibrated profiles never store there).
fn storing_to_content(app: &str) -> &'static AppProfile {
    let mut p = *profile(app).unwrap();
    p.trace.content_write_frac = 0.01;
    Box::leak(Box::new(p))
}

/// Hash (c): pinned vsnoop-base runs with content sharing and host
/// activity on, under the friend-VM and memory-direct content policies,
/// on the paper machine and the small test machine.
#[test]
fn content_sharing_outcomes_are_frozen() {
    let mut h = Fnv::new();
    let (mut cow, mut ro_misses, mut rw_misses) = (0, 0, 0);
    let machines = [
        (SystemConfig::paper_default(), 2_000, 20_000),
        (SystemConfig::small_test(), 1_500, 12_000),
    ];
    for (cfg, warm, rounds) in machines {
        for app in ["fft", "canneal"] {
            for content_policy in [ContentPolicy::FriendVm, ContentPolicy::MemoryDirect] {
                let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, content_policy);
                let mut wl = Workload::homogeneous(
                    storing_to_content(app),
                    cfg.n_vms,
                    WorkloadConfig {
                        vcpus_per_vm: cfg.vcpus_per_vm,
                        seed: 0xF20,
                        host_activity: true,
                        content_sharing: true,
                    },
                );
                sim.run(&mut wl, warm);
                sim.reset_measurement();
                let cow_before = wl.content().cow_events();
                sim.run(&mut wl, rounds);
                cow += wl.content().cow_events() - cow_before;
                let stats = sim.lane_stats(0);
                ro_misses += stats.misses_ro_shared;
                rw_misses += stats.misses_rw_shared;
                h.sim(&sim);
            }
        }
    }
    // Not vacuous: pages were re-registered inside the measured window,
    // and misses saw both shared types.
    assert!(cow > 0 && ro_misses > 0 && rw_misses > 0);
    assert_eq!(
        format!("{:016x}", h.0),
        "de8aab525ae37162",
        "a content-sharing outcome changed"
    );
}

/// How a policy-grid cell runs after its pinned warm-up.
#[derive(Clone, Copy)]
enum Mode {
    Pinned,
    Migrating,
    FaultsArmed,
    CheckerOn,
}

/// Every fault class, at rates and an audit period that fire several
/// times within one short grid cell.
fn grid_faults() -> FaultPlan {
    FaultPlan {
        corrupt_map_p: 0.01,
        map_sync_delay_cycles: 100,
        spurious_bounce_p: 0.01,
        audit_period_cycles: 1_000,
        ..FaultPlan::all(0xFA17)
    }
}

/// Hash (d): one short run per filter policy x content policy x mode on
/// the small test machine, with two VMs of two vCPUs and with four
/// single-vCPU VMs, with host activity,
/// content sharing and copy-on-write stores on, so every destination
/// rule, the retry ladder, the degraded fallback and the audit run.
#[test]
fn policy_grid_outcomes_are_frozen() {
    let machines = [
        SystemConfig::small_test(),
        SystemConfig {
            n_vms: 4,
            vcpus_per_vm: 1,
            ..SystemConfig::small_test()
        },
    ];
    let policies = [
        FilterPolicy::TokenBroadcast,
        FilterPolicy::VsnoopBase,
        FilterPolicy::Counter,
        FilterPolicy::COUNTER_THRESHOLD_10,
        FilterPolicy::REGION_SCOUT_4K,
    ];
    let modes = [
        Mode::Pinned,
        Mode::Migrating,
        Mode::FaultsArmed,
        Mode::CheckerOn,
    ];
    let mut h = Fnv::new();
    let (mut removals, mut retries, mut faults, mut checks) = (0, 0, 0, 0);
    for (cfg, policy) in machines.iter().flat_map(|&m| policies.map(|p| (m, p))) {
        for content_policy in ContentPolicy::ALL {
            for mode in modes {
                let mut sim = Simulator::new(cfg, policy, content_policy);
                let mut wl = Workload::homogeneous(
                    storing_to_content("canneal"),
                    cfg.n_vms,
                    WorkloadConfig {
                        vcpus_per_vm: cfg.vcpus_per_vm,
                        seed: 0xF20,
                        host_activity: true,
                        content_sharing: true,
                    },
                );
                match mode {
                    Mode::FaultsArmed => sim.set_fault_plan(grid_faults()),
                    Mode::CheckerOn => sim.enable_checker(CheckerConfig {
                        sweep_every: 500,
                        ..CheckerConfig::default()
                    }),
                    Mode::Pinned | Mode::Migrating => {}
                }
                sim.run(&mut wl, 400);
                sim.reset_measurement();
                match mode {
                    Mode::Pinned => sim.run(&mut wl, 1_500),
                    _ => sim.run_with_migration(
                        &mut wl,
                        1_500,
                        cfg.cycles_per_ms / 10,
                        cross_vm_picker(cfg, 0x51A9),
                    ),
                }
                h.sim(&sim);
                h.word(sim.cycle());
                h.word(sim.diagnostics_total());
                let injected = sim.fault_injections().copied().unwrap_or_default();
                h.word(injected.maps_corrupted());
                h.word(injected.spurious_bounces);
                h.word(injected.delayed_syncs);
                let (drops, delays) = sim
                    .link_faults()
                    .map_or((0, 0), |l| (l.drops(), l.delays()));
                h.word(drops);
                h.word(delays);
                if let Some(ch) = sim.checker() {
                    h.word(ch.total_violations());
                    h.word(ch.block_checks());
                    h.word(ch.sweeps());
                    h.word(ch.map_checks());
                    checks += ch.block_checks();
                }
                let stats = sim.stats();
                removals += stats.map_removes;
                retries += stats.retries;
                faults += injected.maps_corrupted() + injected.spurious_bounces + drops;
            }
        }
    }
    // Not vacuous: counter policies removed cores, some attempts were
    // retried, faults fired and the checker checked blocks.
    assert!(removals > 0 && retries > 0 && faults > 0 && checks > 0);
    assert_eq!(
        format!("{:016x}", h.0),
        "de93bc4377c9952a",
        "a policy-grid outcome changed"
    );
}
