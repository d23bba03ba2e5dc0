//! Refinement: the simulator computes what the executable specification
//! (`crates/spec`) computes.
//!
//! Each cell records one trace, then drives a [`Simulator`] and a
//! `vsnoop_spec::Machine` with it round by round, making the same vCPU
//! swaps at the same rounds. After every round it requires:
//!
//! * the same architectural state: every L1 and L2 line's tokens, owner
//!   token, dirty bit and tag, and the memory-side token ledger;
//! * the same vCPU map for every VM;
//! * the same number of snoops in the round;
//! * the same snoop destinations for the round's last transaction attempt
//!   (read off the flight recorder, so tracing is on).
//!
//! The grid is {TokenB, vsnoop-base, counter, counter-threshold-10} x
//! every content policy x {pinned, migrating} on the small test machine
//! and on four single-vCPU VMs, at two seeds, with host activity and
//! content sharing on. RegionScout, fault injection and the checker are
//! outside the specification, as are traffic and timing;
//! `tests/simulator_frozen.rs` pins those.

use sim_mem::{BlockAddr, LineTag, BLOCK_BYTES, PAGE_BYTES};
use sim_vm::{Agent, SharingDirectory, SharingType, VcpuId, VmId};
use vsnoop::experiments::cross_vm_picker;
use vsnoop::{ContentPolicy, FilterPolicy, Simulator, SystemConfig, SystemWorkload};
use vsnoop_spec as spec;
use workloads::{
    profile, AccessStream, AppProfile, TraceAccess, TraceRecorder, TraceReplayer, Workload,
    WorkloadConfig,
};

/// Rounds per cell: enough for L2 sets to fill and evict.
const ROUNDS: u64 = 120;
/// A migrating cell swaps two vCPUs of different VMs this often.
const SWAP_EVERY: u64 = 15;

fn machines() -> [SystemConfig; 2] {
    [
        SystemConfig::small_test(),
        SystemConfig {
            n_vms: 4,
            vcpus_per_vm: 1,
            ..SystemConfig::small_test()
        },
    ]
}

fn spec_policy(policy: FilterPolicy) -> spec::Policy {
    match policy {
        FilterPolicy::TokenBroadcast => spec::Policy::Broadcast,
        FilterPolicy::VsnoopBase => spec::Policy::Base,
        FilterPolicy::Counter => spec::Policy::Counter { threshold: 1 },
        FilterPolicy::CounterThreshold { threshold } => spec::Policy::Counter {
            threshold: threshold.max(1) as usize,
        },
        FilterPolicy::RegionScout { .. } => unreachable!("outside the specification"),
    }
}

fn spec_content(content: ContentPolicy) -> spec::Content {
    match content {
        ContentPolicy::Broadcast => spec::Content::Broadcast,
        ContentPolicy::MemoryDirect => spec::Content::MemoryDirect,
        ContentPolicy::IntraVm => spec::Content::IntraVm,
        ContentPolicy::FriendVm => spec::Content::FriendVm,
    }
}

fn vcpu_id(v: spec::Vcpu) -> VcpuId {
    VcpuId::new(VmId::new(v.vm as u16), v.index as u16)
}

fn spec_vcpu(v: VcpuId) -> spec::Vcpu {
    spec::Vcpu {
        vm: v.vm().index(),
        index: v.index(),
    }
}

/// The specification's state in the text of [`Simulator::arch_state`].
fn render(m: &spec::Machine, cores: usize) -> String {
    fn dump(out: &mut String, label: &str, cache: &spec::Cache) {
        let mut lines: Vec<_> = cache.lines().collect();
        lines.sort_unstable_by_key(|l| l.block);
        for l in lines {
            let tag = match l.tag {
                spec::Tag::Vm(vm) => LineTag::Vm(VmId::new(vm as u16)),
                spec::Tag::Host => LineTag::Host,
            };
            out.push_str(&format!(
                "{label} {:?} t={} o={} d={} {tag:?}\n",
                BlockAddr::new(l.block),
                l.tokens,
                l.owner,
                l.dirty
            ));
        }
    }
    let mut out = String::new();
    for core in 0..cores {
        dump(&mut out, &format!("core{core} L1"), m.l1(core));
        dump(&mut out, &format!("core{core} L2"), m.tokens().cache(core));
    }
    for (block, tokens, owner) in m.tokens().memory() {
        out.push_str(&format!(
            "mem {:?} t={tokens} o={owner}\n",
            BlockAddr::new(block)
        ));
    }
    out
}

fn mask(cores: impl IntoIterator<Item = usize>) -> u64 {
    cores.into_iter().fold(0, |m, c| m | 1 << c)
}

/// A recorded trace with its page directory and friend VMs, resolved
/// once: the simulator asks for friends on every `run` call, and a cell
/// runs one round per call.
struct Replay<'a> {
    accesses: TraceReplayer<'a>,
    directory: &'a SharingDirectory,
    friends: Vec<Option<VmId>>,
}

impl AccessStream for Replay<'_> {
    fn next_access(&mut self, vcpu: VcpuId) -> TraceAccess {
        self.accesses.next_access(vcpu)
    }
}

impl SystemWorkload for Replay<'_> {
    fn directory(&self) -> &SharingDirectory {
        self.directory
    }
    fn friend_of(&self, vm: VmId) -> Option<VmId> {
        self.friends[vm.index()]
    }
}

/// canneal without its temporal locality, with more VM-shared, content
/// and host accesses: the small machine's L2s fill and evict within a
/// cell, and every destination rule runs often.
fn churning() -> &'static AppProfile {
    let mut p = *profile("canneal").unwrap();
    p.trace.reuse_burst = 2;
    p.trace.private_pages = 4;
    p.trace.vm_shared_frac = 0.2;
    p.trace.content_frac = 0.15;
    p.trace.hyp_frac = 0.04;
    p.trace.dom0_frac = 0.04;
    Box::leak(Box::new(p))
}

/// Counts that show a cell exercised what it claims to.
#[derive(Default)]
struct Seen {
    removals: u64,
    writebacks: u64,
    content_misses: u64,
    host_misses: u64,
}

/// Runs one cell and checks the simulator against the specification
/// after every round.
fn refine(
    cfg: SystemConfig,
    policy: FilterPolicy,
    content: ContentPolicy,
    migrating: bool,
    seed: u64,
    seen: &mut Seen,
) {
    let cell = format!(
        "{policy} / {content:?} / migrating={migrating} / seed {seed:#x} / {} VMs",
        cfg.n_vms
    );
    let mut rec = TraceRecorder::new(Workload::homogeneous(
        churning(),
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed,
            host_activity: true,
            content_sharing: true,
        },
    ));
    for _ in 0..ROUNDS {
        for vm in 0..cfg.n_vms {
            for i in 0..cfg.vcpus_per_vm {
                rec.next_access(VcpuId::new(VmId::new(vm as u16), i));
            }
        }
    }
    let (trace, wl) = rec.finish();
    let dir = wl.directory();
    let friends: Vec<_> = (0..cfg.n_vms)
        .map(|vm| wl.content().friend_of(VmId::new(vm as u16)))
        .collect();

    let mut sim = Simulator::new(cfg, policy, content);
    let mut replay = Replay {
        accesses: trace.replay(),
        directory: dir,
        friends: friends.clone(),
    };
    let shape = spec::Shape {
        cores: cfg.n_cores(),
        vms: cfg.n_vms,
        vcpus_per_vm: usize::from(cfg.vcpus_per_vm),
        l1: ((cfg.l1_bytes / BLOCK_BYTES) as usize, cfg.l1_ways),
        l2: ((cfg.l2_bytes / BLOCK_BYTES) as usize, cfg.l2_ways),
    };
    let friends = friends.iter().map(|f| f.map(VmId::index)).collect();
    let mut model = spec::Machine::new(shape, spec_policy(policy), spec_content(content), friends);
    let mut stream = trace.replay();
    let mut pick = cross_vm_picker(cfg, seed);
    vsnoop::obs::flight::clear_ring();

    for round in 1..=ROUNDS {
        if migrating && round % SWAP_EVERY == 0 {
            let (a, b) = pick(round);
            sim.swap_vcpus(a, b).unwrap();
            model.apply(spec::Event::Swap(spec_vcpu(a), spec_vcpu(b)));
        }
        let (snoops, model_snoops) = (sim.stats().snoops, model.snoops);
        sim.run(&mut replay, 1);
        for core in 0..cfg.n_cores() {
            let vcpu = model.vcpu_on(core).expect("every core runs a vCPU");
            let a = stream.next_access(vcpu_id(vcpu));
            let page = match dir.sharing(a.addr / PAGE_BYTES) {
                SharingType::VmPrivate => spec::Page::Private,
                SharingType::RwShared => spec::Page::RwShared,
                SharingType::RoShared => spec::Page::ContentShared,
            };
            let agent = match a.agent {
                Agent::Guest(v) => spec::Agent::Guest(v.vm().index()),
                Agent::Dom0 | Agent::Hypervisor => spec::Agent::Host,
            };
            model.apply(spec::Event::Access {
                core,
                agent,
                block: a.addr / BLOCK_BYTES,
                write: a.write,
                page,
            });
        }

        let state = sim.arch_state();
        if state != render(&model, cfg.n_cores()) {
            let expected = render(&model, cfg.n_cores());
            let first = state.lines().zip(expected.lines()).find(|(s, e)| s != e);
            panic!("{cell}: architectural state differs at round {round}; first differing line (simulator, spec): {first:?}");
        }
        for vm in 0..cfg.n_vms {
            assert_eq!(
                sim.vcpu_map(VmId::new(vm as u16)).mask(),
                mask(model.map(vm)),
                "{cell}: VM {vm}'s map differs at round {round}"
            );
        }
        assert_eq!(
            sim.stats().snoops - snoops,
            model.snoops - model_snoops,
            "{cell}: snoops differ at round {round}"
        );
        let last = vsnoop::obs::flight::last_event().map(|e| e.dest_mask);
        let model_last = (model.snoops > 0).then(|| mask(model.last_dests.iter().copied()));
        assert_eq!(
            last, model_last,
            "{cell}: last destinations differ at round {round}"
        );
    }
    let stats = sim.stats();
    seen.removals += stats.map_removes;
    seen.writebacks += stats.writebacks;
    seen.content_misses += stats.misses_ro_shared;
    seen.host_misses += stats.misses_dom0 + stats.misses_hyp;
}

/// The whole grid under one filter policy.
fn refine_policy(policy: FilterPolicy) -> Seen {
    vsnoop::obs::set_trace_dir(Some(std::env::temp_dir().join("vsnoop-spec-refinement")));
    let mut seen = Seen::default();
    for cfg in machines() {
        for content in ContentPolicy::ALL {
            for migrating in [false, true] {
                for seed in [0x5EED, 0xF00D] {
                    refine(cfg, policy, content, migrating, seed, &mut seen);
                }
            }
        }
    }
    assert!(seen.writebacks > 0 && seen.content_misses > 0 && seen.host_misses > 0);
    seen
}

#[test]
fn token_broadcast_refines_the_spec() {
    refine_policy(FilterPolicy::TokenBroadcast);
}

#[test]
fn vsnoop_base_refines_the_spec() {
    refine_policy(FilterPolicy::VsnoopBase);
}

/// Removals at residence zero need a longer absence than a cell lasts,
/// so these cells check that no core leaves a map early.
#[test]
fn counter_refines_the_spec() {
    refine_policy(FilterPolicy::Counter);
}

#[test]
fn counter_threshold_refines_the_spec() {
    assert!(refine_policy(FilterPolicy::COUNTER_THRESHOLD_10).removals > 0);
}
