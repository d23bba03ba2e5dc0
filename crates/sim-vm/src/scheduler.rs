//! A credit-based hypervisor scheduler simulation (Section II-B2 / III-B).
//!
//! Xen's default credit scheduler is a proportional-share scheduler with
//! global load balancing: each vCPU receives credits every accounting
//! period, runs in 30 ms slices, and idle cores *steal* waiting runnable
//! vCPUs from busy cores. The paper measures two policies on real hardware
//! (Fig. 3, Table I):
//!
//! * **no migration** — vCPUs pinned one-to-one (guests) to physical cores;
//! * **full migration** — unrestricted stealing, maximizing utilization.
//!
//! This module reproduces those aggregate behaviours with a discrete-time
//! simulation: vCPUs alternate busy bursts and blocked phases (modelling
//! dynamic thread-level parallelism and I/O), a floating dom0 vCPU injects
//! the perturbation that makes wake-up placement migrate vCPUs even in
//! undercommitted systems, and every migration costs a configurable
//! cache-warmth penalty.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::ids::{VcpuId, VmId};
use crate::vm::VmSpec;

/// Scheduling policy for guest vCPUs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedPolicy {
    /// Guests pinned one-to-one (or evenly, when overcommitted) to cores;
    /// no stealing of guest vCPUs. The paper's *no migration*.
    Pinned,
    /// Unrestricted load balancing. The paper's *full migration*.
    FullMigration,
    /// The paper's proposed middle ground (Section III-B / VIII future
    /// work): each VM may migrate freely, but only within a fixed subset
    /// of `domain_cores` physical cores. This bounds the VM's snoop
    /// domain while still balancing load inside it.
    Restricted {
        /// Size of each VM's allowed core subset.
        domain_cores: usize,
    },
}

/// Stochastic execution behaviour of one VM's vCPUs.
///
/// All times are in scheduler ticks (see [`SchedulerConfig::tick_ms`]).
///
/// Besides per-vCPU busy/blocked bursts, a VM alternates between a
/// *parallel* phase (all vCPUs may run) and a *serial* phase (only vCPU 0
/// may run — an Amdahl section). Serial phases are what make unrestricted
/// migration win in overcommitted systems: the idle sibling cores are
/// stolen by other VMs' runnable vCPUs, while pinning strands them.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadBehavior {
    /// Mean length of a busy burst, in ticks (geometric distribution).
    pub mean_busy_ticks: f64,
    /// Mean length of a blocked phase, in ticks (geometric distribution).
    pub mean_blocked_ticks: f64,
    /// Mean length of a VM-wide parallel phase, in ticks.
    pub mean_parallel_ticks: f64,
    /// Mean length of a VM-wide serial phase, in ticks (0 disables serial
    /// phases entirely).
    pub mean_serial_ticks: f64,
    /// Total CPU work each vCPU must complete, in ticks.
    pub work_ticks: f64,
    /// Extra work added to a vCPU each time it migrates to a different
    /// core, modelling the cold-cache penalty, in ticks.
    pub migration_penalty_ticks: f64,
}

impl WorkloadBehavior {
    /// A fully CPU-bound behaviour: never blocks, no serial sections.
    pub fn cpu_bound(work_ticks: f64, migration_penalty_ticks: f64) -> Self {
        WorkloadBehavior {
            mean_busy_ticks: f64::INFINITY,
            mean_blocked_ticks: 1.0,
            mean_parallel_ticks: f64::INFINITY,
            mean_serial_ticks: 0.0,
            work_ticks,
            migration_penalty_ticks,
        }
    }
}

/// One VM entered into a scheduling run.
#[derive(Clone, Debug)]
pub struct VmWorkload {
    /// The VM and its vCPU count.
    pub spec: VmSpec,
    /// Its execution behaviour.
    pub behavior: WorkloadBehavior,
    /// Background VMs (dom0) never finish and are excluded from makespan
    /// and relocation-period statistics; they are never pinned.
    pub background: bool,
}

/// Configuration of a scheduling run.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Number of physical cores.
    pub n_cores: usize,
    /// Real-time length of one tick in milliseconds (default 0.1 ms).
    pub tick_ms: f64,
    /// Credit accounting period in ticks (Xen: 30 ms).
    pub credit_period_ticks: u64,
    /// Guest scheduling policy.
    pub policy: SchedPolicy,
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Hard tick limit, to bound runaway configurations.
    pub max_ticks: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            n_cores: 8,
            tick_ms: 0.1,
            credit_period_ticks: 300,
            policy: SchedPolicy::FullMigration,
            seed: 0x5eed,
            max_ticks: 40_000_000,
        }
    }
}

/// Aggregate outcome of a scheduling run.
#[derive(Clone, Debug)]
pub struct SchedOutcome {
    /// Tick at which each foreground VM finished all its work.
    pub vm_finish_ticks: Vec<(VmId, u64)>,
    /// Tick at which the last foreground VM finished.
    pub makespan_ticks: u64,
    /// Number of guest vCPU migrations (runs on a core different from the
    /// previous run).
    pub migrations: u64,
    /// Average time between core changes per guest vCPU, in milliseconds
    /// (`None` if no migration happened). This is Table I's metric.
    pub avg_relocation_period_ms: Option<f64>,
    /// Fraction of core·ticks spent running a vCPU, before the makespan.
    pub core_utilization: f64,
    /// Tick length used, for converting back to milliseconds.
    pub tick_ms: f64,
}

impl SchedOutcome {
    /// Makespan in milliseconds.
    pub fn makespan_ms(&self) -> f64 {
        self.makespan_ticks as f64 * self.tick_ms
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Busy,
    Blocked,
}

/// Serial-phase state of one VM. The run keeps one per distinct
/// [`VmId`], in `VmId` order — the order the phase draws are made in.
struct VmPhase {
    id: VmId,
    behavior: WorkloadBehavior,
    serial: bool,
}

struct VcpuState {
    id: VcpuId,
    /// Index of the vCPU's VM in the run's [`VmPhase`] table.
    vm: usize,
    behavior: WorkloadBehavior,
    background: bool,
    pinned_core: Option<usize>,
    /// Under `Restricted`, the half-open core range the vCPU may use.
    allowed: Option<(usize, usize)>,
    remaining_work: f64,
    phase: Phase,
    credits: f64,
    /// Core whose run queue the vCPU currently sits on.
    home: usize,
    /// Core the vCPU last actually ran on.
    last_ran: Option<usize>,
    /// Running on a core (always its `home`) this tick.
    on_core: bool,
    finished_at: Option<u64>,
}

impl VcpuState {
    fn finished(&self) -> bool {
        self.finished_at.is_some()
    }
    /// Runnable, given whether the vCPU's VM is currently in a serial
    /// phase (in which only vCPU 0 may run).
    fn runnable(&self, vm_serial: bool) -> bool {
        !self.finished()
            && self.phase == Phase::Busy
            && (!vm_serial || self.id.index() == 0 || self.background)
    }
}

/// Runs the credit scheduler to completion of all foreground VMs.
///
/// # Panics
///
/// Panics if `config.n_cores` is zero or no foreground VM is supplied.
///
/// # Examples
///
/// ```
/// use sim_vm::{SchedulerConfig, SchedPolicy, VmWorkload, WorkloadBehavior, VmSpec, VmId, run_scheduler};
///
/// let cfg = SchedulerConfig { n_cores: 4, policy: SchedPolicy::Pinned, ..Default::default() };
/// let wl = vec![VmWorkload {
///     spec: VmSpec::new(VmId::new(0), 4, 0),
///     behavior: WorkloadBehavior::cpu_bound(1000.0, 0.0),
///     background: false,
/// }];
/// let out = run_scheduler(&cfg, &wl);
/// // Four CPU-bound vCPUs on four dedicated cores: 1000 ticks of work each.
/// assert_eq!(out.makespan_ticks, 1000);
/// ```
pub fn run_scheduler(config: &SchedulerConfig, workloads: &[VmWorkload]) -> SchedOutcome {
    assert!(config.n_cores > 0, "need at least one core");
    assert!(
        workloads.iter().any(|w| !w.background),
        "need at least one foreground VM"
    );
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // --- Build VM and vCPU states -----------------------------------------
    // One phase slot per distinct VM; a later workload with the same id
    // replaces an earlier one's behaviour.
    let mut vms: Vec<VmPhase> = Vec::with_capacity(workloads.len());
    for wl in workloads {
        match vms.binary_search_by_key(&wl.spec.id(), |p| p.id) {
            Ok(i) => vms[i].behavior = wl.behavior,
            Err(i) => vms.insert(
                i,
                VmPhase {
                    id: wl.spec.id(),
                    behavior: wl.behavior,
                    serial: false,
                },
            ),
        }
    }
    let mut vcpus: Vec<VcpuState> = Vec::new();
    for wl in workloads {
        let vm = vms
            .binary_search_by_key(&wl.spec.id(), |p| p.id)
            .expect("every workload has a phase slot");
        for v in wl.spec.vcpus() {
            vcpus.push(VcpuState {
                id: v,
                vm,
                behavior: wl.behavior,
                background: wl.background,
                pinned_core: None,
                allowed: None,
                remaining_work: wl.behavior.work_ticks,
                phase: Phase::Busy,
                credits: 0.0,
                home: 0,
                last_ran: None,
                on_core: false,
                finished_at: if wl.behavior.work_ticks <= 0.0 && !wl.background {
                    Some(0)
                } else {
                    None
                },
            });
        }
    }
    // Initial placement: spread guest vCPUs across cores round-robin; under
    // `Pinned`, that placement is permanent.
    let mut next_core = 0usize;
    for v in vcpus.iter_mut() {
        if v.background {
            v.home = config.n_cores - 1; // dom0 starts on the last core
            continue;
        }
        v.home = next_core % config.n_cores;
        match config.policy {
            SchedPolicy::Pinned => v.pinned_core = Some(v.home),
            SchedPolicy::Restricted { domain_cores } => {
                let d = domain_cores.clamp(1, config.n_cores);
                // The VM's subset starts where its first vCPU landed,
                // aligned down to a multiple of the domain size.
                let vm_base = (v.id.vm().index() * d) % config.n_cores;
                v.allowed = Some((vm_base, d.min(config.n_cores - vm_base)));
            }
            SchedPolicy::FullMigration => {}
        }
        next_core += 1;
    }

    // --- Main loop ----------------------------------------------------------
    // Every buffer the loop uses is allocated here, once per run.
    let mut running: Vec<Option<usize>> = vec![None; config.n_cores]; // vcpu index per core
    let mut picks: Vec<Option<usize>> = vec![None; config.n_cores];
    let mut woken: Vec<usize> = Vec::with_capacity(vcpus.len());
    let mut idle: Vec<usize> = Vec::with_capacity(config.n_cores);
    let mut waiting: Vec<usize> = Vec::with_capacity(vcpus.len());
    let mut migrations = 0u64;
    let mut busy_core_ticks = 0u64;
    let mut makespan: Option<u64> = None;
    let mut tick = 0u64;
    // Background vCPUs never finish, so the unfinished count is the
    // foreground count still working plus every background vCPU.
    let background = vcpus.iter().filter(|v| v.background).count();
    let mut foreground_left = vcpus
        .iter()
        .filter(|v| !v.background && !v.finished())
        .count();

    while tick < config.max_ticks {
        // Credit refill at every accounting period boundary.
        if tick.is_multiple_of(config.credit_period_ticks) {
            let active = (foreground_left + background).max(1);
            let fair = config.credit_period_ticks as f64 * config.n_cores as f64 / active as f64;
            for v in vcpus.iter_mut().filter(|v| !v.finished()) {
                v.credits = fair;
            }
        }

        // VM-wide parallel/serial phase transitions.
        for vm in vms.iter_mut() {
            let b = vm.behavior;
            if b.mean_serial_ticks <= 0.0 {
                continue;
            }
            if vm.serial {
                if rng.gen::<f64>() < 1.0 / b.mean_serial_ticks {
                    vm.serial = false;
                }
            } else if b.mean_parallel_ticks.is_finite()
                && rng.gen::<f64>() < 1.0 / b.mean_parallel_ticks
            {
                vm.serial = true;
            }
        }

        // Phase transitions (geometric burst lengths).
        woken.clear();
        for (vi, v) in vcpus.iter_mut().enumerate().filter(|(_, v)| !v.finished()) {
            match v.phase {
                Phase::Busy => {
                    if v.behavior.mean_busy_ticks.is_finite()
                        && rng.gen::<f64>() < 1.0 / v.behavior.mean_busy_ticks
                    {
                        v.phase = Phase::Blocked;
                    }
                }
                Phase::Blocked => {
                    if rng.gen::<f64>() < 1.0 / v.behavior.mean_blocked_ticks {
                        v.phase = Phase::Busy;
                        woken.push(vi);
                    }
                }
            }
        }
        // Xen-style wake placement: a waking vCPU whose old core is busy
        // is enqueued on an idle core instead (within its allowed domain).
        // This is the main source of relocations in undercommitted
        // systems (Section III-B).
        for &vi in &woken {
            let v = &vcpus[vi];
            if v.pinned_core.is_some() || running[v.home].is_none() {
                continue; // pinned, or old core free: stay for cache warmth
            }
            let (base, len) = v.allowed.unwrap_or((0, config.n_cores));
            idle.clear();
            idle.extend((base..base + len).filter(|&c| running[c].is_none()));
            if !idle.is_empty() {
                vcpus[vi].home = idle[rng.gen_range(0..idle.len())];
            }
        }

        // Deschedule cores whose current vCPU can no longer run.
        for slot in running.iter_mut() {
            if let Some(vi) = *slot {
                let v = &mut vcpus[vi];
                if !v.runnable(vms[v.vm].serial) {
                    v.on_core = false;
                    *slot = None;
                }
            }
        }

        // Each free core picks the highest-credit runnable vCPU homed on
        // it (the last one on a tie). A vCPU has one home, so one pass
        // over the vCPUs makes every core's pick.
        picks.fill(None);
        for (vi, v) in vcpus.iter().enumerate() {
            if v.on_core || running[v.home].is_some() || !v.runnable(vms[v.vm].serial) {
                continue;
            }
            let best = &mut picks[v.home];
            if best.is_none_or(|b| v.credits.total_cmp(&vcpus[b].credits).is_ge()) {
                *best = Some(vi);
            }
        }
        for (slot, &pick) in running.iter_mut().zip(&picks) {
            if let Some(vi) = pick {
                *slot = Some(vi);
                vcpus[vi].on_core = true;
            }
        }

        // Idle cores steal waiting runnable vCPUs (full-migration policy,
        // restricted policy within the VM's subset, and always for
        // background/dom0 vCPUs), each from the vCPUs still waiting.
        if running.contains(&None) {
            waiting.clear();
            waiting.extend(
                vcpus
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| {
                        !v.on_core
                            && v.pinned_core.is_none()
                            && (config.policy != SchedPolicy::Pinned || v.background)
                            && v.runnable(vms[v.vm].serial)
                    })
                    .map(|(vi, _)| vi),
            );
            for (core, slot) in running.iter_mut().enumerate() {
                if waiting.is_empty() {
                    break;
                }
                if slot.is_some() {
                    continue;
                }
                let mut steal: Option<usize> = None; // position in `waiting`
                for (k, &vi) in waiting.iter().enumerate() {
                    let v = &vcpus[vi];
                    let in_domain = match v.allowed {
                        Some((base, len)) => core >= base && core < base + len,
                        None => true,
                    };
                    if in_domain
                        && steal
                            .is_none_or(|s| v.credits.total_cmp(&vcpus[waiting[s]].credits).is_ge())
                    {
                        steal = Some(k);
                    }
                }
                if let Some(k) = steal {
                    let vi = waiting.remove(k);
                    vcpus[vi].home = core;
                    vcpus[vi].on_core = true;
                    *slot = Some(vi);
                }
            }
        }

        // Execute one tick on every busy core.
        for (core, slot) in running.iter_mut().enumerate() {
            let Some(vi) = *slot else { continue };
            let v = &mut vcpus[vi];
            busy_core_ticks += 1;
            if v.last_ran.is_some_and(|c| c != core) {
                if !v.background {
                    migrations += 1;
                }
                v.remaining_work += v.behavior.migration_penalty_ticks;
            }
            v.last_ran = Some(core);
            v.credits -= 1.0;
            if !v.background {
                v.remaining_work -= 1.0;
                if v.remaining_work <= 0.0 {
                    v.finished_at = Some(tick + 1);
                    v.on_core = false;
                    *slot = None;
                    foreground_left -= 1;
                }
            }
        }

        tick += 1;
        if foreground_left == 0 {
            makespan = Some(tick);
            break;
        }
    }

    let makespan_ticks = makespan.unwrap_or(config.max_ticks);

    // --- Collect per-VM finish times ---------------------------------------
    let mut vm_finish: Vec<(VmId, u64)> = Vec::new();
    for wl in workloads.iter().filter(|w| !w.background) {
        let finish = vcpus
            .iter()
            .filter(|v| v.id.vm() == wl.spec.id())
            .map(|v| v.finished_at.unwrap_or(makespan_ticks))
            .max()
            .unwrap_or(0);
        vm_finish.push((wl.spec.id(), finish));
    }

    // Average relocation period: guest vCPU lifetime divided by migrations.
    let guest_lifetime_ticks: u64 = vcpus
        .iter()
        .filter(|v| !v.background)
        .map(|v| v.finished_at.unwrap_or(makespan_ticks))
        .sum();
    let avg_relocation_period_ms = if migrations > 0 {
        Some(guest_lifetime_ticks as f64 * config.tick_ms / migrations as f64)
    } else {
        None
    };

    SchedOutcome {
        vm_finish_ticks: vm_finish,
        makespan_ticks,
        migrations,
        avg_relocation_period_ms,
        core_utilization: busy_core_ticks as f64
            / (makespan_ticks.max(1) as f64 * config.n_cores as f64),
        tick_ms: config.tick_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guest(vm: u16, vcpus: u16, behavior: WorkloadBehavior) -> VmWorkload {
        VmWorkload {
            spec: VmSpec::new(VmId::new(vm), vcpus, 0),
            behavior,
            background: false,
        }
    }

    fn dom0() -> VmWorkload {
        VmWorkload {
            spec: VmSpec::new(VmId::new(999), 1, 0),
            behavior: WorkloadBehavior {
                mean_busy_ticks: 5.0,
                mean_blocked_ticks: 50.0,
                mean_parallel_ticks: f64::INFINITY,
                mean_serial_ticks: 0.0,
                work_ticks: f64::INFINITY,
                migration_penalty_ticks: 0.0,
            },
            background: true,
        }
    }

    #[test]
    fn dedicated_cores_run_at_full_speed() {
        let cfg = SchedulerConfig {
            n_cores: 4,
            policy: SchedPolicy::Pinned,
            ..Default::default()
        };
        let out = run_scheduler(
            &cfg,
            &[guest(0, 4, WorkloadBehavior::cpu_bound(500.0, 0.0))],
        );
        assert_eq!(out.makespan_ticks, 500);
        assert_eq!(out.migrations, 0);
        assert!(out.avg_relocation_period_ms.is_none());
        assert!((out.core_utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overcommit_pinned_serializes_work() {
        // Two CPU-bound vCPUs pinned to one core take twice as long.
        let cfg = SchedulerConfig {
            n_cores: 1,
            policy: SchedPolicy::Pinned,
            ..Default::default()
        };
        let out = run_scheduler(
            &cfg,
            &[guest(0, 2, WorkloadBehavior::cpu_bound(300.0, 0.0))],
        );
        assert_eq!(out.makespan_ticks, 600);
    }

    #[test]
    fn stealing_beats_pinning_when_overcommitted_and_blocking() {
        // 4 VMs x 2 vCPUs on 4 cores with heavy blocking: stealing keeps
        // cores busy; pinning strands runnable vCPUs behind busy cores.
        let b = WorkloadBehavior {
            mean_busy_ticks: 20.0,
            mean_blocked_ticks: 20.0,
            mean_parallel_ticks: 200.0,
            mean_serial_ticks: 60.0,
            work_ticks: 2_000.0,
            migration_penalty_ticks: 0.5,
        };
        let mk = |policy| {
            let cfg = SchedulerConfig {
                n_cores: 4,
                policy,
                seed: 7,
                ..Default::default()
            };
            let wls: Vec<_> = (0..4).map(|vm| guest(vm, 2, b)).collect();
            run_scheduler(&cfg, &wls).makespan_ticks
        };
        let pinned = mk(SchedPolicy::Pinned);
        let full = mk(SchedPolicy::FullMigration);
        assert!(
            full < pinned,
            "full migration ({full}) should beat pinning ({pinned}) when overcommitted"
        );
    }

    #[test]
    fn pinning_beats_stealing_when_undercommitted_with_penalty() {
        // 4 vCPUs on 8 cores with a large migration penalty and dom0 noise:
        // pinning avoids the cold-cache cost.
        let b = WorkloadBehavior {
            mean_busy_ticks: 30.0,
            mean_blocked_ticks: 10.0,
            mean_parallel_ticks: f64::INFINITY,
            mean_serial_ticks: 0.0,
            work_ticks: 3_000.0,
            migration_penalty_ticks: 12.0,
        };
        let mk = |policy| {
            let cfg = SchedulerConfig {
                n_cores: 8,
                policy,
                seed: 11,
                ..Default::default()
            };
            let wls = vec![guest(0, 4, b), guest(1, 4, b), dom0()];
            run_scheduler(&cfg, &wls).makespan_ticks
        };
        let pinned = mk(SchedPolicy::Pinned);
        let full = mk(SchedPolicy::FullMigration);
        assert!(
            pinned <= full,
            "pinning ({pinned}) should not lose to full migration ({full}) when undercommitted"
        );
    }

    #[test]
    fn full_migration_generates_relocations_with_dom0_noise() {
        let b = WorkloadBehavior {
            mean_busy_ticks: 30.0,
            mean_blocked_ticks: 10.0,
            mean_parallel_ticks: f64::INFINITY,
            mean_serial_ticks: 0.0,
            work_ticks: 3_000.0,
            migration_penalty_ticks: 1.0,
        };
        let cfg = SchedulerConfig {
            n_cores: 8,
            policy: SchedPolicy::FullMigration,
            seed: 3,
            ..Default::default()
        };
        let wls = vec![guest(0, 4, b), guest(1, 4, b), dom0()];
        let out = run_scheduler(&cfg, &wls);
        assert!(
            out.migrations > 0,
            "dom0 perturbation must cause migrations"
        );
        let period = out.avg_relocation_period_ms.unwrap();
        assert!(period > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let b = WorkloadBehavior {
            mean_busy_ticks: 10.0,
            mean_blocked_ticks: 10.0,
            mean_parallel_ticks: 100.0,
            mean_serial_ticks: 30.0,
            work_ticks: 1_000.0,
            migration_penalty_ticks: 1.0,
        };
        let cfg = SchedulerConfig {
            n_cores: 4,
            seed: 99,
            ..Default::default()
        };
        let wls = vec![guest(0, 4, b), guest(1, 4, b)];
        let a = run_scheduler(&cfg, &wls);
        let b2 = run_scheduler(&cfg, &wls);
        assert_eq!(a.makespan_ticks, b2.makespan_ticks);
        assert_eq!(a.migrations, b2.migrations);
    }

    #[test]
    fn per_vm_finish_times_reported() {
        let fast = WorkloadBehavior::cpu_bound(100.0, 0.0);
        let slow = WorkloadBehavior::cpu_bound(400.0, 0.0);
        let cfg = SchedulerConfig {
            n_cores: 8,
            policy: SchedPolicy::Pinned,
            ..Default::default()
        };
        let out = run_scheduler(&cfg, &[guest(0, 2, fast), guest(1, 2, slow)]);
        let finish: std::collections::HashMap<_, _> = out.vm_finish_ticks.iter().copied().collect();
        assert_eq!(finish[&VmId::new(0)], 100);
        assert_eq!(finish[&VmId::new(1)], 400);
        assert_eq!(out.makespan_ticks, 400);
    }

    #[test]
    fn restricted_policy_contains_migrations_to_domains() {
        // 4 VMs x 2 vCPUs on 4 cores, restricted to 2-core subsets:
        // migration happens (unlike pinning) but only inside each subset.
        let b = WorkloadBehavior {
            mean_busy_ticks: 20.0,
            mean_blocked_ticks: 20.0,
            mean_parallel_ticks: 200.0,
            mean_serial_ticks: 60.0,
            work_ticks: 2_000.0,
            migration_penalty_ticks: 0.5,
        };
        let cfg = SchedulerConfig {
            n_cores: 4,
            policy: SchedPolicy::Restricted { domain_cores: 2 },
            seed: 7,
            ..Default::default()
        };
        let wls: Vec<_> = (0..4).map(|vm| guest(vm, 2, b)).collect();
        let out = run_scheduler(&cfg, &wls);
        assert!(out.migrations > 0, "restricted stealing must still migrate");

        // And, averaged over seeds, it should recover most of full
        // migration's throughput advantage over pinning.
        let mk = |policy, seed| {
            let cfg = SchedulerConfig {
                n_cores: 4,
                policy,
                seed,
                ..Default::default()
            };
            run_scheduler(&cfg, &wls).makespan_ticks
        };
        let avg = |policy| -> f64 { (0..5).map(|s| mk(policy, 7 + s) as f64).sum::<f64>() / 5.0 };
        let pinned = avg(SchedPolicy::Pinned);
        let restricted = avg(SchedPolicy::Restricted { domain_cores: 2 });
        assert!(
            restricted < pinned * 1.02,
            "restricted ({restricted:.0}) should be at least competitive with \
             pinning ({pinned:.0}) when overcommitted"
        );
    }

    #[test]
    #[should_panic(expected = "foreground")]
    fn background_only_rejected() {
        let cfg = SchedulerConfig::default();
        let _ = run_scheduler(&cfg, &[dom0()]);
    }
}
