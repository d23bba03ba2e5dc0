//! Frozen outcomes of the credit-scheduler model (`sim_vm::run_scheduler`).
//!
//! Every field of every `SchedOutcome` over a grid of configurations is
//! folded into one FNV-1a hash per grid, and the hash is compared with a
//! constant captured from the scheduler's original `BTreeMap`-per-tick
//! loop. Any change to the tick loop that moves a single draw of the RNG,
//! a tie-break, a finish tick or a float bit fails here, so the loop can
//! be rewritten for speed without keeping the old one around as an
//! oracle. Fig. 3, Table I and `ablation_sched` are built from exactly
//! these outcomes.
//!
//! Runs in ~2 s under `cargo test` (opt-level 1) on a 2-CPU host.

use sim_vm::{
    run_scheduler, SchedOutcome, SchedPolicy, SchedulerConfig, VmId, VmSpec, VmWorkload,
    WorkloadBehavior,
};
use workloads::{parsec_apps, sched_vms};

const POLICIES: [SchedPolicy; 3] = [
    SchedPolicy::Pinned,
    SchedPolicy::FullMigration,
    SchedPolicy::Restricted { domain_cores: 4 },
];

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

    fn outcome(&mut self, out: &SchedOutcome) {
        self.word(out.vm_finish_ticks.len() as u64);
        for &(vm, tick) in &out.vm_finish_ticks {
            self.word(vm.index() as u64);
            self.word(tick);
        }
        self.word(out.makespan_ticks);
        self.word(out.migrations);
        match out.avg_relocation_period_ms {
            Some(ms) => {
                self.word(1);
                self.word(ms.to_bits());
            }
            None => self.word(0),
        }
        self.word(out.core_utilization.to_bits());
        self.word(out.tick_ms.to_bits());
    }
}

fn config(policy: SchedPolicy, seed: u64) -> SchedulerConfig {
    SchedulerConfig {
        n_cores: 8,
        tick_ms: 0.1,
        policy,
        seed,
        ..Default::default()
    }
}

/// The Fig. 3 / Table I grid: every PARSEC app, under- and
/// overcommitted, under each policy, at two seeds.
#[test]
fn parsec_grid_outcomes_are_frozen() {
    let mut h = Fnv::new();
    for app in parsec_apps() {
        for n_vms in [2, 4] {
            let vms = sched_vms(app, n_vms, 4, 0.1);
            for policy in POLICIES {
                for seed in [3, 11] {
                    h.outcome(&run_scheduler(&config(policy, seed), &vms));
                }
            }
        }
    }
    assert_eq!(
        format!("{:016x}", h.0),
        "e9e5bea3f900cd0f",
        "a scheduler outcome changed"
    );
}

fn vm(id: u16, vcpus: u16, behavior: WorkloadBehavior, background: bool) -> VmWorkload {
    VmWorkload {
        spec: VmSpec::new(VmId::new(id), vcpus, 0),
        behavior,
        background,
    }
}

fn bursty(work_ticks: f64) -> WorkloadBehavior {
    WorkloadBehavior {
        mean_busy_ticks: 12.0,
        mean_blocked_ticks: 9.0,
        mean_parallel_ticks: 80.0,
        mean_serial_ticks: 25.0,
        work_ticks,
        migration_penalty_ticks: 0.75,
    }
}

fn noise() -> WorkloadBehavior {
    WorkloadBehavior {
        mean_busy_ticks: 3.0,
        mean_blocked_ticks: 20.0,
        mean_parallel_ticks: f64::INFINITY,
        mean_serial_ticks: 0.0,
        work_ticks: f64::INFINITY,
        migration_penalty_ticks: 0.0,
    }
}

/// Shapes the PARSEC grid never produces: VMs listed out of `VmId`
/// order (serial-phase draws follow `VmId` order), a `VmId` shared by
/// two workloads, a VM with no work, a run cut off by `max_ticks`, odd
/// core counts and clamped or wrapping restricted domains.
#[test]
fn edge_case_outcomes_are_frozen() {
    let cases: Vec<(usize, u64, Vec<VmWorkload>)> = vec![
        (
            4,
            u64::MAX,
            vec![
                vm(2, 3, bursty(600.0), false),
                vm(0, 2, bursty(400.0), false),
                vm(9, 1, noise(), true),
                vm(1, 1, WorkloadBehavior::cpu_bound(500.0, 2.0), false),
            ],
        ),
        (
            3,
            u64::MAX,
            vec![
                vm(0, 2, bursty(300.0), false),
                vm(0, 2, WorkloadBehavior::cpu_bound(350.0, 1.0), false),
                vm(5, 1, noise(), true),
            ],
        ),
        (
            5,
            u64::MAX,
            vec![
                vm(0, 4, WorkloadBehavior::cpu_bound(0.0, 0.0), false),
                vm(1, 3, bursty(450.0), false),
                vm(3, 1, noise(), true),
                vm(2, 2, bursty(200.0), false),
            ],
        ),
        (
            2,
            700,
            vec![vm(0, 3, bursty(5_000.0), false), vm(1, 1, noise(), true)],
        ),
        (
            1,
            u64::MAX,
            vec![vm(0, 2, WorkloadBehavior::cpu_bound(0.0, 0.0), false)],
        ),
        (
            7,
            u64::MAX,
            (0..5)
                .map(|i| vm(i, 2, bursty(250.0 + 40.0 * f64::from(i)), false))
                .chain([vm(5, 1, noise(), true), vm(6, 1, noise(), true)])
                .collect(),
        ),
    ];
    let policies = [
        SchedPolicy::Pinned,
        SchedPolicy::FullMigration,
        SchedPolicy::Restricted { domain_cores: 0 },
        SchedPolicy::Restricted { domain_cores: 2 },
        SchedPolicy::Restricted { domain_cores: 3 },
    ];
    let mut h = Fnv::new();
    for (n_cores, max_ticks, vms) in &cases {
        for policy in policies {
            for seed in [1, 2] {
                let cfg = SchedulerConfig {
                    n_cores: *n_cores,
                    tick_ms: 0.25,
                    credit_period_ticks: 40,
                    policy,
                    seed,
                    max_ticks: *max_ticks,
                };
                h.outcome(&run_scheduler(&cfg, vms));
            }
        }
    }
    assert_eq!(
        format!("{:016x}", h.0),
        "07b79bcdc950ec3e",
        "a scheduler outcome changed"
    );
}
