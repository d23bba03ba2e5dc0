//! The synthetic workload generator.
//!
//! A [`Workload`] owns the simulated machine's memory layout (per-VM
//! private regions, per-VM content regions deduplicated by the hypervisor,
//! and the hypervisor/dom0 pools), the sharing directory, and the RNG, and
//! produces the access stream the coherence simulator consumes.
//!
//! Layout decisions mirror the paper's environment:
//!
//! * each VM's private pages are disjoint host pages (memory isolation,
//!   Section II-A);
//! * the content region of every VM has identical page contents, so the
//!   ideal dedup scan (Section VI-A) folds them onto one read-only copy
//!   per page; a content-pool store triggers copy-on-write;
//! * hypervisor and dom0 activity streams through large RW-shared pools so
//!   host accesses are (almost) always L2 misses that must be broadcast,
//!   matching how Fig. 1 counts them.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_vm::{
    Agent, ContentHash, ContentSharer, MemoryMap, PageRange, SharingDirectory, SharingType, VcpuId,
    VmId, VmSpec, VmWorkload, WorkloadBehavior,
};

use crate::profiles::{AppProfile, SchedParams};
use crate::trace::{AccessStream, TraceAccess};
use crate::zipf::ZipfSampler;

/// Bytes per page / block, duplicated here to avoid a dependency cycle
/// with the cache crate (checked against `sim-mem` in the integration
/// tests).
const PAGE_BYTES: u64 = 4096;
const BLOCK_BYTES: u64 = 64;
const BLOCKS_PER_PAGE: u64 = PAGE_BYTES / BLOCK_BYTES;

/// Size of the hypervisor's and dom0's streaming pools, in pages. Large
/// enough that host accesses essentially never hit in an L2 cache.
const HOST_POOL_PAGES: u64 = 8192;

/// Configuration of a workload instance.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Number of vCPUs per VM (the paper uses 4).
    pub vcpus_per_vm: u16,
    /// RNG seed; the stream is deterministic given the seed.
    pub seed: u64,
    /// Include hypervisor/dom0 access slots (Fig. 1 experiments). The
    /// simulation-section experiments disable this, matching
    /// Virtual-GEMS's lack of a running hypervisor.
    pub host_activity: bool,
    /// Run the ideal content dedup scan at construction (Section VI).
    pub content_sharing: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            vcpus_per_vm: 4,
            seed: 0xA11CE,
            host_activity: false,
            content_sharing: false,
        }
    }
}

#[derive(Clone)]
struct VmPools {
    /// Per-vCPU thread-local chunks, laid out consecutively: chunk of
    /// vCPU *i* starts at `chunks.base() + i * chunk_pages`.
    chunks: PageRange,
    chunk_pages: u64,
    /// The VM-wide shared heap.
    shared: PageRange,
    content: PageRange,
    chunk_zipf: ZipfSampler,
    shared_zipf: ZipfSampler,
    content_zipf: ZipfSampler,
}

/// A running workload: memory layout, sharing state, and access generator.
///
/// # Examples
///
/// ```
/// use workloads::{Workload, WorkloadConfig, profile, AccessStream};
/// use sim_vm::{VcpuId, VmId};
///
/// let mut wl = Workload::homogeneous(profile("fft").unwrap(), 4, WorkloadConfig::default());
/// let a = wl.next_access(VcpuId::new(VmId::new(0), 0));
/// assert!(!a.agent.is_host()); // host activity disabled by default
/// ```
///
/// A `Workload` is `Clone`: the copy captures the full memory layout,
/// sharing state, reuse bursts, *and the RNG state*, so a clone taken
/// after a warm-up phase continues the bit-identical access stream.
/// This is what the simulator's warm-state snapshot layer
/// (`Simulator::snapshot` in the `vsnoop` crate) forks instead of
/// regenerating the warm-up prefix.
///
/// Each vCPU's reuse burst lives in a dense slot at
/// `vm * vcpus_per_vm + vcpu`, so drawing an access hashes nothing.
/// [`AccessStream::next_access`] panics for a vCPU outside the
/// configured VMs and vCPUs per VM instead of sharing another vCPU's
/// slot.
#[derive(Clone)]
pub struct Workload {
    profiles: Vec<&'static AppProfile>,
    cfg: WorkloadConfig,
    mem: MemoryMap,
    dir: SharingDirectory,
    content: ContentSharer,
    pools: Vec<VmPools>,
    hyp_pool: PageRange,
    dom0_pool: PageRange,
    hyp_cursor: u64,
    dom0_cursor: u64,
    /// One reuse-burst slot per vCPU, at `vm * vcpus_per_vm + vcpu`
    /// ([`Workload::burst_slot`]). A slot with no repeats left (the
    /// zeroed initial state included) has no burst in flight.
    bursts: Vec<Burst>,
    rng: SmallRng,
}

/// A vCPU's in-flight reuse burst: the address being re-touched, the
/// store probability of its class, and how many repeats remain.
#[derive(Clone, Copy, Default)]
struct Burst {
    addr: u64,
    write_frac: f64,
    left: u64,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field(
                "apps",
                &self.profiles.iter().map(|p| p.name).collect::<Vec<_>>(),
            )
            .field("vms", &self.profiles.len())
            .field("vcpus_per_vm", &self.cfg.vcpus_per_vm)
            .finish_non_exhaustive()
    }
}

impl Workload {
    /// Builds a workload running `profile` on each of `n_vms` VMs (the
    /// paper's homogeneous-consolidation setup).
    pub fn homogeneous(profile: &'static AppProfile, n_vms: usize, cfg: WorkloadConfig) -> Self {
        Workload::new(vec![profile; n_vms], cfg)
    }

    /// Builds a workload with one profile per VM.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    pub fn new(profiles: Vec<&'static AppProfile>, cfg: WorkloadConfig) -> Self {
        assert!(!profiles.is_empty(), "need at least one VM");
        let mut mem = MemoryMap::new();
        let mut dir = SharingDirectory::new();
        let mut content = ContentSharer::new();
        let n_vms = profiles.len();
        let mut pools = Vec::with_capacity(n_vms);

        for (i, p) in profiles.iter().enumerate() {
            let vm = VmId::new(i as u16);
            let chunk_pages = p.trace.private_pages;
            let chunks = mem.alloc_region(chunk_pages * u64::from(cfg.vcpus_per_vm));
            let shared = mem.alloc_region(p.trace.shared_pages);
            for page in chunks.iter().chain(shared.iter()) {
                dir.register(page, SharingType::VmPrivate, Some(vm));
            }
            let content_region = mem.alloc_region(p.trace.content_pages);
            for (j, page) in content_region.iter().enumerate() {
                dir.register(page, SharingType::VmPrivate, Some(vm));
                // Identical contents across VMs running the same app: page j
                // of every instance hashes to the same value.
                content.set_content(
                    page,
                    vm,
                    ContentHash((p.name.len() as u64) << 32 | j as u64),
                );
            }
            pools.push(VmPools {
                chunks,
                chunk_pages,
                shared,
                content: content_region,
                chunk_zipf: ZipfSampler::new(chunk_pages as usize, p.trace.zipf_s),
                shared_zipf: ZipfSampler::new(p.trace.shared_pages as usize, p.trace.shared_zipf),
                content_zipf: ZipfSampler::new(
                    p.trace.content_pages as usize,
                    p.trace.content_zipf,
                ),
            });
        }

        let hyp_pool = mem.alloc_region(HOST_POOL_PAGES);
        let dom0_pool = mem.alloc_region(HOST_POOL_PAGES);
        for page in hyp_pool.iter().chain(dom0_pool.iter()) {
            dir.register(page, SharingType::RwShared, None);
        }

        if cfg.content_sharing {
            content.scan(&mut dir);
        }

        Workload {
            profiles,
            cfg,
            mem,
            dir,
            content,
            pools,
            hyp_pool,
            dom0_pool,
            hyp_cursor: 0,
            dom0_cursor: 0,
            bursts: vec![Burst::default(); n_vms * usize::from(cfg.vcpus_per_vm)],
            rng: SmallRng::seed_from_u64(cfg.seed),
        }
    }

    /// Number of VMs.
    pub fn n_vms(&self) -> usize {
        self.profiles.len()
    }

    /// vCPUs per VM.
    pub fn vcpus_per_vm(&self) -> u16 {
        self.cfg.vcpus_per_vm
    }

    /// The VM specifications of this workload (memory sizes included).
    pub fn vm_specs(&self) -> Vec<VmSpec> {
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                VmSpec::new(
                    VmId::new(i as u16),
                    self.cfg.vcpus_per_vm,
                    p.trace.private_pages * u64::from(self.cfg.vcpus_per_vm)
                        + p.trace.shared_pages
                        + p.trace.content_pages,
                )
            })
            .collect()
    }

    /// The application running on `vm`.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn app(&self, vm: VmId) -> &'static AppProfile {
        self.profiles[vm.index()]
    }

    /// The hypervisor's page-sharing directory (read-only view; only the
    /// workload mutates it, via copy-on-write).
    pub fn directory(&self) -> &SharingDirectory {
        &self.dir
    }

    /// The content-sharing state (friend-VM queries, CoW statistics).
    pub fn content(&self) -> &ContentSharer {
        &self.content
    }

    /// Total host-physical pages allocated.
    pub fn allocated_pages(&self) -> u64 {
        self.mem.allocated_pages()
    }

    /// The burst slot of `vcpu`.
    ///
    /// # Panics
    ///
    /// Panics if `vcpu` is outside the configured VMs or vCPUs per VM,
    /// rather than aliasing another vCPU's slot.
    fn burst_slot(&self, vcpu: VcpuId) -> usize {
        let per_vm = usize::from(self.cfg.vcpus_per_vm);
        assert!(
            vcpu.vm().index() < self.profiles.len() && vcpu.index() < per_vm,
            "{vcpu} outside a workload of {} VMs x {per_vm} vCPUs",
            self.profiles.len()
        );
        vcpu.vm().index() * per_vm + vcpu.index()
    }

    fn host_access(&mut self, pool: PageRange, cursor: &mut u64, agent: Agent) -> TraceAccess {
        // Stream sequentially through the pool, block by block: cold misses.
        let blocks = pool.len() * BLOCKS_PER_PAGE;
        let b = *cursor % blocks;
        *cursor += 1;
        let page = pool.base() + b / BLOCKS_PER_PAGE;
        let addr = page * PAGE_BYTES + (b % BLOCKS_PER_PAGE) * BLOCK_BYTES;
        TraceAccess {
            agent,
            addr,
            write: self.rng.gen::<f64>() < 0.3,
        }
    }
}

impl AccessStream for Workload {
    fn next_access(&mut self, vcpu: VcpuId) -> TraceAccess {
        let vm = vcpu.vm();
        let slot = self.burst_slot(vcpu);
        let p = self.profiles[vm.index()].trace;

        // Temporal locality: finish the in-flight burst before drawing a
        // fresh block. Repeats re-roll the store flag so bursts exercise
        // both load and store paths.
        let burst = &mut self.bursts[slot];
        if burst.left > 0 {
            burst.left -= 1;
            let (addr, write_frac) = (burst.addr, burst.write_frac);
            return TraceAccess {
                agent: Agent::Guest(vcpu),
                addr,
                write: self.rng.gen::<f64>() < write_frac,
            };
        }

        if self.cfg.host_activity {
            let r: f64 = self.rng.gen();
            if r < p.hyp_frac {
                let pool = self.hyp_pool;
                let mut cursor = self.hyp_cursor;
                let a = self.host_access(pool, &mut cursor, Agent::Hypervisor);
                self.hyp_cursor = cursor;
                return a;
            } else if r < p.hyp_frac + p.dom0_frac {
                let pool = self.dom0_pool;
                let mut cursor = self.dom0_cursor;
                let a = self.host_access(pool, &mut cursor, Agent::Dom0);
                self.dom0_cursor = cursor;
                return a;
            }
        }

        let pools = &self.pools[vm.index()];
        let (page, write, class_wf) = if self.rng.gen::<f64>() < p.content_frac {
            // Content-pool access: resolve through the dedup remapping.
            let idx = pools.content_zipf.sample(&mut self.rng) as u64;
            let guest_page = pools.content.page(idx);
            let write = self.rng.gen::<f64>() < p.content_write_frac;
            if write && self.cfg.content_sharing {
                // A store to a shared page traps to the hypervisor, which
                // breaks sharing via copy-on-write; the store then lands on
                // the fresh private copy.
                if let Some(new_page) =
                    self.content
                        .copy_on_write(guest_page, vm, &mut self.mem, &mut self.dir)
                {
                    (new_page, true, p.content_write_frac)
                } else {
                    (self.content.resolve(guest_page), true, p.content_write_frac)
                }
            } else {
                (
                    self.content.resolve(guest_page),
                    write,
                    p.content_write_frac,
                )
            }
        } else if self.rng.gen::<f64>() < p.vm_shared_frac {
            // The VM-wide shared heap (cold, and contended between the
            // VM's vCPUs).
            let idx = pools.shared_zipf.sample(&mut self.rng) as u64;
            (
                pools.shared.page(idx),
                self.rng.gen::<f64>() < p.write_frac,
                p.write_frac,
            )
        } else {
            // The vCPU's thread-local chunk (hot; stays L2-resident).
            let idx = pools.chunk_zipf.sample(&mut self.rng) as u64;
            let base = pools.chunks.base() + vcpu.index() as u64 * pools.chunk_pages;
            (
                base + idx,
                self.rng.gen::<f64>() < p.write_frac,
                p.write_frac,
            )
        };

        let block = self.rng.gen_range(0..BLOCKS_PER_PAGE);
        let addr = page * PAGE_BYTES + block * BLOCK_BYTES;
        if p.reuse_burst > 1 {
            self.bursts[slot] = Burst {
                addr,
                write_frac: class_wf,
                left: p.reuse_burst - 1,
            };
        }
        TraceAccess {
            agent: Agent::Guest(vcpu),
            addr,
            write,
        }
    }
}

/// Converts an application's scheduler parameters into the credit
/// scheduler's tick-based behaviour.
pub fn to_behavior(s: &SchedParams, tick_ms: f64) -> WorkloadBehavior {
    WorkloadBehavior {
        mean_busy_ticks: s.mean_busy_ms / tick_ms,
        mean_blocked_ticks: s.mean_blocked_ms / tick_ms,
        mean_parallel_ticks: s.mean_parallel_ms / tick_ms,
        mean_serial_ticks: s.mean_serial_ms / tick_ms,
        work_ticks: s.work_ms / tick_ms,
        migration_penalty_ticks: s.migration_penalty_ms / tick_ms,
    }
}

/// Builds the scheduler's VM list for `n_vms` instances of `app` (with
/// `vcpus_per_vm` vCPUs each) plus a floating dom0 whose load reflects the
/// application's I/O intensity.
pub fn sched_vms(
    app: &AppProfile,
    n_vms: usize,
    vcpus_per_vm: u16,
    tick_ms: f64,
) -> Vec<VmWorkload> {
    let mut out: Vec<VmWorkload> = (0..n_vms)
        .map(|i| VmWorkload {
            spec: VmSpec::new(VmId::new(i as u16), vcpus_per_vm, 0),
            behavior: to_behavior(&app.sched, tick_ms),
            background: false,
        })
        .collect();
    // Dom0: short, frequent busy bursts (I/O completion handling); blocked
    // time sized so its long-run load is `dom0_load` of one core. Frequent
    // short bursts displace guest vCPUs more often than rare long ones,
    // which is what drives undercommitted relocation (Table I).
    let load = app.sched.dom0_load.clamp(0.005, 0.95);
    let busy_ms = 0.3;
    let blocked_ms = busy_ms * (1.0 - load) / load;
    out.push(VmWorkload {
        spec: VmSpec::new(VmId::new(n_vms as u16), 1, 0),
        behavior: WorkloadBehavior {
            mean_busy_ticks: busy_ms / tick_ms,
            mean_blocked_ticks: blocked_ms / tick_ms,
            mean_parallel_ticks: f64::INFINITY,
            mean_serial_ticks: 0.0,
            work_ticks: f64::INFINITY,
            migration_penalty_ticks: 0.0,
        },
        background: true,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::profile;

    fn vcpu(vm: u16, i: u16) -> VcpuId {
        VcpuId::new(VmId::new(vm), i)
    }

    #[test]
    fn regions_are_disjoint_across_vms() {
        let wl = Workload::homogeneous(profile("fft").unwrap(), 4, WorkloadConfig::default());
        let specs = wl.vm_specs();
        assert_eq!(specs.len(), 4);
        // 4 VMs of fft (4 vCPU chunks + shared heap + content pool each)
        // plus the two host pools: the allocator handed out the exact
        // total.
        let t = profile("fft").unwrap().trace;
        let per_vm = t.private_pages * 4 + t.shared_pages + t.content_pages;
        assert_eq!(wl.allocated_pages(), 4 * per_vm + 2 * 8192);
        assert_eq!(specs[0].memory_pages(), per_vm);
    }

    #[test]
    fn guest_accesses_stay_in_own_vm_pages_without_sharing() {
        let mut wl = Workload::homogeneous(profile("ocean").unwrap(), 2, WorkloadConfig::default());
        for i in 0..2000 {
            let v = vcpu((i % 2) as u16, 0);
            let a = wl.next_access(v);
            let page = a.addr / PAGE_BYTES;
            let owner = wl.directory().owner(page);
            assert_eq!(owner, Some(v.vm()), "access outside the VM's pages");
        }
    }

    #[test]
    fn content_sharing_folds_pages_across_vms() {
        let cfg = WorkloadConfig {
            content_sharing: true,
            ..Default::default()
        };
        let mut wl = Workload::homogeneous(profile("blackscholes").unwrap(), 4, cfg);
        // Generate accesses from two different VMs to the content pool and
        // observe identical host pages being touched.
        let mut pages0 = std::collections::HashSet::new();
        let mut pages1 = std::collections::HashSet::new();
        for _ in 0..4000 {
            let a0 = wl.next_access(vcpu(0, 0));
            let a1 = wl.next_access(vcpu(1, 0));
            if wl.directory().sharing(a0.addr / PAGE_BYTES) == SharingType::RoShared {
                pages0.insert(a0.addr / PAGE_BYTES);
            }
            if wl.directory().sharing(a1.addr / PAGE_BYTES) == SharingType::RoShared {
                pages1.insert(a1.addr / PAGE_BYTES);
            }
        }
        assert!(
            pages0.intersection(&pages1).next().is_some(),
            "VMs must touch common deduplicated pages"
        );
    }

    #[test]
    fn content_write_triggers_cow() {
        // A custom profile with a meaningful content write fraction (the
        // calibrated profiles use 0 so Table V's sharing stays intact).
        let mut custom = *profile("blackscholes").unwrap();
        custom.trace.content_write_frac = 0.02;
        let custom: &'static AppProfile = Box::leak(Box::new(custom));
        let cfg = WorkloadConfig {
            content_sharing: true,
            seed: 9,
            ..Default::default()
        };
        let mut wl = Workload::homogeneous(custom, 2, cfg);
        for _ in 0..50_000 {
            let _ = wl.next_access(vcpu(0, 0));
            if wl.content().cow_events() > 0 {
                break;
            }
        }
        assert!(wl.content().cow_events() > 0, "no CoW after 50k accesses");
    }

    #[test]
    fn host_activity_produces_host_agents_at_roughly_configured_rate() {
        let cfg = WorkloadConfig {
            host_activity: true,
            ..Default::default()
        };
        let p = profile("SPECweb").unwrap();
        let mut wl = Workload::homogeneous(p, 2, cfg);
        let n = 200_000;
        let mut host = 0;
        for i in 0..n {
            let a = wl.next_access(vcpu((i % 2) as u16, (i % 4) as u16));
            if a.agent.is_host() {
                host += 1;
                let page = a.addr / PAGE_BYTES;
                assert_eq!(wl.directory().sharing(page), SharingType::RwShared);
            }
        }
        // Host slots are drawn on *fresh* accesses only (burst repeats
        // continue the guest stream), so the per-access rate is the
        // configured fraction divided by the reuse burst length.
        let expect = (p.trace.hyp_frac + p.trace.dom0_frac) * n as f64 / p.trace.reuse_burst as f64;
        let got = host as f64;
        assert!(
            (got - expect).abs() < expect * 0.3,
            "host slot rate off: got {got}, expected ~{expect}"
        );
    }

    #[test]
    #[should_panic(expected = "VM0.v2 outside a workload of 2 VMs x 2 vCPUs")]
    fn out_of_range_vcpu_is_refused() {
        let cfg = WorkloadConfig {
            vcpus_per_vm: 2,
            ..Default::default()
        };
        let mut wl = Workload::homogeneous(profile("fft").unwrap(), 2, cfg);
        let _ = wl.next_access(vcpu(0, 2));
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            let mut wl =
                Workload::homogeneous(profile("radix").unwrap(), 2, WorkloadConfig::default());
            (0..100)
                .map(|_| wl.next_access(vcpu(0, 0)).addr)
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn sched_vms_include_background_dom0() {
        let app = profile("dedup").unwrap();
        let vms = sched_vms(app, 4, 4, 0.1);
        assert_eq!(vms.len(), 5);
        assert!(vms[4].background);
        assert_eq!(vms[4].spec.n_vcpus(), 1);
        assert!(vms[..4].iter().all(|w| !w.background));
        let b = to_behavior(&app.sched, 0.1);
        assert!((b.mean_busy_ticks - 8.0).abs() < 1e-9);
    }
}
