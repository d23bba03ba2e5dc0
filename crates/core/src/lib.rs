//! # Virtual snooping: filtering snoops in virtualized multi-cores
//!
//! A from-scratch reproduction of Kim, Kim & Huh, *"Virtual Snooping:
//! Filtering Snoops in Virtualized Multi-cores"* (MICRO-43, 2010).
//!
//! Virtual snooping exploits the memory isolation between virtual machines
//! to filter snoop-based cache-coherence traffic: each VM forms a *virtual
//! snoop domain* and coherence requests for VM-private pages are multicast
//! only to the cores in the VM's **vCPU map** instead of broadcast to the
//! whole machine. Three effects break the isolation — hypervisor data
//! sharing, VM relocation, and content-based page sharing — and this crate
//! implements the paper's answers to each: always-broadcast host requests,
//! per-VM cache-residence counters that shrink stale vCPU maps
//! ([`FilterPolicy::Counter`] / counter-threshold), and read-only-aware
//! routing for content-shared pages ([`ContentPolicy`]).
//!
//! The crate bundles:
//!
//! * [`Simulator`] — a trace-driven 16-core full-system model (private
//!   L1/L2, TokenB coherence, 4x4 mesh) with pluggable filter policies;
//! * [`VcpuMap`] / [`VcpuMapFile`] — the n-bit snoop-domain registers;
//! * [`snoop_reduction`] — the closed-form potential-reduction model
//!   (Fig. 2);
//! * [`experiments`] — one driver per paper table/figure.
//!
//! # Examples
//!
//! ```
//! use vsnoop::{Simulator, SystemConfig, FilterPolicy, ContentPolicy};
//! use workloads::{Workload, WorkloadConfig, profile};
//!
//! let cfg = SystemConfig::small_test();
//! let mut sim = Simulator::new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast);
//! let mut wl = Workload::homogeneous(
//!     profile("fft").unwrap(),
//!     cfg.n_vms,
//!     WorkloadConfig { vcpus_per_vm: cfg.vcpus_per_vm, ..Default::default() },
//! );
//! sim.run(&mut wl, 200);
//! assert!(sim.stats().l2_misses > 0);
//! ```

#![warn(missing_docs)]

mod analytic;
pub mod checker;
mod config;
mod energy;
mod error;
pub mod experiments;
pub mod fault;
pub mod knob;
pub mod obs;
mod policy;
mod region_filter;
pub mod runner;
pub mod service;
mod simulator;
mod stats;
mod vcpu_map;

pub use analytic::{fig2_sweep, snoop_reduction, try_snoop_reduction, Fig2Point};
pub use checker::{CheckerConfig, CheckerCtx, InvariantChecker, InvariantKind, Violation};
pub use config::{ConfigError, SystemConfig};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use error::SimError;
pub use experiments::{clear_warm_pool, warm_counters, warm_tenant_counters};
pub use fault::{FaultInjectionStats, FaultPlan, MapCorruption};
pub use policy::{ContentPolicy, FilterPolicy};
pub use region_filter::RegionFilter;
pub use simulator::{ReplayWorkload, SimSnapshot, Simulator, SystemWorkload};
pub use stats::{RemovalEvent, SimStats};
pub use vcpu_map::{VcpuMap, VcpuMapFile};
