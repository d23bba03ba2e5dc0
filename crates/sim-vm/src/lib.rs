//! Virtualization substrate for the *virtual snooping* reproduction.
//!
//! This crate models the parts of a virtualized system the paper's
//! mechanism depends on, entirely in simulation:
//!
//! * [`CoreId`] / [`VmId`] / [`VcpuId`] / [`Agent`] — the identifier
//!   vocabulary shared by every layer (caches tag lines with VM ids, the
//!   hypervisor schedules vCPUs onto cores).
//! * [`Hypervisor`] — the dynamic vCPU-to-core assignment and relocation
//!   log.
//! * [`MemoryMap`] / [`PageRange`] — host-physical page allocation, the
//!   basis of inter-VM memory isolation.
//! * [`SharingDirectory`] / [`SharingType`] / [`TypeTlb`] — the two
//!   sharing-type bits virtual snooping stores in page tables and TLBs.
//! * [`PagedTable`] — the hash-free `u64`-keyed table behind the sharing
//!   directory and the memory-side token ledger.
//! * [`ContentSharer`] — VMware-ESX-style content-based page sharing with
//!   copy-on-write (Section VI of the paper).
//! * [`run_scheduler`] — a Xen-credit-scheduler model producing the
//!   pinning-vs-migration behaviours of Fig. 3 and Table I.
//!
//! # Examples
//!
//! ```
//! use sim_vm::{homogeneous_vms, Hypervisor, VmId};
//!
//! let vms = homogeneous_vms(4, 4, 1024);
//! let mut hv = Hypervisor::new(16, &vms);
//! hv.place_round_robin();
//! assert_eq!(hv.cores_of_vm(VmId::new(2)).count_ones(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod content;
mod hypervisor;
mod ids;
mod memory;
mod page_table;
mod paged;
mod scheduler;
mod vm;

pub use content::{ContentHash, ContentSharer, ScanStats};
pub use hypervisor::{Hypervisor, RelocationEvent, UnplacedVcpu};
pub use ids::{Agent, CoreId, VcpuId, VmId};
pub use memory::{MemoryMap, PageRange};
pub use page_table::{SharingDirectory, SharingType, TlbStats, TypeTlb};
pub use paged::PagedTable;
pub use scheduler::{
    run_scheduler, SchedOutcome, SchedPolicy, SchedulerConfig, VmWorkload, WorkloadBehavior,
};
pub use vm::{homogeneous_vms, VmSpec};
