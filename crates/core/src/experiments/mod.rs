//! Experiment drivers, one per paper table/figure.
//!
//! | Paper artifact | Driver |
//! |---|---|
//! | Fig. 1 (L2 miss decomposition) | [`fig1`] |
//! | Fig. 2 (potential reduction) | [`crate::fig2_sweep`] |
//! | Fig. 3 / Table I (scheduler) | [`fig3_table1`] |
//! | Table IV / Fig. 6 (pinned VMs) | [`table4_fig6`] |
//! | Figs. 7-8 (migration sweep) | [`migration_sweep`] |
//! | Fig. 9 (removal-period CDF) | [`removal_periods`] |
//! | Table V (content ratios) | [`table5`] |
//! | Fig. 10 (content policies) | [`fig10`] |
//! | Table VI (data holders) | [`table6`] |
//!
//! Every driver takes a [`RunScale`] so tests can run fast while the
//! benchmark binaries use the full scale.
//!
//! The drivers share finished cells and scheduler runs through the
//! process-wide cell memo and scheduler memo in [`warm`], and the heavy sweeps
//! and the scheduler study fan their independent cells and runs over
//! [`crate::runner::scatter`]'s shard pool. Both are output-invariant:
//! report text stays byte-identical to a cold serial run at any worker
//! count.

mod common;
mod content;
mod fig1;
mod fig2_validation;
mod migration;
mod pinned;
mod sched;
mod warm;

pub use common::{run_pinned, RunScale};
pub use content::{fig10, table5, table6, Fig10Row, Table5Row, Table6Row};
pub use fig1::{fig1, Fig1Row};
pub use fig2_validation::{fig2_validation, Fig2Validation};
pub use migration::{
    cdf, cross_vm_picker, migration_policies, migration_sweep, migration_sweep_for,
    removal_periods, removal_periods_for, MigrationPoint, RemovalSample,
};
pub use pinned::{table4_fig6, PinnedRow};
pub use sched::{fig3_table1, SchedRow, FIG3_TABLE1_SEED};
pub use warm::{
    cell_simulations, clear_warm_pool, reset_warm_counters, scheduler_runs, warm_counters,
    warm_pool_len, warm_tenant_counters,
};
