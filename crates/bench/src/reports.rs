//! Canonical report text for every paper artifact.
//!
//! Each function renders one figure/table of the paper to a `String`:
//! byte-for-byte what `all --only <name>` prints to stdout. The
//! campaign runner journals these strings and concatenates them —
//! which is what makes a resumed campaign's merged output bit-identical
//! to an uninterrupted run.
//!
//! Errors are reported as `Err(String)` (missing sweep points, CSV dump
//! failures, unknown profiles) so the supervisor can journal them as
//! typed job failures instead of unwinding.

use vsnoop::experiments::fig10 as fig10_rows;
use vsnoop::experiments::{
    cdf, fig1 as fig1_rows, fig2_validation as fig2_validation_rows, fig3_table1,
    migration_policies, migration_sweep, removal_periods, table4_fig6, table5 as table5_rows,
    table6 as table6_rows, RunScale, FIG3_TABLE1_SEED,
};
use vsnoop::{fig2_sweep, ContentPolicy, SystemConfig};
use workloads::{content_apps, simulation_apps};

use crate::{f1, f2, heading_string, opt, TextTable};

fn csv(t: &TextTable, name: &str) -> Result<(), String> {
    t.maybe_dump_csv(name).map_err(|e| format!("csv dump: {e}"))
}

/// Fig. 1 — L2 miss decomposition: Xen / dom0 / guest VMs.
///
/// # Errors
///
/// Returns a message on CSV-dump failure.
pub fn fig1(scale: RunScale) -> Result<String, String> {
    let mut out = heading_string(
        "Figure 1: L2 miss decomposition (hypervisor / dom0 / guest)",
        "Two VMs (4 vCPUs each) per application, host activity enabled.\n\
         Paper: <5% host share for most PARSEC apps (dedup 11%, freqmine 8%,\n\
         raytrace 7%), OLTP 15%, SPECweb 19%.",
    );
    let mut t = TextTable::new([
        "workload",
        "guest %",
        "dom0 %",
        "xen %",
        "host total %",
        "paper host %",
    ]);
    for r in fig1_rows(scale) {
        t.row([
            r.name.to_string(),
            f1(r.guest_pct),
            f1(r.dom0_pct),
            f1(r.hyp_pct),
            f1(r.host_pct()),
            opt(r.paper_host_pct),
        ]);
    }
    csv(&t, "fig1")?;
    out.push_str(&format!("{t}\n"));
    Ok(out)
}

/// Fig. 2 — potential snoop reductions (analytic model).
///
/// # Errors
///
/// Returns a message on CSV-dump failure.
pub fn fig2(_scale: RunScale) -> Result<String, String> {
    let mut out = heading_string(
        "Figure 2: potential snoop reduction (analytic model)",
        "VMs of 4 vCPUs on 4*V cores; curves are hypervisor transaction\n\
         ratios. Paper: >93% ideal at 16 VMs; 84-89% at 5-10%.",
    );
    let pts = fig2_sweep();
    let mut t = TextTable::new(["VMs", "cores", "ideal", "5%", "10%", "20%", "30%", "40%"]);
    for &n_vms in &[2usize, 4, 8, 16] {
        let row_pts: Vec<_> = pts.iter().filter(|p| p.n_vms == n_vms).collect();
        let mut cells = vec![n_vms.to_string(), (4 * n_vms).to_string()];
        for p in row_pts {
            cells.push(f1(p.reduction_pct));
        }
        t.row(cells);
    }
    csv(&t, "fig2")?;
    out.push_str(&format!("{t}\n"));
    Ok(out)
}

/// Fig. 2 cross-validation: closed form vs. measured simulation.
///
/// # Errors
///
/// Returns a message on sweep or CSV-dump failure.
pub fn fig2_validation(scale: RunScale) -> Result<String, String> {
    let mut out = heading_string(
        "Figure 2 validation: analytic model vs measured simulation",
        "Pinned VMs of 4 vCPUs on 8..64 cores (ferret), with and without\n\
         hypervisor activity. The closed form the paper plots should match\n\
         what the simulator actually measures.",
    );
    let mut t = TextTable::new([
        "VMs",
        "cores",
        "host miss %",
        "measured reduction %",
        "analytic %",
        "gap pp",
    ]);
    for r in fig2_validation_rows(scale).map_err(|e| e.to_string())? {
        t.row([
            r.n_vms.to_string(),
            r.cores.to_string(),
            f1(r.host_miss_pct),
            f1(r.measured_pct),
            f1(r.analytic_pct),
            f1(r.gap_pp()),
        ]);
    }
    csv(&t, "fig2_validation")?;
    out.push_str(&format!("{t}\n"));
    Ok(out)
}

/// Fig. 3 — pinning vs full migration, under- and overcommitted.
///
/// # Errors
///
/// Returns a message on CSV-dump failure.
pub fn fig3(_scale: RunScale) -> Result<String, String> {
    let mut out = heading_string(
        "Figure 3: normalized execution time, no-migration vs full-migration",
        "8 cores; (a) undercommitted: 2 VMs x 4 vCPUs; (b) overcommitted:\n\
         4 VMs x 4 vCPUs. 100% = the slower policy. Paper: pinning wins\n\
         undercommitted, full migration wins overcommitted.",
    );
    let rows = fig3_table1(FIG3_TABLE1_SEED);
    let mut t = TextTable::new([
        "workload",
        "under no-mig %",
        "under full %",
        "over no-mig %",
        "over full %",
    ]);
    for r in &rows {
        let (up, uf) = r.under_normalized();
        let (op, of) = r.over_normalized();
        t.row([r.name.to_string(), f1(up), f1(uf), f1(op), f1(of)]);
    }
    csv(&t, "fig3")?;
    out.push_str(&format!("{t}\n"));
    Ok(out)
}

/// Table I — average VM relocation periods.
///
/// # Errors
///
/// Returns a message on CSV-dump failure.
pub fn table1(_scale: RunScale) -> Result<String, String> {
    let mut out = heading_string(
        "Table I: average vCPU relocation periods (ms), full migration",
        "Measured under the credit-scheduler model; paper values from the\n\
         real Xen 4.0 testbed. Shape to preserve: overcommitted periods are\n\
         much shorter; CPU-bound apps (blackscholes, swaptions, freqmine)\n\
         migrate rarely; I/O-heavy apps (dedup, vips) migrate constantly.",
    );
    let rows = fig3_table1(FIG3_TABLE1_SEED);
    let mut t = TextTable::new([
        "workload",
        "undercommit ms",
        "paper",
        "overcommit ms",
        "paper",
    ]);
    for r in &rows {
        t.row([
            r.name.to_string(),
            opt(r.reloc_under_ms),
            opt(r.paper_under_ms),
            opt(r.reloc_over_ms),
            opt(r.paper_over_ms),
        ]);
    }
    csv(&t, "table1")?;
    out.push_str(&format!("{t}\n"));
    Ok(out)
}

/// Table II — simulated system configuration.
///
/// # Errors
///
/// Returns a message on CSV-dump failure.
pub fn table2(_scale: RunScale) -> Result<String, String> {
    let mut out = heading_string(
        "Table II: simulated system configuration",
        "The machine every simulation experiment runs on.",
    );
    let c = SystemConfig::paper_default();
    let mut t = TextTable::new(["parameter", "value"]);
    t.row(["Processors", &format!("{} in-order cores", c.n_cores())]);
    t.row([
        "L1 I/D cache",
        &format!(
            "{}KB, {}-way, 64B block, {} cycle latency",
            c.l1_bytes / 1024,
            c.l1_ways,
            c.l1_latency
        ),
    ]);
    t.row([
        "L2 cache",
        &format!(
            "{}KB, {}-way, 64B block, {} cycle latency",
            c.l2_bytes / 1024,
            c.l2_ways,
            c.l2_latency
        ),
    ]);
    t.row(["Coherence", "Token Coherence (TokenB), MOESI"]);
    t.row([
        "On-chip network",
        &format!(
            "{}x{} 2D mesh, {}B links, {}-cycle routers",
            c.mesh_width, c.mesh_height, c.network.link_bytes, c.network.router_cycles
        ),
    ]);
    t.row(["Memory latency", &format!("{} cycles", c.memory_latency)]);
    t.row([
        "VMs",
        &format!("{} VMs x {} vCPUs", c.n_vms, c.vcpus_per_vm),
    ]);
    t.row([
        "Clock scaling",
        &format!("{} cycles per scaled ms", c.cycles_per_ms),
    ]);
    csv(&t, "table2")?;
    out.push_str(&format!("{t}\n"));
    Ok(out)
}

/// Table III — application profiles.
///
/// # Errors
///
/// Returns a message on CSV-dump failure.
pub fn table3(_scale: RunScale) -> Result<String, String> {
    let mut out = heading_string(
        "Table III: simulated applications and their synthetic parameters",
        "The paper lists the real input sets (e.g. fft: 4M points); this\n\
         reproduction lists the calibrated trace-generator parameters that\n\
         stand in for them (per VM).",
    );
    let mut t = TextTable::new([
        "application",
        "suite",
        "private pages",
        "zipf",
        "write frac",
        "content frac",
        "content pages",
    ]);
    for app in simulation_apps() {
        let p = app.trace;
        t.row([
            app.name.to_string(),
            format!("{:?}", app.suite),
            p.private_pages.to_string(),
            f2(p.zipf_s),
            f2(p.write_frac),
            f2(p.content_frac),
            p.content_pages.to_string(),
        ]);
    }
    csv(&t, "table3")?;
    out.push_str(&format!("{t}\n"));
    Ok(out)
}

/// Table IV — network traffic reduction with pinned VMs.
///
/// # Errors
///
/// Returns a message on CSV-dump failure.
pub fn table4(scale: RunScale) -> Result<String, String> {
    let mut out = heading_string(
        "Table IV: network traffic reduction of virtual snooping (pinned VMs)",
        "4 VMs x 4 vCPUs pinned on 16 cores, no host activity (as in\n\
         Virtual-GEMS). Paper: 62-64% across all applications; snoop\n\
         reduction is exactly 75%.",
    );
    let rows = table4_fig6(scale);
    let mut t = TextTable::new([
        "workload",
        "traffic reduction %",
        "paper %",
        "snoops vs tokenB %",
    ]);
    let mut sum = 0.0;
    for r in &rows {
        sum += r.traffic_reduction_pct;
        t.row([
            r.name.to_string(),
            f1(r.traffic_reduction_pct),
            opt(r.paper_traffic_reduction_pct),
            f1(r.norm_snoops_pct),
        ]);
    }
    t.row([
        "Average".to_string(),
        f1(sum / rows.len() as f64),
        "63.7".to_string(),
        String::new(),
    ]);
    csv(&t, "table4")?;
    out.push_str(&format!("{t}\n"));
    Ok(out)
}

/// Fig. 6 — execution times with pinned VMs.
///
/// # Errors
///
/// Returns a message on CSV-dump failure.
pub fn fig6(scale: RunScale) -> Result<String, String> {
    let mut out = heading_string(
        "Figure 6: execution time normalized to TokenB (pinned VMs)",
        "Paper: virtual snooping improves runtime by 0.2-9.1% (avg 3.8%) —\n\
         modest, because network bandwidth is not saturated; the main win\n\
         is snoop power/bandwidth.",
    );
    let rows = table4_fig6(scale);
    let mut t = TextTable::new(["workload", "vsnoop runtime %", "improvement %"]);
    let mut sum = 0.0;
    for r in &rows {
        sum += 100.0 - r.norm_runtime_pct;
        t.row([
            r.name.to_string(),
            f1(r.norm_runtime_pct),
            f1(100.0 - r.norm_runtime_pct),
        ]);
    }
    t.row([
        "Average".to_string(),
        String::new(),
        f1(sum / rows.len() as f64),
    ]);
    csv(&t, "fig6")?;
    out.push_str(&format!("{t}\n"));
    Ok(out)
}

fn migration_figure(
    title: &str,
    context: &str,
    periods: [f64; 2],
    csv_name: &str,
    scale: RunScale,
) -> Result<String, String> {
    let mut out = heading_string(title, context);
    let points = migration_sweep(&periods, scale.for_migration());
    let mut t = TextTable::new([
        "workload",
        "period ms",
        "vsnoop-base %",
        "counter %",
        "counter-thr %",
    ]);
    for app in simulation_apps() {
        for period in periods {
            let mut cells = vec![app.name.to_string(), format!("{period}")];
            for policy in migration_policies() {
                let p = points
                    .iter()
                    .find(|p| {
                        p.name == app.name
                            && (p.period_ms - period).abs() < 1e-9
                            && p.policy == policy
                    })
                    .ok_or_else(|| {
                        format!("sweep point missing: {} @ {period} ms {policy:?}", app.name)
                    })?;
                cells.push(f1(p.norm_snoops_pct));
            }
            t.row(cells);
        }
    }
    csv(&t, csv_name)?;
    out.push_str(&format!("{t}\n"));
    Ok(out)
}

/// Fig. 7 — total snoops, relocation every 5 / 2.5 scaled ms.
///
/// # Errors
///
/// Returns a message on missing sweep points or CSV-dump failure.
pub fn fig7(scale: RunScale) -> Result<String, String> {
    migration_figure(
        "Figure 7: normalized total snoops, vCPU relocated every 5 / 2.5 ms",
        "Percent of the TokenB baseline (ideal = 25%). Paper: the counter\n\
         mechanism stays close to ideal at these periods; vsnoop-base\n\
         degrades as maps only grow.",
        [5.0, 2.5],
        "fig7",
        scale,
    )
}

/// Fig. 8 — total snoops, relocation every 0.5 / 0.1 scaled ms.
///
/// # Errors
///
/// Returns a message on missing sweep points or CSV-dump failure.
pub fn fig8(scale: RunScale) -> Result<String, String> {
    migration_figure(
        "Figure 8: normalized total snoops, vCPU relocated every 0.5 / 0.1 ms",
        "Percent of the TokenB baseline (ideal = 25%). Paper: at 0.1 ms\n\
         vsnoop-base only reduces ~4% of snoops; the counter mechanism\n\
         still reduces ~45%; counter-threshold adds a small increment.",
        [0.5, 0.1],
        "fig8",
        scale,
    )
}

/// Fig. 9 — CDF of core-removal periods.
///
/// # Errors
///
/// Returns a message on CSV-dump failure.
pub fn fig9(scale: RunScale) -> Result<String, String> {
    let mut out = heading_string(
        "Figure 9: CDF of core-removal periods (counter, 5 ms migrations)",
        "Time from a vCPU's departure until its old core is removed from\n\
         the VM's map. Paper: most removals complete within ~10 ms;\n\
         blackscholes' counters never reach zero (small L2 working set).",
    );
    let cfg = SystemConfig::paper_default();
    let samples = removal_periods(scale.for_migration());
    out.push_str(&format!("{} removal events collected\n\n", samples.len()));

    // Aggregate CDF over all applications, reported at decile points.
    let mut all: Vec<u64> = samples.iter().map(|s| s.period_cycles).collect();
    if all.is_empty() {
        out.push_str("no removal events (run with a larger scale)\n");
        return Ok(out);
    }
    let curve = cdf(&mut all);
    let mut t = TextTable::new(["fraction of removals", "within (scaled ms)"]);
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0] {
        let idx = ((curve.len() as f64 * q).ceil() as usize).clamp(1, curve.len()) - 1;
        let ms = curve[idx].0 as f64 / cfg.cycles_per_ms as f64;
        t.row([format!("{:.0}%", q * 100.0), f1(ms)]);
    }
    csv(&t, "fig9")?;
    out.push_str(&format!("{t}\n"));

    // Per-application medians, to expose the slow outliers the paper
    // highlights (radix, ferret) and blackscholes' absence.
    let mut t2 = TextTable::new(["workload", "removals", "median ms", "p90 ms"]);
    for app in simulation_apps() {
        let mut xs: Vec<u64> = samples
            .iter()
            .filter(|s| s.name == app.name)
            .map(|s| s.period_cycles)
            .collect();
        if xs.is_empty() {
            t2.row([app.name.to_string(), "0".into(), "-".into(), "-".into()]);
            continue;
        }
        xs.sort_unstable();
        let med = xs[xs.len() / 2] as f64 / cfg.cycles_per_ms as f64;
        let p90 = xs[(xs.len() * 9 / 10).min(xs.len() - 1)] as f64 / cfg.cycles_per_ms as f64;
        t2.row([app.name.to_string(), xs.len().to_string(), f1(med), f1(p90)]);
    }
    csv(&t2, "fig9_t2")?;
    out.push_str(&format!("{t2}\n"));
    Ok(out)
}

/// Table V — content-shared accesses and misses.
///
/// # Errors
///
/// Returns a message on CSV-dump failure.
pub fn table5(scale: RunScale) -> Result<String, String> {
    let mut out = heading_string(
        "Table V: L1 accesses and L2 misses to content-shared pages",
        "4 VMs of the same application, ideal dedup scan. Paper: only\n\
         fft / blackscholes / canneal / specjbb exceed 30% of L2 misses;\n\
         radix accesses content heavily but almost never misses on it.",
    );
    let rows = table5_rows(scale);
    let mut t = TextTable::new(["workload", "access %", "paper", "L2 miss %", "paper"]);
    let (mut sa, mut sm) = (0.0, 0.0);
    for r in &rows {
        sa += r.access_pct;
        sm += r.miss_pct;
        t.row([
            r.name.to_string(),
            f1(r.access_pct),
            opt(r.paper_access_pct),
            f1(r.miss_pct),
            opt(r.paper_miss_pct),
        ]);
    }
    let n = rows.len() as f64;
    t.row([
        "Average".to_string(),
        f1(sa / n),
        "12.5".to_string(),
        f1(sm / n),
        "19.9".to_string(),
    ]);
    csv(&t, "table5")?;
    out.push_str(&format!("{t}\n"));
    Ok(out)
}

/// Fig. 10 — snoops under the content-sharing optimizations.
///
/// # Errors
///
/// Returns a message on missing rows or CSV-dump failure.
pub fn fig10(scale: RunScale) -> Result<String, String> {
    let mut out = heading_string(
        "Figure 10: snoops by content-page routing, normalized to TokenB",
        "Measured (the paper estimates these). Paper shape: memory-direct\n\
         has the fewest snoops (often below the 25% ideal), then intra-VM,\n\
         then friend-VM; all beat vsnoop-broadcast on the four apps with\n\
         heavy content sharing (fft, blackscholes, canneal, specjbb).",
    );
    let rows = fig10_rows(scale);
    let mut t = TextTable::new([
        "workload",
        "vsnoop-broadcast %",
        "memory-direct %",
        "intra-VM %",
        "friend-VM %",
    ]);
    for app in content_apps() {
        let get = |p: ContentPolicy| {
            rows.iter()
                .find(|r| r.name == app.name && r.policy == p)
                .map(|r| r.norm_snoops_pct)
                .ok_or_else(|| format!("row missing: {} under {p:?}", app.name))
        };
        t.row([
            app.name.to_string(),
            f1(get(ContentPolicy::Broadcast)?),
            f1(get(ContentPolicy::MemoryDirect)?),
            f1(get(ContentPolicy::IntraVm)?),
            f1(get(ContentPolicy::FriendVm)?),
        ]);
    }
    csv(&t, "fig10")?;
    out.push_str(&format!("{t}\n"));
    Ok(out)
}

/// Table VI — potential data holders for content-shared misses.
///
/// # Errors
///
/// Returns a message on CSV-dump failure.
pub fn table6(scale: RunScale) -> Result<String, String> {
    let mut out = heading_string(
        "Table VI: potential data holders for content-shared L2 misses",
        "Who could supply each content-shared read miss. Paper (fft /\n\
         blacksch. / canneal / specjbb): some cache 47-64%, intra-VM\n\
         0.1-27%, friend-VM +21-28%, memory-only 37-53%.",
    );
    let rows = table6_rows(scale);
    let mut t = TextTable::new([
        "workload",
        "cache: all %",
        "cache: intra-VM %",
        "cache: friend-VM %",
        "memory %",
    ]);
    for r in &rows {
        t.row([
            r.name.to_string(),
            f1(r.cache_all_pct),
            f1(r.cache_intra_pct),
            f1(r.cache_friend_pct),
            f1(r.memory_pct),
        ]);
    }
    csv(&t, "table6")?;
    out.push_str(&format!("{t}\n"));
    Ok(out)
}
