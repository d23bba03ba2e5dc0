//! Robustness soak: a migration storm with *every* fault class enabled,
//! driven for millions of access steps with the runtime invariant checker
//! on, followed by fault-free shape checks against the paper's headline
//! numbers. Both phases run as supervised campaign jobs — a panic or hang
//! in one phase is isolated, journaled, and leaves a crash reproducer
//! under `target/campaign/soak/` instead of taking down the soak.
//!
//! The run fails (non-zero exit) if
//!
//! * the checker records *any* invariant violation (token conservation,
//!   owner uniqueness, dirty-without-owner, tokenless lines, L1
//!   inclusion, residence counters, post-audit map validity/coverage),
//! * corrupted vCPU-map registers never tripped the degraded-broadcast
//!   fallback (the injection would not have been exercised), or
//! * the fault-free snoop-reduction shapes drift from the paper: pinned
//!   vsnoop-base ~25% of baseline snoops (Table IV's ~75% filtering) and
//!   the counter scheme ~45% under 0.1 ms migrations (Fig. 8).
//!
//! The report's "block checks" counts one per-block check per coherence
//! transaction plus, for every full sweep, one per block that sweep
//! verified: each block held in some L2 (and, on a sweep that finds a
//! fault, each block with tokens away from memory too).
//!
//! Environment knobs (read through `vsnoop::knob`): `SOAK_ROUNDS`
//! (storm rounds, default 80 000 — one round is 16 access steps on the
//! paper machine) and `SOAK_SEED` (default `0x50AC`). The storm migrates
//! every 0.1 ms and the shape checks measure [`SHAPE_ROUNDS`] rounds.
//!
//! With tracing on (`--trace-dir DIR` or `VSNOOP_TRACE=DIR`, see
//! OBSERVABILITY.md) the storm phase also exports per-epoch time-series
//! files, and `SOAK_FORCE_VIOLATION=1` switches to a short
//! self-test that deliberately corrupts one cache line, lets the
//! checker catch it, and exits non-zero — leaving a flight-recorder
//! dump under the trace directory for the verify script to assert on.

use std::process::ExitCode;

use vsnoop::experiments::cross_vm_picker;
use vsnoop::runner::{json::Value, run_campaign, Job, Journal, RunnerConfig};
use vsnoop::{CheckerConfig, ContentPolicy, FaultPlan, FilterPolicy, Simulator, SystemConfig};
use vsnoop_bench::{f1, heading_string};
use workloads::{try_profile, Workload, WorkloadConfig};

/// Migration period of the storm, in scaled ms x100 (10 = 0.1 ms).
const PERIOD_MS_X100: u64 = 10;
/// Fault-free measurement rounds of the shape checks.
const SHAPE_ROUNDS: u64 = 350_000;
/// Rounds per epoch of the storm's time-series when tracing is on.
const EPOCH_EVERY: u64 = 64;

fn storm_workload(cfg: &SystemConfig, seed: u64) -> Result<Workload, String> {
    Ok(Workload::homogeneous(
        try_profile("ocean").map_err(|e| e.to_string())?,
        cfg.n_vms,
        WorkloadConfig {
            vcpus_per_vm: cfg.vcpus_per_vm,
            seed,
            ..Default::default()
        },
    ))
}

fn norm_snoops(sim: &Simulator, cfg: &SystemConfig) -> f64 {
    let s = sim.stats();
    s.snoops as f64 / (s.l2_misses.max(1) * cfg.n_cores() as u64) as f64
}

/// Phase 1: the all-faults migration storm. Returns the phase report, or
/// the joined list of invariant/coverage failures.
fn storm(rounds: u64, seed: u64, period_cycles: u64) -> Result<String, String> {
    let cfg = SystemConfig::paper_default();
    let mut sim = Simulator::try_new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast)
        .map_err(|e| e.to_string())?;
    sim.set_fault_plan(FaultPlan::all(seed));
    sim.enable_checker(CheckerConfig::default());
    if vsnoop::obs::enabled() {
        sim.enable_epochs(EPOCH_EVERY);
    }
    let mut wl = storm_workload(&cfg, seed ^ 0xD15EA5E)?;
    sim.run_with_migration(
        &mut wl,
        rounds,
        period_cycles,
        cross_vm_picker(cfg, seed ^ 0x51A9),
    );
    sim.run_checker_sweep();
    if let Some(dir) = vsnoop::obs::trace_dir() {
        sim.flush_epochs();
        if let Some(ep) = sim.epochs() {
            match ep.write_files(&dir, "soak-storm") {
                Ok((jsonl, _trace)) => eprintln!(
                    "[soak] epoch export: {} epochs -> {}",
                    ep.epochs().len(),
                    jsonl.display()
                ),
                Err(e) => eprintln!("[soak] epoch export failed: {e}"),
            }
        }
    }

    let s = sim.stats().clone();
    let ch = sim.checker().ok_or("checker enabled")?;
    let inj = *sim.fault_injections().ok_or("plan installed")?;
    let (drops, delays) = sim
        .link_faults()
        .map(|lf| (lf.drops(), lf.delays()))
        .unwrap_or((0, 0));

    let mut out = heading_string(
        "Soak 1/2: migration storm, every fault class enabled",
        "FaultPlan::all — snoop drops, bounded delays, vCPU-map corruption\n\
         (bit off / bit on / garbage), delayed post-migration map sync,\n\
         spurious token bounces; invariant checker on throughout.",
    );
    let lines: Vec<(&str, String)> = vec![
        ("access steps           ", format!("{:>12}", s.accesses)),
        ("coherence transactions ", format!("{:>12}", s.l2_misses)),
        (
            "snoops (norm. to bcast)",
            format!("{:>11.1}%", 100.0 * norm_snoops(&sim, &cfg)),
        ),
        ("retries                ", format!("{:>12}", s.retries)),
        (
            "broadcast fallbacks    ",
            format!("{:>12}", s.broadcast_fallbacks),
        ),
        (
            "persistent requests    ",
            format!("{:>12}", s.persistent_requests),
        ),
        (
            "degraded broadcasts    ",
            format!("{:>12}", s.degraded_broadcasts),
        ),
        ("map repairs (audit)    ", format!("{:>12}", s.map_repairs)),
        ("injected: snoop drops  ", format!("{:>12}", drops)),
        ("injected: delays       ", format!("{:>12}", delays)),
        (
            "injected: map bits off ",
            format!("{:>12}", inj.maps_bit_cleared),
        ),
        (
            "injected: map bits on  ",
            format!("{:>12}", inj.maps_bit_set),
        ),
        (
            "injected: map garbage  ",
            format!("{:>12}", inj.maps_garbaged),
        ),
        (
            "injected: late syncs   ",
            format!("{:>12}", inj.delayed_syncs),
        ),
        (
            "injected: token bounces",
            format!("{:>12}", inj.spurious_bounces),
        ),
        (
            "checker: block checks  ",
            format!("{:>12}", ch.block_checks()),
        ),
        ("checker: full sweeps   ", format!("{:>12}", ch.sweeps())),
        (
            "checker: map checks    ",
            format!("{:>12}", ch.map_checks()),
        ),
        (
            "checker: VIOLATIONS    ",
            format!("{:>12}", ch.total_violations()),
        ),
        (
            "diagnostics            ",
            format!("{:>12}", sim.diagnostics_total()),
        ),
    ];
    for (label, value) in lines {
        out.push_str(&format!("  {label} {value}\n"));
    }

    let mut failures = Vec::new();
    if ch.total_violations() != 0 {
        failures.push(format!(
            "{} invariant violations; first recorded: {:#?}",
            ch.total_violations(),
            ch.violations().first()
        ));
    }
    if s.accesses < 1_000_000 {
        failures.push(format!(
            "storm too short: {} access steps < 1M (raise SOAK_ROUNDS)",
            s.accesses
        ));
    }
    if inj.maps_corrupted() == 0 {
        failures.push("map corruption never fired".into());
    }
    if s.degraded_broadcasts == 0 {
        failures.push("corrupted maps never degraded a filter to broadcast".into());
    }
    if s.map_repairs == 0 {
        failures.push("the hypervisor audit never repaired a register".into());
    }
    if drops == 0 || delays == 0 {
        failures.push("link faults never fired".into());
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(failures.join("; "))
    }
}

/// Phase 2: fault-free shape checks (Table IV / Fig. 8 headline numbers).
fn shapes(rounds: u64, seed: u64) -> Result<String, String> {
    let cfg = SystemConfig::paper_default();
    let warmup = (rounds / 16).max(1_000);
    let mut out = heading_string(
        "Soak 2/2: fault-free snoop-reduction shapes",
        "With faults disabled the headline reductions must match the paper:\n\
         ~75% of snoops filtered for pinned VMs (Table IV), ~45% of baseline\n\
         under 0.1 ms migration storms with the counter scheme (Fig. 8).",
    );
    let mut failures = Vec::new();

    // Pinned vCPUs, vsnoop-base: ~75% of snoops filtered (Table IV).
    let pinned = {
        let mut sim = Simulator::try_new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast)
            .map_err(|e| e.to_string())?;
        let mut wl = storm_workload(&cfg, seed)?;
        sim.run(&mut wl, warmup);
        sim.reset_measurement();
        sim.run(&mut wl, rounds);
        norm_snoops(&sim, &cfg)
    };
    out.push_str(&format!(
        "  pinned vsnoop-base      {:>11}% of baseline snoops (paper: ~25%)\n",
        f1(100.0 * pinned)
    ));
    if !(0.20..=0.32).contains(&pinned) {
        failures.push(format!(
            "pinned vsnoop-base snoop shape off: {:.1}% (expected ~25%)",
            100.0 * pinned
        ));
    }

    // Counter scheme under 0.1 ms migrations: ~45% (Fig. 8).
    let migr = {
        let mut sim = Simulator::try_new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast)
            .map_err(|e| e.to_string())?;
        let mut wl = storm_workload(&cfg, seed)?;
        sim.run(&mut wl, warmup);
        sim.reset_measurement();
        let period = cfg.cycles_per_ms / 10; // 0.1 scaled ms
        sim.run_with_migration(&mut wl, rounds, period, cross_vm_picker(cfg, seed ^ 0x51A9));
        norm_snoops(&sim, &cfg)
    };
    out.push_str(&format!(
        "  counter @ 0.1ms storms  {:>11}% of baseline snoops (paper: ~45%)\n",
        f1(100.0 * migr)
    ));
    if !(0.30..=0.60).contains(&migr) {
        failures.push(format!(
            "counter@0.1ms snoop shape off: {:.1}% (expected ~45%)",
            100.0 * migr
        ));
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        Err(failures.join("; "))
    }
}

/// `SOAK_FORCE_VIOLATION=1` self-test: run briefly, enable the checker,
/// corrupt one cached line, sweep — the checker's `DirtyWithoutOwner`
/// finding triggers the observability layer's violation dump. The
/// checker comes on after the run, so the smoke also proves a sweep sees
/// lines cached before it. Always exits non-zero so CI failure paths
/// (artifact upload, verify.sh smoke) can be rehearsed deterministically.
fn forced_violation() -> ExitCode {
    vsnoop::obs::with_scope("forced", || {
        let cfg = SystemConfig::paper_default();
        let mut sim = match Simulator::try_new(cfg, FilterPolicy::Counter, ContentPolicy::Broadcast)
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("soak: {e}");
                return ExitCode::from(2);
            }
        };
        let mut wl = match storm_workload(&cfg, vsnoop::knob::soak_seed()) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("soak: {e}");
                return ExitCode::from(2);
            }
        };
        sim.run(&mut wl, 200);
        // Enabled only now: the sweep must see lines cached before it.
        sim.enable_checker(CheckerConfig::default());
        let Some(block) = sim.debug_corrupt_token_state() else {
            eprintln!("soak: forced violation found no cached line to corrupt");
            return ExitCode::from(2);
        };
        sim.run_checker_sweep();
        let violations = sim.checker().map_or(0, |c| c.total_violations());
        eprintln!(
            "soak: forced violation self-test: corrupted block {block}, \
             checker recorded {violations} violation(s)"
        );
        if violations == 0 {
            eprintln!("soak: forced violation did not trip the checker");
            return ExitCode::from(2);
        }
        if !vsnoop::obs::enabled() {
            eprintln!("soak: tracing is off — no flight dump was written (set VSNOOP_TRACE)");
        }
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    vsnoop_bench::init_obs();
    if vsnoop::knob::soak_force_violation() {
        return forced_violation();
    }
    let rounds = vsnoop::knob::soak_rounds();
    let seed = vsnoop::knob::soak_seed();
    let cfg = SystemConfig::paper_default();
    let period_cycles = (cfg.cycles_per_ms * PERIOD_MS_X100 / 100).max(1);

    let params = Value::obj([
        ("rounds", Value::UInt(rounds)),
        ("shape_rounds", Value::UInt(SHAPE_ROUNDS)),
        ("period_cycles", Value::UInt(period_cycles)),
    ]);
    let jobs = vec![
        Job::new("storm", seed, params.clone(), move |_ctx| {
            storm(rounds, seed, period_cycles)
        })
        .with_step_window(0, rounds),
        Job::new("shapes", seed, params, move |_ctx| {
            shapes(SHAPE_ROUNDS, seed)
        })
        .with_step_window(0, SHAPE_ROUNDS),
    ];
    let dir = std::path::PathBuf::from("target/campaign/soak");
    let runner_cfg = RunnerConfig {
        workers: 2,
        journal_path: Some(dir.join("journal.jsonl")),
        repro_dir: Some(dir.clone()),
        ..RunnerConfig::default()
    };
    let report = match run_campaign(&jobs, &runner_cfg, &mut |msg| eprintln!("[soak] {msg}")) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("soak aborted: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.merged_output());
    if let Err(e) = Journal::write_merged(&dir.join("merged.jsonl"), &report.entries()) {
        eprintln!("soak: writing merged.jsonl: {e}");
    }

    println!();
    if report.all_ok() {
        println!("SOAK PASS: zero invariant violations, all fault classes exercised.");
        ExitCode::SUCCESS
    } else {
        for r in &report.records {
            if let Err(e) = &r.outcome {
                println!("SOAK FAIL [{}]: {e}", r.spec.name);
            }
        }
        ExitCode::FAILURE
    }
}
