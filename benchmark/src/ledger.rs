//! The step-cost ledger: what one simulated access step costs, as
//! named terms that add up.
//!
//! Every row is a probe cost times how often a step performs that
//! operation — exact counts from `SimStats` and `TrafficStats` over the
//! checked windows — except `checker_ns` and `fault_ns`, which are
//! measured by twin windows with that machinery off, and `residual_ns`,
//! which is what the model does not explain. By construction the rows
//! sum to `simulator.ns_per_step`; `ledger.coverage` says how much of
//! that the modelled rows carry.

use crate::probes::LayerCosts;
use crate::sim::Counts;
use crate::Report;

/// The modelled rows, in nanoseconds per step.
#[derive(Debug, PartialEq)]
pub struct Rows {
    pub gen: f64,
    pub classify: f64,
    pub l1: f64,
    pub l2: f64,
    pub transaction: f64,
    pub traffic: f64,
}

impl Rows {
    pub fn sum(&self) -> f64 {
        self.gen + self.classify + self.l1 + self.l2 + self.transaction + self.traffic
    }
}

/// The operation mix of a step, as shares and rates per step.
pub struct Mix {
    pub l1_hit: f64,
    pub l2_hit: f64,
    pub miss: f64,
    /// Transaction attempts per step: misses plus retries.
    pub attempts: f64,
    pub snoops_per_miss: f64,
    pub msgs: f64,
}

impl Mix {
    pub fn of(c: &Counts) -> Mix {
        let n = c.steps();
        let s = &c.stats;
        Mix {
            l1_hit: s.l1_hits as f64 / n,
            l2_hit: s.l2_hits as f64 / n,
            miss: s.l2_misses as f64 / n,
            attempts: (s.l2_misses + s.retries) as f64 / n,
            snoops_per_miss: c.snoops_per_miss(),
            msgs: c.messages as f64 / n,
        }
    }
}

pub fn model(k: &LayerCosts, m: &Mix) -> Rows {
    // Where this workload's fan-out sits between the quadrant (3 other
    // caches) and the broadcast (15) the probes measured.
    let dests = (m.snoops_per_miss - 1.0).max(0.0);
    let fan = ((dests - 3.0) / 12.0).clamp(0.0, 1.0);
    let between = |lo: f64, hi: f64| lo + fan * (hi - lo);
    let past_l1 = 1.0 - m.l1_hit;
    let read = between(k.read_filtered, k.read_bcast);
    let write = between(k.write_filtered, k.write_bcast);
    // Every attempt multicasts its request; the messages left over
    // (data, token replies, memory legs, write-backs) are point to point.
    let unicasts = (m.msgs - m.attempts * dests).max(0.0);
    Rows {
        gen: k.next_access,
        classify: k.tlb_hit_share * k.tlb_hit + (1.0 - k.tlb_hit_share) * k.tlb_miss,
        l1: m.l1_hit * k.cache_hit + past_l1 * k.cache_miss,
        l2: m.l2_hit * k.cache_hit + m.miss * k.cache_miss,
        transaction: m.attempts * ((1.0 - k.write_share) * read + k.write_share * write),
        traffic: m.attempts * between(k.multicast_quadrant, k.multicast_bcast)
            + unicasts * k.unicast,
    }
}

/// Reports the ledger of one simulator workload.
pub fn fill(
    report: &mut Report,
    k: &LayerCosts,
    counts: &Counts,
    measured_ns: f64,
    checker_ns: f64,
    fault_ns: f64,
) {
    let rows = model(k, &Mix::of(counts));
    let modelled = rows.sum() + checker_ns + fault_ns;
    report.layer("ledger.gen_ns", rows.gen);
    report.layer("ledger.classify_ns", rows.classify);
    report.layer("ledger.l1_ns", rows.l1);
    report.layer("ledger.l2_ns", rows.l2);
    report.layer("ledger.transaction_ns", rows.transaction);
    report.layer("ledger.traffic_ns", rows.traffic);
    report.layer("ledger.checker_ns", checker_ns);
    report.layer("ledger.fault_ns", fault_ns);
    report.layer("ledger.residual_ns", measured_ns - modelled);
    report.layer("ledger.coverage", modelled / measured_ns);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> LayerCosts {
        LayerCosts {
            next_access: 10.0,
            tlb_hit: 1.0,
            tlb_miss: 11.0,
            cache_hit: 2.0,
            cache_miss: 4.0,
            read_filtered: 100.0,
            read_bcast: 220.0,
            write_filtered: 200.0,
            write_bcast: 320.0,
            multicast_quadrant: 10.0,
            multicast_bcast: 22.0,
            unicast: 5.0,
            tlb_hit_share: 0.9,
            write_share: 0.5,
        }
    }

    #[test]
    fn rows_sum_to_the_measured_step_by_construction() {
        let mut stats = vsnoop::SimStats::new(16);
        stats.accesses = 1000;
        stats.l1_hits = 800;
        stats.l2_hits = 100;
        stats.l2_misses = 100;
        stats.snoops = 1000;
        stats.retries = 5;
        let counts = Counts {
            stats,
            byte_links: 40_000,
            messages: 1200,
        };
        let mut report = Report::default();
        fill(&mut report, &costs(), &counts, 80.0, 3.0, 2.0);
        let get = |n: &str| report.values.iter().find(|v| v.name == n).unwrap().value;
        let rows: f64 = [
            "gen",
            "classify",
            "l1",
            "l2",
            "transaction",
            "traffic",
            "checker",
            "fault",
            "residual",
        ]
        .iter()
        .map(|r| get(&format!("ledger.{r}_ns")))
        .sum();
        assert!((rows - 80.0).abs() < 1e-9, "rows sum to {rows}");
        assert!((get("ledger.coverage") - (80.0 - get("ledger.residual_ns")) / 80.0).abs() < 1e-12);
    }

    #[test]
    fn filtered_and_broadcast_fan_outs_pick_their_probe() {
        let mut mix = Mix {
            l1_hit: 0.8,
            l2_hit: 0.1,
            miss: 0.1,
            attempts: 0.1,
            snoops_per_miss: 4.0,
            msgs: 0.5,
        };
        let r = model(&costs(), &mix);
        assert_eq!(r.gen, 10.0);
        assert!((r.classify - 2.0).abs() < 1e-12);
        assert!((r.l1 - (0.8 * 2.0 + 0.2 * 4.0)).abs() < 1e-12);
        assert!((r.l2 - (0.1 * 2.0 + 0.1 * 4.0)).abs() < 1e-12);
        assert!((r.transaction - 0.1 * 150.0).abs() < 1e-12);
        // 0.1 attempts x 3 destinations are multicast; 0.2 msgs remain.
        assert!((r.traffic - (0.1 * 10.0 + 0.2 * 5.0)).abs() < 1e-12);

        mix.snoops_per_miss = 16.0;
        mix.msgs = 1.7;
        let r = model(&costs(), &mix);
        assert!((r.transaction - 0.1 * 270.0).abs() < 1e-12);
        assert!((r.traffic - (0.1 * 22.0 + 0.2 * 5.0)).abs() < 1e-12);

        // Half way between the two fan-outs interpolates.
        mix.snoops_per_miss = 10.0;
        let r = model(&costs(), &mix);
        assert!((r.transaction - 0.1 * 210.0).abs() < 1e-12);
    }
}
