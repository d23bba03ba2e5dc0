//! Property-based tests of the mesh topology and traffic accounting.

use proptest::prelude::*;
use sim_net::{Mesh, MessageKind, Network, NodeId, TrafficStats};

proptest! {
    #[test]
    fn hops_form_a_metric(
        w in 1usize..8, h in 1usize..8,
        a in 0u16..64, b in 0u16..64, c in 0u16..64,
    ) {
        let m = Mesh::new(w, h);
        let n = (w * h) as u16;
        let (a, b, c) = (NodeId::new(a % n), NodeId::new(b % n), NodeId::new(c % n));
        // Identity, symmetry, triangle inequality.
        prop_assert_eq!(m.hops(a, a), 0);
        prop_assert_eq!(m.hops(a, b), m.hops(b, a));
        prop_assert!(m.hops(a, c) <= m.hops(a, b) + m.hops(b, c));
        // Bounded by the mesh diameter.
        prop_assert!(m.hops(a, b) as usize <= (w - 1) + (h - 1));
    }

    #[test]
    fn coords_roundtrip(w in 1usize..8, h in 1usize..8) {
        let m = Mesh::new(w, h);
        for node in m.nodes() {
            let (x, y) = m.coords(node);
            prop_assert_eq!(m.node_at(x, y), node);
        }
    }

    #[test]
    fn nearest_port_minimizes_distance(w in 2usize..6, h in 2usize..6, i in 0u16..36) {
        let m = Mesh::new(w, h);
        let node = NodeId::new(i % (w * h) as u16);
        let ports = m.corner_ports();
        let chosen = m.nearest_port(node, &ports);
        for &p in &ports {
            prop_assert!(m.hops(node, chosen) <= m.hops(node, p));
        }
    }

    #[test]
    fn traffic_is_additive(
        msgs in prop::collection::vec((0usize..6, 0u32..12), 0..60),
    ) {
        let kinds = MessageKind::ALL;
        let mut all = TrafficStats::default();
        let mut first = TrafficStats::default();
        let mut second = TrafficStats::default();
        for (i, &(k, hops)) in msgs.iter().enumerate() {
            all.record(kinds[k], hops);
            if i % 2 == 0 {
                first.record(kinds[k], hops);
            } else {
                second.record(kinds[k], hops);
            }
        }
        first.merge(&second);
        prop_assert_eq!(first.byte_links(), all.byte_links());
        prop_assert_eq!(first.messages(), all.messages());
        // Per-kind totals also agree.
        for k in MessageKind::ALL {
            prop_assert_eq!(first.byte_links_of(k), all.byte_links_of(k));
        }
    }

    #[test]
    fn batched_record_matches_naive_per_unicast(
        k in 0usize..6,
        hops in prop::collection::vec(0u32..12, 0..40),
    ) {
        let kind = MessageKind::ALL[k % MessageKind::ALL.len()];
        // Naive model: every destination of a multicast is its own
        // unicast, recorded one at a time.
        let mut naive = TrafficStats::default();
        for &h in &hops {
            naive.record(kind, h);
        }
        // Batched form: one call with the hop total and message count.
        let mut batched = TrafficStats::default();
        batched.record_batch(
            kind,
            hops.iter().map(|&h| u64::from(h)).sum(),
            hops.len() as u64,
        );
        // `bytes * sum(hops) == sum(bytes * hops)` exactly in u64, so the
        // whole statistics block must be identical, not merely close.
        prop_assert_eq!(batched, naive);
    }

    #[test]
    fn multicast_traffic_equals_sum_of_unicasts(
        w in 2usize..5, h in 2usize..5,
        src in 0u16..25,
        mask in 0u32..u32::MAX,
    ) {
        let m = Mesh::new(w, h);
        let n = (w * h) as u16;
        let src = NodeId::new(src % n);
        let dests: Vec<NodeId> = (0..n)
            .filter(|&i| i != src.index() as u16 && mask & (1 << (i % 32)) != 0)
            .map(NodeId::new)
            .collect();

        let mut net_multi = Network::new(m);
        net_multi.multicast(src, dests.iter().copied(), MessageKind::Request);

        let mut net_uni = Network::new(m);
        for &d in &dests {
            net_uni.unicast(src, d, MessageKind::Request);
        }
        prop_assert_eq!(
            net_multi.traffic().byte_links(),
            net_uni.traffic().byte_links()
        );
    }
}
