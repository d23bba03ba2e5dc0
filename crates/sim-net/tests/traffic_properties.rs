//! Property-based tests of [`TrafficStats`] sharding: the parallel
//! engine records each shard's traffic into a private `TrafficStats`
//! lens and folds the lenses back with [`TrafficStats::merge`], so a
//! sharded accumulation must equal serial accumulation of the same
//! message sequence — counters and overflow flag alike — for *any*
//! assignment of messages to shards.

use proptest::prelude::*;
use sim_net::{MessageKind, TrafficStats};

fn kind(i: u8) -> MessageKind {
    MessageKind::ALL[i as usize % MessageKind::ALL.len()]
}

proptest! {
    #[test]
    fn shard_merged_stats_equal_serial(
        msgs in prop::collection::vec((any::<u8>(), 0u32..64, any::<u8>()), 0..300),
        n_shards in 1usize..9,
    ) {
        let mut serial = TrafficStats::default();
        let mut shards = vec![TrafficStats::default(); n_shards];
        for &(k, hops, shard) in &msgs {
            serial.record(kind(k), hops);
            shards[shard as usize % n_shards].record(kind(k), hops);
        }
        let mut merged = TrafficStats::default();
        for s in &shards {
            merged.merge(s);
        }
        prop_assert_eq!(merged, serial);
        prop_assert!(!merged.overflowed());
    }

    #[test]
    fn shard_merge_batches_equal_serial_batches(
        batches in prop::collection::vec(
            (any::<u8>(), 0u64..10_000, 0u64..50, any::<u8>()),
            0..200,
        ),
        n_shards in 1usize..9,
    ) {
        let mut serial = TrafficStats::default();
        let mut shards = vec![TrafficStats::default(); n_shards];
        for &(k, total_hops, messages, shard) in &batches {
            serial.record_batch(kind(k), total_hops, messages);
            shards[shard as usize % n_shards].record_batch(kind(k), total_hops, messages);
        }
        let mut merged = TrafficStats::default();
        for s in &shards {
            merged.merge(s);
        }
        prop_assert_eq!(merged, serial);
    }

    #[test]
    fn merge_saturates_and_flags_like_serial_accumulation(
        pre in any::<u64>(),
        k in any::<u8>(),
    ) {
        // Drive one shard near the ceiling, then merge a second: the sum
        // must saturate (never wrap) and latch the overflow flag exactly
        // when serial accumulation of the same records would.
        let mut a = TrafficStats::default();
        a.record_batch(kind(k), pre, 1);
        let mut b = TrafficStats::default();
        b.record_batch(kind(k), u64::MAX / 8, 1);

        let mut serial = TrafficStats::default();
        serial.record_batch(kind(k), pre, 1);
        serial.record_batch(kind(k), u64::MAX / 8, 1);

        a.merge(&b);
        prop_assert_eq!(a.byte_links(), serial.byte_links());
        prop_assert_eq!(a.overflowed(), serial.overflowed());
        prop_assert!(a.byte_links() >= std::cmp::max(b.byte_links(), 1) - 1);
    }
}
