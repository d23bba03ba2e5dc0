//! Token-coherence invariants under adversarial snoop destination sets.
//!
//! Invariants checked over operation sequences with arbitrary (possibly
//! wrong) destination sets:
//!
//! 1. Token conservation: for every block, cache tokens + memory tokens
//!    equal the total.
//! 2. At most one owner per block.
//! 3. Residence counters always equal the scan count of tagged lines.
//! 4. A *broadcast* request always succeeds (the forward-progress
//!    guarantee behind persistent requests), even right after a storm of
//!    failed partial-destination transients (the safe-retry property).
//!
//! The deterministic seeded-loop tests below come with randomized
//! property-based versions in the [`randomized`] module.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_mem::{BlockAddr, Cache, CacheGeometry, LineTag, ReadMode, TokenProtocol};
use sim_vm::VmId;

const N_CORES: usize = 8;
const N_VMS: usize = 4;
const N_BLOCKS: u64 = 24;

fn dests_from_mask(core: usize, mask: u8) -> Vec<usize> {
    (0..N_CORES)
        .filter(|&c| c != core && mask & (1 << c) != 0)
        .collect()
}

fn check_all(caches: &[Cache], tp: &TokenProtocol) {
    for b in 0..N_BLOCKS {
        let b = BlockAddr::new(b);
        assert!(
            tp.check_invariant(caches, b),
            "token invariant broken for block {b:?}"
        );
        // The premise of the protocol's ledger skip: tokens away from
        // memory exactly when some cache holds the block.
        assert_eq!(
            tp.memory_tokens(b) < tp.total_tokens(),
            caches.iter().any(|c| c.probe(b).is_some()),
            "ledger and caches disagree on whether {b:?} is cached"
        );
    }
    for (i, c) in caches.iter().enumerate() {
        for vm in 0..N_VMS {
            let id = VmId::new(vm as u16);
            let scan = c.lines().filter(|l| l.tag == LineTag::Vm(id)).count() as u64;
            assert_eq!(
                c.residence(id),
                scan,
                "residence counter of {id} on cache {i} diverged"
            );
        }
        let host_scan = c.lines().filter(|l| l.tag == LineTag::Host).count() as u64;
        assert_eq!(c.host_residence(), host_scan);
    }
}

/// A deterministic seeded storm of misses with adversarial destination
/// subsets: whatever subset of cores a (possibly broken) filter picks,
/// the engine must conserve tokens, keep a single owner, and keep the
/// residence counters exact. Eight seeds, 400 operations each, invariants
/// checked after every single operation.
#[test]
fn adversarial_destination_sets_preserve_invariants() {
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(0xA11C_E5ED ^ seed);
        // A small cache so evictions actually happen.
        let mut caches = vec![Cache::new(CacheGeometry::new(4 * 2 * 64, 2), N_VMS); N_CORES];
        let mut tp = TokenProtocol::new(N_CORES as u32);

        for i in 0..400 {
            let core = rng.gen_range(0..N_CORES);
            let b = BlockAddr::new(rng.gen_range(0..N_BLOCKS));
            let mask: u8 = rng.gen();
            let include_memory = rng.gen_bool(0.5);
            let tag = LineTag::Vm(VmId::new((i % N_VMS) as u16));
            match rng.gen_range(0..3u32) {
                0 => {
                    // Read misses only make sense when the block is absent.
                    if caches[core].probe(b).is_none() {
                        let mode = if rng.gen_bool(0.5) {
                            ReadMode::CleanShared
                        } else {
                            ReadMode::Strict
                        };
                        let dests = dests_from_mask(core, mask);
                        let _ =
                            tp.read_miss(&mut caches, core, &dests, b, include_memory, tag, mode);
                    }
                }
                1 => {
                    let writable = caches[core]
                        .probe(b)
                        .is_some_and(|l| l.state.can_write(N_CORES as u32));
                    if !writable {
                        let dests = dests_from_mask(core, mask);
                        let _ = tp.write_miss(&mut caches, core, &dests, b, include_memory, tag);
                    }
                }
                _ => {
                    let writable = caches[core]
                        .probe(b)
                        .is_some_and(|l| l.state.can_write(N_CORES as u32));
                    if !writable {
                        let dests: Vec<usize> = (0..N_CORES).filter(|&c| c != core).collect();
                        let w = tp.write_miss(&mut caches, core, &dests, b, true, tag);
                        assert!(w.success, "broadcast write must always succeed");
                    }
                }
            }
            check_all(&caches, &tp);
        }
    }
}

/// The safe-retry property in isolation: partial-destination transients
/// are allowed to fail (tokens bounce to memory), but a subsequent full
/// broadcast including memory must *always* succeed, from any state the
/// failed transients can have left behind.
#[test]
fn broadcast_recovers_after_failed_transient_storm() {
    let mut rng = SmallRng::seed_from_u64(0xB0C3);
    let mut caches = vec![Cache::new(CacheGeometry::new(16 * 4 * 64, 4), N_VMS); N_CORES];
    let mut tp = TokenProtocol::new(N_CORES as u32);
    let tag = LineTag::Vm(VmId::new(0));

    for round in 0..64 {
        let b = BlockAddr::new(round % N_BLOCKS);
        // Storm of transients with adversarial (often empty, often
        // memory-less) destination sets — many of these fail.
        for _ in 0..4 {
            let core = rng.gen_range(0..N_CORES);
            let dests = dests_from_mask(core, rng.gen::<u8>());
            let include_memory = rng.gen_bool(0.25);
            if rng.gen_bool(0.5) {
                let _ = tp.write_miss(&mut caches, core, &dests, b, include_memory, tag);
            } else if caches[core].probe(b).is_none() {
                let _ = tp.read_miss(
                    &mut caches,
                    core,
                    &dests,
                    b,
                    include_memory,
                    tag,
                    ReadMode::Strict,
                );
            }
            check_all(&caches, &tp);
        }
        // Escalation: the broadcast-with-memory retry must succeed.
        let core = rng.gen_range(0..N_CORES);
        let dests: Vec<usize> = (0..N_CORES).filter(|&c| c != core).collect();
        let writable = caches[core]
            .probe(b)
            .is_some_and(|l| l.state.can_write(N_CORES as u32));
        if !writable {
            let w = tp.write_miss(&mut caches, core, &dests, b, true, tag);
            assert!(
                w.success,
                "escalated broadcast must succeed after failed transients (round {round})"
            );
        }
        check_all(&caches, &tp);
    }
}

/// Randomized property-based variants of the deterministic tests above
/// (vendored generation-only proptest shim; no shrinking).
mod randomized {
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Read {
            core: usize,
            block: u64,
            dest_mask: u8,
            include_memory: bool,
            clean: bool,
        },
        Write {
            core: usize,
            block: u64,
            dest_mask: u8,
            include_memory: bool,
        },
        BroadcastWrite {
            core: usize,
            block: u64,
        },
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (
                0..N_CORES,
                0..N_BLOCKS,
                any::<u8>(),
                any::<bool>(),
                any::<bool>()
            )
                .prop_map(|(core, block, dest_mask, include_memory, clean)| Op::Read {
                    core,
                    block,
                    dest_mask,
                    include_memory,
                    clean
                }),
            (0..N_CORES, 0..N_BLOCKS, any::<u8>(), any::<bool>()).prop_map(
                |(core, block, dest_mask, include_memory)| Op::Write {
                    core,
                    block,
                    dest_mask,
                    include_memory
                }
            ),
            (0..N_CORES, 0..N_BLOCKS).prop_map(|(core, block)| Op::BroadcastWrite { core, block }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn protocol_preserves_invariants(ops in prop::collection::vec(op_strategy(), 1..200)) {
            // A small cache so evictions actually happen.
            let mut caches = vec![Cache::new(CacheGeometry::new(4 * 2 * 64, 2), N_VMS); N_CORES];
            let mut tp = TokenProtocol::new(N_CORES as u32);

            for (i, op) in ops.iter().enumerate() {
                let tag = LineTag::Vm(VmId::new((i % N_VMS) as u16));
                match *op {
                    Op::Read { core, block, dest_mask, include_memory, clean } => {
                        let b = BlockAddr::new(block);
                        let mode = if clean { ReadMode::CleanShared } else { ReadMode::Strict };
                        // Read misses only make sense when the block is absent.
                        if caches[core].probe(b).is_none() {
                            let dests = dests_from_mask(core, dest_mask);
                            let _ = tp.read_miss(&mut caches, core, &dests, b, include_memory, tag, mode);
                        }
                    }
                    Op::Write { core, block, dest_mask, include_memory } => {
                        let b = BlockAddr::new(block);
                        let writable = caches[core]
                            .probe(b)
                            .is_some_and(|l| l.state.can_write(N_CORES as u32));
                        if !writable {
                            let dests = dests_from_mask(core, dest_mask);
                            let _ = tp.write_miss(&mut caches, core, &dests, b, include_memory, tag);
                        }
                    }
                    Op::BroadcastWrite { core, block } => {
                        let b = BlockAddr::new(block);
                        let writable = caches[core]
                            .probe(b)
                            .is_some_and(|l| l.state.can_write(N_CORES as u32));
                        if !writable {
                            let dests: Vec<usize> = (0..N_CORES).filter(|&c| c != core).collect();
                            let w = tp.write_miss(&mut caches, core, &dests, b, true, tag);
                            prop_assert!(w.success, "broadcast write must always succeed");
                        }
                    }
                }
                check_all(&caches, &tp);
            }
        }

        #[test]
        fn broadcast_read_always_succeeds(
            writes in prop::collection::vec((0..N_CORES, 0..N_BLOCKS), 0..40),
            reader in 0..N_CORES,
            block in 0..N_BLOCKS,
        ) {
            let mut caches = vec![Cache::new(CacheGeometry::new(16 * 4 * 64, 4), N_VMS); N_CORES];
            let mut tp = TokenProtocol::new(N_CORES as u32);
            let tag = LineTag::Vm(VmId::new(0));
            for (core, b) in writes {
                let b = BlockAddr::new(b);
                let dests: Vec<usize> = (0..N_CORES).filter(|&c| c != core).collect();
                let writable = caches[core]
                    .probe(b)
                    .is_some_and(|l| l.state.can_write(N_CORES as u32));
                if !writable {
                    let _ = tp.write_miss(&mut caches, core, &dests, b, true, tag);
                }
            }
            let b = BlockAddr::new(block);
            if caches[reader].probe(b).is_none() {
                let dests: Vec<usize> = (0..N_CORES).filter(|&c| c != reader).collect();
                let r = tp.read_miss(&mut caches, reader, &dests, b, true, tag, ReadMode::Strict);
                prop_assert!(r.success, "broadcast read must always succeed");
            }
        }
    }
}
