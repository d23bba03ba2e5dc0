//! Differential guard: the optimized mask-based protocol engine must
//! behave bit-identically to the frozen pre-optimization reference.
//!
//! A long, seeded, pseudo-random transaction storm is applied to both
//! engines in lockstep. After *every* transaction the outcomes, both
//! cache arrays, and the memory-side token ledgers must agree exactly —
//! so a divergence is caught at the first transaction that exhibits it,
//! not at the end of the run.

use sim_mem::{
    BlockAddr, Cache, CacheGeometry, LineTag, ReadMode, ReferenceProtocol, TokenLedger,
    TokenProtocol,
};
use sim_vm::VmId;

/// The xorshift* generator the workloads crate vendors; reproduced here
/// so this test is self-contained and deterministic.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn line_key(c: &Cache) -> Vec<(BlockAddr, u32, bool, bool, LineTag)> {
    let mut v: Vec<_> = c
        .lines()
        .map(|l| (l.block, l.state.tokens, l.state.owner, l.state.dirty, l.tag))
        .collect();
    v.sort_unstable_by_key(|&(b, ..)| b);
    v
}

fn assert_same_state(
    step: usize,
    fast: &TokenProtocol,
    reference: &ReferenceProtocol,
    fast_caches: &[Cache],
    ref_caches: &[Cache],
) {
    assert_eq!(
        fast.memory_entries_sorted(),
        reference.memory_entries_sorted(),
        "ledgers diverged at step {step}"
    );
    assert_eq!(
        fast.memory_entry_count(),
        reference.memory_entry_count(),
        "ledger entry counts diverged at step {step}"
    );
    for (i, (f, r)) in fast_caches.iter().zip(ref_caches).enumerate() {
        assert_eq!(
            line_key(f),
            line_key(r),
            "cache {i} diverged at step {step}"
        );
        assert_eq!(f.stats(), r.stats(), "cache {i} stats at step {step}");
    }
}

#[test]
fn optimized_engine_matches_reference_over_random_storm() {
    const CORES: usize = 16;
    const STEPS: usize = 40_000;
    let geo = CacheGeometry::new(16 * 1024, 4); // small: plenty of evictions
    let mut fast_caches = vec![Cache::new(geo, 4); CORES];
    let mut ref_caches = vec![Cache::new(geo, 4); CORES];
    let mut fast = TokenProtocol::new(CORES as u32);
    let mut reference = ReferenceProtocol::new(CORES as u32);
    let mut rng = Rng::new(0xD1FF_50AC);

    for step in 0..STEPS {
        let requester = rng.below(CORES as u64) as usize;
        let block = BlockAddr::new(rng.below(2048));
        let tag = LineTag::Vm(VmId::new((requester / 4) as u16));
        let include_memory = rng.below(8) != 0;
        // Random destination subset (ascending order, like the simulator
        // always produces), occasionally empty, occasionally broadcast.
        let subset = match rng.below(4) {
            0 => u64::MAX,
            _ => rng.next(),
        };
        let dests: Vec<usize> = (0..CORES)
            .filter(|&c| c != requester && subset & (1 << c) != 0)
            .collect();

        let is_write = rng.below(3) == 0;
        if is_write {
            let w_fast = fast.write_miss(
                &mut fast_caches,
                requester,
                &dests,
                block,
                include_memory,
                tag,
            );
            let w_ref = reference.write_miss(
                &mut ref_caches,
                requester,
                &dests,
                block,
                include_memory,
                tag,
            );
            assert_eq!(w_fast.success, w_ref.success, "write success at {step}");
            assert_eq!(w_fast.source, w_ref.source, "write source at {step}");
            assert_eq!(
                w_fast.token_repliers, w_ref.token_repliers,
                "token repliers at {step}"
            );
            assert_eq!(
                w_fast.invalidated, w_ref.invalidated,
                "write invalidations at {step}"
            );
            assert_eq!(w_fast.snooped, w_ref.snooped, "write snooped at {step}");
            assert_eq!(w_fast.bounced, w_ref.bounced, "write bounced at {step}");
            assert_eq!(
                w_fast.evicted.map(|l| l.block),
                w_ref.evicted.map(|l| l.block),
                "write eviction at {step}"
            );
            assert_eq!(w_fast.evicted_dirty, w_ref.evicted_dirty);
        } else {
            // Skip reads on blocks the requester caches (API precondition).
            if fast_caches[requester].probe(block).is_some() {
                assert!(ref_caches[requester].probe(block).is_some());
                continue;
            }
            let mode = if rng.below(4) == 0 {
                ReadMode::CleanShared
            } else {
                ReadMode::Strict
            };
            let r_fast = fast.read_miss(
                &mut fast_caches,
                requester,
                &dests,
                block,
                include_memory,
                tag,
                mode,
            );
            let r_ref = reference.read_miss(
                &mut ref_caches,
                requester,
                &dests,
                block,
                include_memory,
                tag,
                mode,
            );
            assert_eq!(r_fast.success, r_ref.success, "read success at {step}");
            assert_eq!(r_fast.source, r_ref.source, "read source at {step}");
            assert_eq!(
                r_fast.invalidated, r_ref.invalidated,
                "read invalidations at {step}"
            );
            assert_eq!(r_fast.snooped, r_ref.snooped, "read snooped at {step}");
            assert_eq!(
                r_fast.evicted.map(|l| l.block),
                r_ref.evicted.map(|l| l.block),
                "read eviction at {step}"
            );
            assert_eq!(r_fast.evicted_dirty, r_ref.evicted_dirty);
        }

        assert!(fast.check_invariant(&fast_caches, block), "fast invariant");
        assert!(
            reference.check_invariant(&ref_caches, block),
            "reference invariant"
        );
        // Outcomes are compared every transaction; the (expensive) full
        // state dump every few transactions still localizes a divergence
        // to within a handful of steps.
        if step % 13 == 0 || step + 1 == STEPS {
            assert_same_state(step, &fast, &reference, &fast_caches, &ref_caches);
        }
    }
    // The storm must have left non-trivial state behind for the
    // comparison to mean anything.
    assert!(!fast.memory_entries_sorted().is_empty());
}

#[test]
fn masked_and_slice_apis_agree() {
    const CORES: usize = 8;
    let geo = CacheGeometry::new(8 * 1024, 4);
    let mut a_caches = vec![Cache::new(geo, 4); CORES];
    let mut b_caches = vec![Cache::new(geo, 4); CORES];
    let mut a = TokenProtocol::new(CORES as u32);
    let mut b = TokenProtocol::new(CORES as u32);
    let mut rng = Rng::new(0xBEEF);

    for step in 0..5_000 {
        let requester = rng.below(CORES as u64) as usize;
        let block = BlockAddr::new(rng.below(512));
        let tag = LineTag::Vm(VmId::new(0));
        let subset = rng.next() & !(1u64 << requester) & ((1 << CORES) - 1);
        let dests: Vec<usize> = (0..CORES).filter(|&c| subset & (1 << c) != 0).collect();
        if rng.below(2) == 0 {
            let w1 = a.write_miss(&mut a_caches, requester, &dests, block, true, tag);
            let w2 =
                b.write_miss_masked(b_caches.as_mut_slice(), requester, subset, block, true, tag);
            assert_eq!(w1.success, w2.success, "step {step}");
            assert_eq!(
                w1.invalidated,
                sim_mem::mask_cores(w2.invalidated).collect::<Vec<_>>()
            );
            assert_eq!(
                w1.token_repliers,
                sim_mem::mask_cores(w2.token_repliers).collect::<Vec<_>>()
            );
        } else {
            if a_caches[requester].probe(block).is_some() {
                continue;
            }
            let r1 = a.read_miss(
                &mut a_caches,
                requester,
                &dests,
                block,
                true,
                tag,
                ReadMode::Strict,
            );
            let r2 = b.read_miss_masked(
                b_caches.as_mut_slice(),
                requester,
                subset,
                block,
                true,
                tag,
                ReadMode::Strict,
            );
            assert_eq!(r1.success, r2.success, "step {step}");
            assert_eq!(r1.source, r2.source, "step {step}");
            assert_eq!(
                r1.invalidated,
                sim_mem::mask_cores(r2.invalidated).collect::<Vec<_>>()
            );
        }
        assert_eq!(a.memory_entries_sorted(), b.memory_entries_sorted());
    }
}
