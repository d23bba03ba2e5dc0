//! Differential guard: the optimized mask-based protocol engine must
//! agree with the token core of the executable specification
//! (`vsnoop_spec::Tokens`), which keeps every token and line in plain
//! collections and probes every cache.
//!
//! A long, seeded, pseudo-random transaction storm, failing attempts
//! included, is applied to both in lockstep. After *every* transaction
//! the outcomes and the touched blocks' lines and ledger entries must
//! agree, and every few transactions both cache arrays and the whole
//! memory-side ledger — so a divergence is caught at the first
//! transaction that exhibits it, not at the end of the run.

use sim_mem::{
    BlockAddr, Cache, CacheGeometry, DataSource, LineTag, ReadMode, TokenLedger, TokenProtocol,
};
use sim_vm::VmId;
use vsnoop_spec as spec;

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

type LineKey = (u64, u32, bool, bool, spec::Tag);

fn spec_tag(tag: LineTag) -> spec::Tag {
    match tag {
        LineTag::Vm(vm) => spec::Tag::Vm(vm.index()),
        LineTag::Host => spec::Tag::Host,
    }
}

fn key(l: &sim_mem::CacheLine) -> LineKey {
    let s = l.state;
    (l.block.index(), s.tokens, s.owner, s.dirty, spec_tag(l.tag))
}

fn spec_key(l: &spec::Line) -> LineKey {
    (l.block, l.tokens, l.owner, l.dirty, l.tag)
}

fn spec_source(s: Option<DataSource>) -> Option<spec::Source> {
    s.map(|s| match s {
        DataSource::Cache(c) => spec::Source::Cache(c),
        DataSource::Memory => spec::Source::Memory,
    })
}

/// The lines of `block` in every cache and its ledger entry agree.
fn assert_same_block(
    step: usize,
    fast: &TokenProtocol,
    caches: &[Cache],
    model: &spec::Tokens,
    block: BlockAddr,
) {
    for (i, c) in caches.iter().enumerate() {
        assert_eq!(
            c.probe(block).map(key),
            model.cache(i).get(block.index()).map(spec_key),
            "cache {i}'s line for {block:?} diverged at step {step}"
        );
    }
    let entry = model.memory().into_iter().find(|e| e.0 == block.index());
    assert_eq!(
        fast.memory_state(block),
        entry.map_or((fast.total_tokens(), true), |(_, t, o)| (t, o)),
        "ledger entry for {block:?} diverged at step {step}"
    );
}

fn assert_same_state(step: usize, fast: &TokenProtocol, caches: &[Cache], model: &spec::Tokens) {
    let ledger: Vec<_> = fast
        .memory_entries_sorted()
        .into_iter()
        .map(|(b, t, o)| (b.index(), t, o))
        .collect();
    assert_eq!(ledger, model.memory(), "ledgers diverged at step {step}");
    assert_eq!(fast.memory_entry_count(), ledger.len());
    for (i, c) in caches.iter().enumerate() {
        let mut lines: Vec<_> = c.lines().map(key).collect();
        let mut expected: Vec<_> = model.cache(i).lines().map(spec_key).collect();
        lines.sort_unstable_by_key(|l| l.0);
        expected.sort_unstable_by_key(|l| l.0);
        assert_eq!(lines, expected, "cache {i} diverged at step {step}");
    }
}

#[test]
fn optimized_engine_matches_reference_over_random_storm() {
    const CORES: usize = 16;
    const STEPS: usize = 40_000;
    let geo = CacheGeometry::new(16 * 1024, 4); // small: plenty of evictions
    let mut caches = vec![Cache::new(geo, 4); CORES];
    let mut fast = TokenProtocol::new(CORES as u32);
    let lines = (geo.lines() as usize, geo.ways());
    let mut model = spec::Tokens::new(
        CORES as u32,
        vec![spec::Cache::new(lines.0, lines.1); CORES],
    );
    let mut rng = Rng::new(0xD1FF_50AC);
    let (mut failed, mut evicted) = (0, 0);

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

        let (fast_out, model_out) = if rng.below(3) == 0 {
            let w = fast.write_miss(&mut caches, requester, &dests, block, include_memory, tag);
            let m = model.write(
                requester,
                &dests,
                block.index(),
                include_memory,
                spec_tag(tag),
            );
            assert_eq!(
                w.token_repliers, m.token_repliers,
                "token repliers at {step}"
            );
            assert_eq!(w.bounced, m.bounced, "write bounced at {step}");
            assert_eq!(w.snooped, dests.len());
            let out = (
                w.success,
                w.source,
                w.invalidated,
                w.evicted,
                w.evicted_dirty,
            );
            (out, m)
        } else {
            // Skip reads on blocks the requester caches (API precondition).
            if caches[requester].probe(block).is_some() {
                assert!(model.cache(requester).get(block.index()).is_some());
                continue;
            }
            let clean = rng.below(4) == 0;
            let mode = if clean {
                ReadMode::CleanShared
            } else {
                ReadMode::Strict
            };
            let r = fast.read_miss(
                &mut caches,
                requester,
                &dests,
                block,
                include_memory,
                tag,
                mode,
            );
            let m = model.read(
                requester,
                &dests,
                block.index(),
                include_memory,
                spec_tag(tag),
                clean,
            );
            assert_eq!(r.snooped, dests.len());
            (
                (
                    r.success,
                    r.source,
                    r.invalidated,
                    r.evicted,
                    r.evicted_dirty,
                ),
                m,
            )
        };
        let (success, source, invalidated, victim, victim_dirty) = fast_out;
        assert_eq!(success, model_out.success, "success at {step}");
        assert_eq!(spec_source(source), model_out.source, "source at {step}");
        assert_eq!(
            invalidated, model_out.invalidated,
            "invalidations at {step}"
        );
        assert_eq!(
            victim.as_ref().map(key),
            model_out.evicted.as_ref().map(spec_key),
            "eviction at {step}"
        );
        assert_eq!(
            victim_dirty, model_out.evicted_dirty,
            "eviction dirt at {step}"
        );
        failed += usize::from(!success);
        evicted += usize::from(victim.is_some());

        assert!(fast.check_invariant(&caches, block), "fast invariant");
        assert_same_block(step, &fast, &caches, &model, block);
        if let Some(v) = victim {
            assert_same_block(step, &fast, &caches, &model, v.block);
        }
        // The full dumps every few transactions still localize a
        // divergence the per-block checks miss to a handful of steps.
        if step % 13 == 0 || step + 1 == STEPS {
            assert_same_state(step, &fast, &caches, &model);
        }
    }
    // The storm must have failed attempts, evictions and non-trivial
    // state left behind for the comparison to mean anything.
    assert!(failed > 0 && evicted > 0);
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
