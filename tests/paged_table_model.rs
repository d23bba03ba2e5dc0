//! `PagedTable` and the two structures built on it — `sim-mem`'s
//! `TokenMemory` ledger and `sim-vm`'s `SharingDirectory` — against
//! `HashMap` models, under seeded random operations on dense keys (the
//! block and page numbers `MemoryMap` hands out from zero) and sparse
//! keys up to `u64::MAX`.

use std::collections::{HashMap, HashSet};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_mem::{BlockAddr, TokenMemory};
use sim_vm::{PagedTable, SharingDirectory, SharingType, VmId};

const DENSE_KEYS: u64 = 20_000;
const OPS: usize = 40_000;

/// Draws dense keys and keys from a fixed pool of sparse ones.
struct Keys {
    sparse: Vec<u64>,
}

impl Keys {
    fn new(rng: &mut SmallRng) -> Self {
        let mut sparse: Vec<u64> = (0..48).map(|_| rng.gen::<u64>()).collect();
        sparse.extend([u64::MAX, u64::MAX >> 1, 1 << 63, DENSE_KEYS << 20]);
        Keys { sparse }
    }

    fn sparse(&self, rng: &mut SmallRng) -> u64 {
        self.sparse[rng.gen_range(0..self.sparse.len())]
    }

    fn any(&self, rng: &mut SmallRng) -> u64 {
        if rng.gen_bool(0.5) {
            rng.gen_range(0..DENSE_KEYS)
        } else {
            self.sparse(rng)
        }
    }
}

#[test]
fn paged_table_matches_a_hashmap() {
    let mut rng = SmallRng::seed_from_u64(0x9A6E);
    let keys = Keys::new(&mut rng);
    let mut table: PagedTable<u32> = PagedTable::new();
    let mut model: HashMap<u64, u32> = HashMap::new();
    for _ in 0..OPS {
        let k = keys.any(&mut rng);
        if rng.gen_bool(0.5) {
            let v = rng.gen::<u32>();
            *table.get_mut(k) = v;
            model.insert(k, v);
        } else {
            assert_eq!(table.get(k), model.get(&k).copied().unwrap_or(0), "key {k}");
        }
    }
    for (&k, &v) in &model {
        assert_eq!(table.get(k), v, "key {k}");
    }
    let mut written: Vec<(u64, u32)> = table.iter().filter(|&(_, v)| v != 0).collect();
    let mut expected: Vec<(u64, u32)> = model.into_iter().filter(|&(_, v)| v != 0).collect();
    written.sort_unstable();
    expected.sort_unstable();
    assert_eq!(written, expected);
}

#[test]
fn sparse_keys_allocate_only_the_chunks_they_touch() {
    let mut rng = SmallRng::seed_from_u64(0x5BA5);
    let keys = Keys::new(&mut rng);
    let mut table: PagedTable<u8> = PagedTable::new();
    for _ in 0..1_000 {
        table.get(keys.any(&mut rng));
    }
    assert_eq!(table.chunks(), 0, "reads must not allocate");
    let mut touched = HashSet::new();
    for _ in 0..1_000 {
        let k = keys.sparse(&mut rng);
        *table.get_mut(k) = 1;
        touched.insert(k);
        // The pool's keys lie at least a chunk apart.
        assert_eq!(table.chunks(), touched.len());
    }
}

/// The ledger's model: `(tokens at memory, owner at memory)` per block.
struct LedgerModel {
    total: u32,
    blocks: HashMap<u64, (u32, bool)>,
}

impl LedgerModel {
    fn get(&self, b: u64) -> (u32, bool) {
        self.blocks.get(&b).copied().unwrap_or((self.total, true))
    }

    fn entries(&self) -> Vec<(BlockAddr, u32, bool)> {
        let mut v: Vec<_> = self
            .blocks
            .iter()
            .filter(|&(_, &e)| e != (self.total, true))
            .map(|(&b, &(t, o))| (BlockAddr::new(b), t, o))
            .collect();
        v.sort_unstable_by_key(|&(b, _, _)| b);
        v
    }
}

fn sorted_entries(m: &TokenMemory) -> Vec<(BlockAddr, u32, bool)> {
    let mut v: Vec<_> = m.entries().collect();
    v.sort_unstable_by_key(|&(b, _, _)| b);
    v
}

#[test]
fn token_memory_matches_a_hashmap() {
    for total in [4, 16, 64, 127] {
        let mut rng = SmallRng::seed_from_u64(0x70C3 ^ u64::from(total));
        let keys = Keys::new(&mut rng);
        let mut mem = TokenMemory::new(total);
        let mut model = LedgerModel {
            total,
            blocks: HashMap::new(),
        };
        for op in 0..OPS {
            let b = keys.any(&mut rng);
            let block = BlockAddr::new(b);
            let (tokens, owner) = model.get(b);
            match rng.gen_range(0..4u32) {
                0 => {
                    let n = rng.gen_range(0..total + 2);
                    let taken = tokens.min(n);
                    let owner_taken = owner && taken == tokens && taken > 0;
                    assert_eq!(mem.take(block, n), (taken, owner_taken));
                    model
                        .blocks
                        .insert(b, (tokens - taken, owner && !owner_taken));
                }
                1 => {
                    let n = rng.gen_range(0..total - tokens + 1);
                    let returns_owner = !owner && rng.gen_bool(0.5);
                    mem.put(block, n, returns_owner);
                    model.blocks.insert(b, (tokens + n, owner || returns_owner));
                }
                _ => {
                    assert_eq!(mem.tokens(block), tokens, "block {b}");
                    assert_eq!(mem.has_owner(block), owner, "block {b}");
                }
            }
            if op % 5_000 == 0 {
                assert_eq!(sorted_entries(&mem), model.entries());
            }
        }
        let expected = model.entries();
        assert!(!expected.is_empty());
        assert_eq!(sorted_entries(&mem), expected);

        for n_banks in [1, 2, 8] {
            let banks = mem.split(n_banks);
            assert_eq!(mem.entries().count(), 0, "split drains the ledger");
            let mask = n_banks as u64 - 1;
            for (k, bank) in banks.iter().enumerate() {
                assert_eq!(bank.total(), total);
                for (b, tokens, owner) in bank.entries() {
                    assert_eq!(b.index() & mask, k as u64, "bank {k} got block {b:?}");
                    assert_eq!(model.get(b.index()), (tokens, owner));
                }
            }
            mem.absorb(banks);
            assert_eq!(sorted_entries(&mem), expected);
        }
    }
}

#[test]
fn token_memory_rejects_totals_its_byte_cannot_hold() {
    assert!(std::panic::catch_unwind(|| TokenMemory::new(128)).is_err());
    assert!(std::panic::catch_unwind(|| TokenMemory::new(0)).is_err());
    assert_eq!(TokenMemory::new(127).tokens(BlockAddr::new(u64::MAX)), 127);
}

#[test]
fn sharing_directory_matches_a_hashmap() {
    let mut rng = SmallRng::seed_from_u64(0xD1EC);
    let keys = Keys::new(&mut rng);
    let mut dir = SharingDirectory::new();
    let mut model: HashMap<u64, (SharingType, Option<VmId>)> = HashMap::new();
    let mut registrations = 0u64;
    for _ in 0..OPS {
        let page = keys.any(&mut rng);
        if rng.gen_bool(0.3) {
            let sharing = SharingType::decode(rng.gen_range(0..3u32) as u8).unwrap();
            let owner = rng.gen_bool(0.5).then(|| VmId::new(rng.gen_range(0..8u16)));
            dir.register(page, sharing, owner);
            model.insert(page, (sharing, owner));
            registrations += 1;
        } else {
            let (sharing, owner) = model.get(&page).copied().unwrap_or_default();
            assert_eq!(dir.sharing(page), sharing, "page {page}");
            assert_eq!(dir.owner(page), owner, "page {page}");
        }
        assert_eq!(dir.len(), model.len());
        assert_eq!(dir.version(), registrations);
    }
    assert!(!dir.is_empty());
    for (&page, &(sharing, owner)) in &model {
        assert_eq!((dir.sharing(page), dir.owner(page)), (sharing, owner));
    }
}
