//! Property-based tests of the vCPU map register and the analytic model.

use proptest::prelude::*;
use sim_vm::CoreId;
use vsnoop::{snoop_reduction, VcpuMap, VcpuMapFile};

proptest! {
    #[test]
    fn map_behaves_like_a_set(ops in prop::collection::vec((0u16..64, any::<bool>()), 0..200)) {
        let mut map = VcpuMap::default();
        let mut model = std::collections::BTreeSet::new();
        for (core, insert) in ops {
            let c = CoreId::new(core);
            if insert {
                prop_assert_eq!(map.insert(c), model.insert(core));
            } else {
                prop_assert_eq!(map.remove(c), model.remove(&core));
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
        }
        let cores: Vec<u16> = map.cores().map(|c| c.index() as u16).collect();
        let expect: Vec<u16> = model.into_iter().collect();
        prop_assert_eq!(cores, expect);
    }

    #[test]
    fn union_is_commutative_and_contains_operands(a in any::<u64>(), b in any::<u64>()) {
        let (ma, mb) = (VcpuMap::from_mask(a), VcpuMap::from_mask(b));
        let u = ma.union(mb);
        prop_assert_eq!(u, mb.union(ma));
        for c in ma.cores().chain(mb.cores()) {
            prop_assert!(u.contains(c));
        }
        prop_assert!(u.len() <= ma.len() + mb.len());
    }

    #[test]
    fn map_file_counts_only_real_changes(
        ops in prop::collection::vec((0usize..4, 0u16..16, any::<bool>()), 0..100),
    ) {
        let mut file = VcpuMapFile::new(4);
        let mut expected_syncs = 0u64;
        for (vm, core, add) in ops {
            let changed = if add {
                file.add_core(vm, CoreId::new(core))
            } else {
                file.remove_core(vm, CoreId::new(core))
            };
            if changed {
                expected_syncs += 1;
            }
        }
        prop_assert_eq!(file.sync_updates(), expected_syncs);
    }

    #[test]
    fn reduction_is_bounded_and_monotonic(
        h in 0.0f64..1.0,
        d in 1usize..16,
        extra in 0usize..48,
    ) {
        let n = d + extra;
        let r = snoop_reduction(h, d, n);
        prop_assert!((0.0..=1.0).contains(&r));
        // More hypervisor traffic can never increase the reduction.
        let r_more = snoop_reduction((h + 0.1).min(1.0), d, n);
        prop_assert!(r_more <= r + 1e-12);
        // A bigger machine at the same domain size filters at least as much.
        let r_big = snoop_reduction(h, d, n + 8);
        prop_assert!(r_big + 1e-12 >= r);
    }
}
