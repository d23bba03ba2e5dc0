//! Property-based tests of the workload generators.

use proptest::prelude::*;
use sim_vm::{Agent, VcpuId, VmId};
use workloads::{AccessStream, Workload, WorkloadConfig, ZipfSampler, PROFILES};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn zipf_is_monotonically_biased_to_low_indices(
        n in 2usize..500,
        s in 0.3f64..1.5,
        seed in 0u64..100,
    ) {
        use rand::{rngs::SmallRng, SeedableRng};
        let z = ZipfSampler::new(n, s);
        let mut rng = SmallRng::seed_from_u64(seed);
        let draws = 4_000;
        let mut lo = 0u32;
        for _ in 0..draws {
            let x = z.sample(&mut rng);
            prop_assert!(x < n);
            if x < n / 2 {
                lo += 1;
            }
        }
        // With positive skew, the lower indices receive more than their
        // uniform share (with a little slack for sampling noise).
        let uniform_share = (n / 2) as f64 / n as f64;
        prop_assert!(
            lo as f64 / draws as f64 > uniform_share + 0.01,
            "lo={lo}, uniform share {uniform_share:.3}"
        );
    }

    #[test]
    fn any_profile_generates_valid_streams(
        app_idx in 0usize..PROFILES.len(),
        n_vms in 1usize..5,
        seed in 0u64..50,
        host in any::<bool>(),
        sharing in any::<bool>(),
    ) {
        let app = &PROFILES[app_idx];
        let mut wl = Workload::homogeneous(
            app,
            n_vms,
            WorkloadConfig {
                vcpus_per_vm: 4,
                seed,
                host_activity: host,
                content_sharing: sharing,
            },
        );
        let page_cap = wl.allocated_pages();
        for i in 0..2_000u32 {
            let vcpu = VcpuId::new(VmId::new((i as usize % n_vms) as u16), (i % 4) as u16);
            let a = wl.next_access(vcpu);
            prop_assert_eq!(a.addr % 64, 0, "block aligned");
            prop_assert!(a.addr / 4096 < page_cap, "address inside allocated memory");
            match a.agent {
                Agent::Guest(v) => prop_assert_eq!(v, vcpu, "guest access attributed to requester"),
                _ => prop_assert!(host, "host agents only appear when enabled"),
            }
        }
    }

    #[test]
    fn streams_with_same_seed_are_identical_across_instances(
        app_idx in 0usize..PROFILES.len(),
        seed in 0u64..50,
    ) {
        let app = &PROFILES[app_idx];
        let mk = || {
            let mut wl = Workload::homogeneous(app, 2, WorkloadConfig { seed, ..Default::default() });
            (0..500u16)
                .map(|i| {
                    let v = VcpuId::new(VmId::new(i % 2), i % 4);
                    let a = wl.next_access(v);
                    (a.addr, a.write)
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(mk(), mk());
    }
}
