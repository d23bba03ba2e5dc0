//! `Simulator::try_new` refuses every configuration it cannot build with
//! a typed error, naming the violated constraint, instead of panicking
//! while it builds caches or vCPU placement.

use vsnoop::{ContentPolicy, FilterPolicy, SimError, Simulator, SystemConfig};

/// Asserts that `cfg` is refused, with a message containing `needle`.
fn refused(cfg: SystemConfig, needle: &str) {
    let err = cfg.validate().expect_err("validate must reject the config");
    assert!(err.message().contains(needle), "unexpected message: {err}");
    match Simulator::try_new(cfg, FilterPolicy::VsnoopBase, ContentPolicy::Broadcast) {
        Err(SimError::InvalidConfig(e)) => assert_eq!(e, err),
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("try_new built an invalid config"),
    }
}

#[test]
fn three_way_l2_is_refused() {
    let cfg = SystemConfig {
        l2_ways: 3,
        ..SystemConfig::paper_default()
    };
    refused(cfg, "L2 geometry");
}

#[test]
fn zero_way_l1_is_refused() {
    let cfg = SystemConfig {
        l1_ways: 0,
        ..SystemConfig::paper_default()
    };
    refused(cfg, "associativity must be positive");
}

#[test]
fn non_power_of_two_set_count_is_refused() {
    let cfg = SystemConfig {
        l2_bytes: 3 * 512 * 1024,
        ..SystemConfig::paper_default()
    };
    refused(cfg, "power of two");
}

#[test]
fn zero_tlb_slots_are_refused() {
    let cfg = SystemConfig {
        tlb_slots: 0,
        ..SystemConfig::paper_default()
    };
    refused(cfg, "at least one slot");
}

#[test]
fn zero_vcpus_per_vm_are_refused() {
    let cfg = SystemConfig {
        vcpus_per_vm: 0,
        ..SystemConfig::paper_default()
    };
    refused(cfg, "at least one vCPU");
}
