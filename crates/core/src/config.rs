//! Simulated system configuration (Table II).
//!
//! The paper models 16 in-order SPARC cores with 32 KB 4-way L1s, 256 KB
//! 8-way private L2s, Token Coherence (MOESI), and a 4x4 2D mesh with
//! 16-byte links and 4-cycle routers. [`SystemConfig::paper_default`]
//! reproduces that machine; the fields are public so experiments can scale
//! it (e.g. the 64-core projection of Fig. 2).

use sim_mem::CacheGeometry;
use sim_net::LatencyModel;

/// Full configuration of the simulated machine.
#[derive(Clone, Copy, Debug)]
pub struct SystemConfig {
    /// Mesh width (cores per row).
    pub mesh_width: usize,
    /// Mesh height.
    pub mesh_height: usize,
    /// Private L1 data cache capacity in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// Private L2 capacity in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// DRAM access latency in cycles (on top of network transit).
    pub memory_latency: u64,
    /// Network timing parameters.
    pub network: LatencyModel,
    /// Number of VMs.
    pub n_vms: usize,
    /// vCPUs per VM.
    pub vcpus_per_vm: u16,
    /// Slots of a per-core sharing-type TLB ([`sim_vm::TypeTlb`]). The
    /// simulator classifies accesses from the sharing directory itself and
    /// builds no TLB; this sizes TLB models measured on their own.
    pub tlb_slots: usize,
    /// Scaled cycles per simulated millisecond. The reproduction's traces
    /// are far shorter than real benchmark runs, so wall-clock quantities
    /// (migration periods, removal periods) use a scaled clock chosen to
    /// keep the ratio of migration period to cache-refill/removal time
    /// faithful: a counter-driven core removal takes ~240k cycles here,
    /// i.e. ~1.6 scaled ms, matching the sub-10ms removals of Fig. 9; see
    /// DESIGN.md.
    pub cycles_per_ms: u64,
    /// Cycles consumed per access slot per core (issue rate).
    pub cycles_per_access: u64,
}

impl SystemConfig {
    /// The paper's simulated 16-core system (Table II), with four 4-vCPU
    /// VMs (Section V-A).
    pub fn paper_default() -> Self {
        SystemConfig {
            mesh_width: 4,
            mesh_height: 4,
            l1_bytes: 32 * 1024,
            l1_ways: 4,
            l2_bytes: 256 * 1024,
            l2_ways: 8,
            l1_latency: 2,
            l2_latency: 10,
            memory_latency: 80,
            network: LatencyModel::default(),
            n_vms: 4,
            vcpus_per_vm: 4,
            tlb_slots: 64,
            cycles_per_ms: 200_000,
            cycles_per_access: 2,
        }
    }

    /// A scaled-down configuration for fast unit tests: 4 cores, 2 VMs,
    /// tiny caches.
    pub fn small_test() -> Self {
        SystemConfig {
            mesh_width: 2,
            mesh_height: 2,
            l1_bytes: 2 * 1024,
            l1_ways: 2,
            l2_bytes: 8 * 1024,
            l2_ways: 4,
            n_vms: 2,
            vcpus_per_vm: 2,
            cycles_per_ms: 2_000,
            ..Self::paper_default()
        }
    }

    /// Total number of cores.
    pub fn n_cores(&self) -> usize {
        self.mesh_width * self.mesh_height
    }

    /// Total vCPUs across all VMs.
    pub fn n_vcpus(&self) -> usize {
        self.n_vms * self.vcpus_per_vm as usize
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.mesh_width == 0 || self.mesh_height == 0 {
            return Err(ConfigError::new(format!(
                "mesh dimensions must be positive (got {}x{})",
                self.mesh_width, self.mesh_height
            )));
        }
        if self.n_cores() > 64 {
            return Err(ConfigError::new(format!(
                "core count must be in 1..=64 (got {}x{} = {} cores)",
                self.mesh_width,
                self.mesh_height,
                self.n_cores()
            )));
        }
        if self.n_vcpus() > self.n_cores() {
            return Err(ConfigError::new(
                "overcommitted configurations are not supported by the trace simulator",
            ));
        }
        if self.n_vms == 0 {
            return Err(ConfigError::new("need at least one VM"));
        }
        if self.vcpus_per_vm == 0 {
            return Err(ConfigError::new("need at least one vCPU per VM"));
        }
        if self.tlb_slots == 0 {
            return Err(ConfigError::new(
                "a sharing-type TLB needs at least one slot",
            ));
        }
        if self.cycles_per_access == 0 || self.cycles_per_ms == 0 {
            return Err(ConfigError::new("clock rates must be positive"));
        }
        if self.l1_bytes >= self.l2_bytes {
            return Err(ConfigError::new("L1 must be smaller than L2"));
        }
        for (level, bytes, ways) in [
            ("L1", self.l1_bytes, self.l1_ways),
            ("L2", self.l2_bytes, self.l2_ways),
        ] {
            if let Err(e) = CacheGeometry::try_new(bytes, ways) {
                return Err(ConfigError::new(format!(
                    "{level} geometry ({bytes} bytes, {ways} ways): {e}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A configuration constraint violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConfigError(std::borrow::Cow<'static, str>);

impl ConfigError {
    /// Creates a violation from a static or formatted description.
    pub fn new(msg: impl Into<std::borrow::Cow<'static, str>>) -> Self {
        ConfigError(msg.into())
    }

    /// The violated constraint, human-readable.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid system configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_ii() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.n_cores(), 16);
        assert_eq!(c.l1_bytes, 32 * 1024);
        assert_eq!(c.l2_bytes, 256 * 1024);
        assert_eq!(c.l2_ways, 8);
        assert_eq!(c.network.router_cycles, 4);
        assert_eq!(c.network.link_bytes, 16);
        assert_eq!(c.n_vcpus(), 16);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn small_test_is_valid() {
        assert!(SystemConfig::small_test().validate().is_ok());
    }

    #[test]
    fn validation_catches_overcommit() {
        let c = SystemConfig {
            n_vms: 8,
            vcpus_per_vm: 4,
            ..SystemConfig::paper_default()
        };
        assert!(c.validate().is_err());
        let msg = c.validate().unwrap_err().to_string();
        assert!(msg.contains("overcommitted"));
    }

    #[test]
    fn validation_catches_degenerate_caches() {
        let c = SystemConfig {
            l1_bytes: 1 << 20,
            ..SystemConfig::paper_default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_names_zero_mesh_dimensions() {
        let c = SystemConfig {
            mesh_width: 0,
            mesh_height: 4,
            ..SystemConfig::paper_default()
        };
        let msg = c.validate().unwrap_err().to_string();
        assert!(
            msg.contains("0x4"),
            "message must name the dimensions: {msg}"
        );
    }

    #[test]
    fn validation_names_oversized_mesh() {
        let c = SystemConfig {
            mesh_width: 9,
            mesh_height: 8,
            ..SystemConfig::paper_default()
        };
        let msg = c.validate().unwrap_err().to_string();
        assert!(
            msg.contains("9x8 = 72"),
            "message must name the shape: {msg}"
        );
    }
}
