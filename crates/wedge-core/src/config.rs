//! System-level configuration for a simulated WedgeChain deployment.
//!
//! Each field is a setting some run, bench, example or test varies:
//! the §VI sweeps (batch size, clients, placements, dataset size
//! through [`CostModel`]) and the §IV-E timing (gossip period, dispute
//! timeout). What no run varies is fixed: the clients' region
//! ([`CLIENT_REGION`]), and where it is used, the network model's
//! calibration in `wedge_sim::net`, the simulator's inline worker pool
//! in [`crate::harness`], and the key space, which each client's plan
//! carries (`ClientPlan::key_space`).

use crate::cost::CostModel;
use wedge_lsmerkle::LsmConfig;
use wedge_sim::Region;

/// Where clients live: California, beside the edge, as in every
/// §VI experiment. Only the edge and the cloud move (Fig 7).
pub const CLIENT_REGION: Region = Region::California;

/// How much real cryptography the simulation performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CryptoMode {
    /// Sign and verify everything for real (tests, examples,
    /// correctness runs).
    Real,
    /// Skip bulk per-entry signatures (their CPU cost is still charged
    /// via the cost model); receipts, block proofs and roots remain
    /// really signed. Used by the macro benchmarks, where signing
    /// 4000×1000 entries for real would dominate host time without
    /// changing any protocol behaviour.
    Modeled,
}

/// Full configuration of a simulated WedgeChain deployment.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of clients (the paper sweeps 1–9, Fig 5).
    pub num_clients: usize,
    /// Operations per batch/block (the paper sweeps 100–2000, Fig 4).
    pub batch_size: usize,
    /// Value payload size in bytes (100 B in §VI).
    pub value_size: usize,
    /// Where the edge node lives.
    pub edge_region: Region,
    /// Where the cloud node lives.
    pub cloud_region: Region,
    /// LSMerkle shape.
    pub lsm: LsmConfig,
    /// CPU cost model.
    pub cost: CostModel,
    /// Cryptography fidelity.
    pub crypto_mode: CryptoMode,
    /// Cloud gossip period (ms of virtual time); 0 disables gossip.
    pub gossip_period_ms: u64,
    /// How long a client waits for Phase II before disputing (ms).
    pub dispute_timeout_ms: u64,
    /// Background compaction sweep period (ms); `None` disables it.
    /// Each sweep, an idle edge asks the cloud to fold fragmented
    /// levels back to whole pages (an empty-source merge). Engine-owned
    /// like gossip, so every runtime drives it identically.
    pub compaction_period_ms: Option<u64>,
    /// Read freshness window (ms); `None` disables the check (§V-D).
    pub freshness_window_ms: Option<u64>,
    /// RNG seed for deterministic runs.
    pub seed: u64,
    /// Data-free certification (§IV-B): send only the 32-byte digest
    /// to the cloud. `false` ships the whole block (the ablation in
    /// `benches/ablations.rs`).
    pub data_free: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            num_clients: 1,
            batch_size: 100,
            value_size: 100,
            edge_region: Region::California,
            cloud_region: Region::Virginia,
            lsm: LsmConfig::paper_eval(),
            cost: CostModel::default(),
            crypto_mode: CryptoMode::Modeled,
            gossip_period_ms: 1_000,
            dispute_timeout_ms: 5_000,
            compaction_period_ms: None,
            freshness_window_ms: None,
            seed: 42,
            data_free: true,
        }
    }
}

impl SystemConfig {
    /// Config with real crypto everywhere (for tests and examples).
    pub fn real_crypto() -> Self {
        SystemConfig { crypto_mode: CryptoMode::Real, ..SystemConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_vi() {
        let c = SystemConfig::default();
        assert_eq!(c.batch_size, 100);
        assert_eq!(c.value_size, 100);
        assert_eq!(c.lsm.level_thresholds, vec![10, 10, 100, 1000]);
        assert_eq!(CLIENT_REGION, Region::California);
        assert_eq!(c.cloud_region, Region::Virginia);
    }
}
