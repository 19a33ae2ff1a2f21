//! LSMerkle configuration.

/// Shape of the LSMerkle tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LsmConfig {
    /// Maximum pages per level; index 0 is L0. When level `i` exceeds
    /// `level_thresholds[i]`, all its pages merge into level `i+1`
    /// (§V-B "Merging"). The last level is unbounded in practice; its
    /// threshold only triggers further splits of page ranges.
    pub level_thresholds: Vec<usize>,
    /// Maximum records per sorted page produced by a merge.
    pub page_capacity: usize,
}

impl LsmConfig {
    /// The paper's evaluation configuration: four levels with
    /// thresholds 10, 10, 100, 1000 (§VI).
    pub fn paper_eval() -> Self {
        LsmConfig { level_thresholds: vec![10, 10, 100, 1000], page_capacity: 512 }
    }

    /// The paper's exposition configuration: three levels with
    /// thresholds 2, 2, 4 (§V-B), tiny pages — handy for tests and
    /// examples that want to watch merges happen.
    pub fn exposition() -> Self {
        LsmConfig { level_thresholds: vec![2, 2, 4], page_capacity: 4 }
    }

    /// Number of Merkle-covered levels (all but L0).
    pub fn num_merkle_levels(&self) -> usize {
        self.level_thresholds.len() - 1
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.level_thresholds.len() < 2 {
            return Err("need at least L0 and one Merkle level".into());
        }
        if self.level_thresholds.contains(&0) {
            return Err("level thresholds must be positive".into());
        }
        if self.page_capacity == 0 {
            return Err("page capacity must be positive".into());
        }
        Ok(())
    }
}

impl Default for LsmConfig {
    fn default() -> Self {
        Self::paper_eval()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_section_vi() {
        let c = LsmConfig::paper_eval();
        assert_eq!(c.level_thresholds, vec![10, 10, 100, 1000]);
        assert_eq!(c.num_merkle_levels(), 3);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn exposition_config_matches_section_v() {
        let c = LsmConfig::exposition();
        assert_eq!(c.level_thresholds, vec![2, 2, 4]);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let too_few = LsmConfig { level_thresholds: vec![2], page_capacity: 4 };
        assert!(too_few.validate().is_err());
        let zero = LsmConfig { level_thresholds: vec![2, 0], page_capacity: 4 };
        assert!(zero.validate().is_err());
        let zero_cap = LsmConfig { level_thresholds: vec![2, 2], page_capacity: 0 };
        assert!(zero_cap.validate().is_err());
    }
}
