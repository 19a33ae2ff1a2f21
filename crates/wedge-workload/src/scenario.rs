//! Evaluation scenarios: the parameter sweeps behind each figure.

use crate::keys::KeyDist;

/// Read/write mix of a workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mix {
    /// 100% batched writes (Fig 4, Fig 5a).
    AllWrite,
    /// 50% batched writes / 50% interactive reads (Fig 5b).
    Mixed5050,
    /// 100% interactive reads (Fig 5c).
    AllRead,
}

/// A complete workload scenario for one experiment point.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Operations per write batch.
    pub batch_size: usize,
    /// Value size in bytes.
    pub value_size: usize,
    /// Keys per partition.
    pub key_space: u64,
    /// Read/write mix.
    pub mix: Mix,
    /// Key distribution.
    pub dist: KeyDist,
    /// Write batches per client.
    pub batches_per_client: u64,
    /// Interactive reads per client.
    pub reads_per_client: u64,
    /// Outstanding interactive reads per client.
    pub read_pipeline: usize,
}

impl Scenario {
    /// The paper's default point: 1 client, 100-op batches, 100 B
    /// values, 100 K keys, all-write.
    pub fn paper_default() -> Self {
        Scenario {
            clients: 1,
            batch_size: 100,
            value_size: 100,
            key_space: 100_000,
            mix: Mix::AllWrite,
            dist: KeyDist::Uniform,
            batches_per_client: 50,
            reads_per_client: 0,
            read_pipeline: 4,
        }
    }

    /// Fig 4 sweep: batch size ∈ {100, 500, 1000, 1500, 2000}.
    pub fn fig4_batch_sizes() -> Vec<usize> {
        vec![100, 500, 1000, 1500, 2000]
    }

    /// Fig 5 sweep: clients ∈ {1, 3, 5, 7, 9}.
    pub fn fig5_client_counts() -> Vec<usize> {
        vec![1, 3, 5, 7, 9]
    }

    /// Fig 6 batch sizes: {100, 500, 1000}, 4000 batches each.
    pub fn fig6_batch_sizes() -> Vec<usize> {
        vec![100, 500, 1000]
    }

    /// §VI-E dataset sizes: 100 K → 100 M keys.
    pub fn dataset_sizes() -> Vec<u64> {
        vec![100_000, 1_000_000, 10_000_000, 100_000_000]
    }

    /// Derives a mixed scenario from this one.
    pub fn with_mix(mut self, mix: Mix) -> Self {
        self.mix = mix;
        match mix {
            Mix::AllWrite => {
                self.reads_per_client = 0;
            }
            Mix::Mixed5050 => {
                // Equal op counts: each batch is matched by
                // `batch_size` interactive reads.
                self.reads_per_client = self.batches_per_client * self.batch_size as u64;
            }
            Mix::AllRead => {
                self.batches_per_client = 0;
                if self.reads_per_client == 0 {
                    self.reads_per_client = 500;
                }
            }
        }
        self
    }

    /// Total operations this scenario performs across all clients.
    pub fn total_ops(&self) -> u64 {
        (self.clients as u64)
            * (self.batches_per_client * self.batch_size as u64 + self.reads_per_client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_match_paper() {
        assert_eq!(Scenario::fig4_batch_sizes(), vec![100, 500, 1000, 1500, 2000]);
        assert_eq!(Scenario::fig5_client_counts(), vec![1, 3, 5, 7, 9]);
        assert_eq!(Scenario::fig6_batch_sizes(), vec![100, 500, 1000]);
        assert_eq!(Scenario::dataset_sizes().first(), Some(&100_000));
        assert_eq!(Scenario::dataset_sizes().last(), Some(&100_000_000));
    }

    #[test]
    fn mix_transforms() {
        let s = Scenario::paper_default().with_mix(Mix::Mixed5050);
        assert_eq!(s.reads_per_client, 5_000);
        let s = Scenario::paper_default().with_mix(Mix::AllRead);
        assert_eq!(s.batches_per_client, 0);
        assert!(s.reads_per_client > 0);
    }

    #[test]
    fn total_ops_counts_both_sides() {
        let mut s = Scenario::paper_default();
        s.clients = 2;
        s.batches_per_client = 3;
        s.reads_per_client = 10;
        assert_eq!(s.total_ops(), 2 * (300 + 10));
    }
}
