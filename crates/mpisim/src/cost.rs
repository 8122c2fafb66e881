//! α–β cost model for the collectives, used by the timing-mode pipeline.

/// Latency/bandwidth (α–β) communication cost model.
///
/// The constants default to InfiniBand-EDR-class values matching the ABCI
/// interconnect the paper measured with the Intel MPI benchmarks
/// (`TH_reduce` in Section 5).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommCostModel {
    /// Per-message latency α (seconds).
    pub latency: f64,
    /// Link bandwidth β⁻¹ (bytes/second).
    pub bandwidth: f64,
    /// Local reduction arithmetic throughput (bytes/second summed) —
    /// effectively memory bandwidth on the CPU doing the `+`.
    pub reduce_compute: f64,
}

impl Default for CommCostModel {
    fn default() -> Self {
        CommCostModel {
            latency: 2e-6,
            bandwidth: 10e9, // ~EDR 100 Gb/s ≈ 12.5 GB/s, derated
            reduce_compute: 20e9,
        }
    }
}

impl CommCostModel {
    /// Binomial-tree reduction of `bytes` over `participants` ranks:
    /// `⌈log₂ p⌉ · (α + bytes·β + bytes·γ)`.
    ///
    /// The key scalability property (Table 2's communication column): cost
    /// grows with the *group* size `N_r`, not the world size.
    pub fn reduce_secs(&self, bytes: u64, participants: usize) -> f64 {
        if participants <= 1 {
            return 0.0;
        }
        let rounds = participants.next_power_of_two().trailing_zeros() as f64;
        rounds * (self.latency + bytes as f64 / self.bandwidth + bytes as f64 / self.reduce_compute)
    }

    /// The paper's hierarchical variant: intra-node rounds at memory-like
    /// bandwidth (`intra_boost`× the link), then leader rounds on the link.
    pub fn hierarchical_reduce_secs(
        &self,
        bytes: u64,
        participants: usize,
        ranks_per_node: usize,
        intra_boost: f64,
    ) -> f64 {
        assert!(ranks_per_node > 0);
        if participants <= 1 {
            return 0.0;
        }
        let intra_p = ranks_per_node.min(participants);
        let intra = CommCostModel {
            bandwidth: self.bandwidth * intra_boost,
            ..*self
        }
        .reduce_secs(bytes, intra_p);
        let leaders = participants.div_ceil(ranks_per_node);
        intra + self.reduce_secs(bytes, leaders)
    }

    /// Flat canonical (dense) reduction: the root serially ingests and
    /// folds `p-1` whole buffers, so the cost — unlike the tree's
    /// `⌈log₂ p⌉` rounds — is linear in the rank count:
    /// `(p-1) · (α + bytes·β + bytes·γ)`.
    ///
    /// This is the charge the tree-based [`reduce_secs`](Self::reduce_secs)
    /// omits: a tree spreads the folding work, but a dense reduce
    /// concentrates `(p-1)·bytes` of ingress on the root (see
    /// [`dense_root_ingress_bytes`](Self::dense_root_ingress_bytes)).
    pub fn dense_reduce_secs(&self, bytes: u64, participants: usize) -> f64 {
        if participants <= 1 {
            return 0.0;
        }
        (participants - 1) as f64
            * (self.latency + bytes as f64 / self.bandwidth + bytes as f64 / self.reduce_compute)
    }

    /// Bytes the root of a dense reduce receives: `(p-1) · bytes` — i.e.
    /// `(p-1)/p` of the total contributed volume (`p · bytes`). Grows
    /// linearly in `p`; the quantity the paper's segmented collective
    /// eliminates.
    pub fn dense_root_ingress_bytes(bytes: u64, participants: usize) -> u64 {
        (participants.max(1) as u64 - 1) * bytes
    }

    /// Chain-pipelined segmented reduce-scatter of `bytes` over
    /// `participants` ranks with `chunk_bytes`-sized messages.
    ///
    /// The chain has `p-1` forwarding stages and `⌈bytes/chunk⌉` chunks
    /// streaming through them, so the makespan is a pipeline fill plus a
    /// steady state: `(C + p - 2) · (α + chunk·β + chunk·γ)`. For
    /// `C ≫ p` this approaches `bytes·(β + γ)` — independent of `p`, the
    /// flat communication column of Table 2 — because communication of one
    /// chunk overlaps accumulation of the next.
    pub fn segmented_reduce_secs(&self, bytes: u64, participants: usize, chunk_bytes: u64) -> f64 {
        assert!(chunk_bytes > 0, "chunk_bytes must be positive");
        if participants <= 1 || bytes == 0 {
            return 0.0;
        }
        let chunks = bytes.div_ceil(chunk_bytes);
        let chunk = chunk_bytes.min(bytes);
        let step =
            self.latency + chunk as f64 / self.bandwidth + chunk as f64 / self.reduce_compute;
        (chunks + participants as u64 - 2) as f64 * step
    }

    /// Finished-result bytes each owner receives from a segmented
    /// reduce-scatter: its own `⌈bytes/p⌉` segment — the `Nz/p` per-rank
    /// traffic of the paper's Fig. 9/10.
    pub fn segmented_owner_recv_bytes(bytes: u64, participants: usize) -> u64 {
        bytes.div_ceil(participants.max(1) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_is_logarithmic_in_group_size() {
        let m = CommCostModel::default();
        let b = 1 << 20;
        let t2 = m.reduce_secs(b, 2);
        let t4 = m.reduce_secs(b, 4);
        let t16 = m.reduce_secs(b, 16);
        assert!((t4 - 2.0 * t2).abs() < 1e-12);
        assert!((t16 - 4.0 * t2).abs() < 1e-12);
    }

    #[test]
    fn segmented_beats_global_reduce() {
        // The paper replaces a world-wide collective by per-group ones:
        // reducing over N_r = 8 must beat reducing over 1024 ranks.
        let m = CommCostModel::default();
        let bytes = 256 << 20;
        assert!(m.reduce_secs(bytes, 8) < m.reduce_secs(bytes, 1024) / 3.0);
    }

    #[test]
    fn single_rank_reduce_is_free() {
        let m = CommCostModel::default();
        assert_eq!(m.reduce_secs(123, 1), 0.0);
        assert_eq!(m.reduce_secs(123, 0), 0.0);
    }

    #[test]
    fn hierarchical_beats_flat_when_intranode_is_fast() {
        let m = CommCostModel::default();
        let bytes = 64 << 20;
        let flat = m.reduce_secs(bytes, 16);
        let hier = m.hierarchical_reduce_secs(bytes, 16, 4, 8.0);
        assert!(hier < flat, "hier {hier} vs flat {flat}");
    }

    #[test]
    fn hierarchical_degenerates_to_flat_for_one_rank_per_node() {
        let m = CommCostModel::default();
        let bytes = 1 << 20;
        let flat = m.reduce_secs(bytes, 8);
        let hier = m.hierarchical_reduce_secs(bytes, 8, 1, 8.0);
        assert!((hier - flat).abs() < 1e-12);
    }

    /// Regression for the dense/hierarchical cost asymmetry: the tree
    /// charge under-counts what a dense reduce concentrates on the root.
    /// Modelled root ingress must equal `(p-1)/p` of the total contributed
    /// volume (`p` ranks × `bytes` each), exactly.
    #[test]
    fn dense_root_ingress_matches_contributed_share() {
        let per_rank: u64 = 1 << 20;
        for p in [2usize, 8, 64, 1024] {
            let total = per_rank * p as u64;
            let ingress = CommCostModel::dense_root_ingress_bytes(per_rank, p);
            assert_eq!(ingress, total * (p as u64 - 1) / p as u64, "p={p}");
            assert_eq!(ingress, (p as u64 - 1) * per_rank, "p={p}");
        }
        // The old tree charge implied only ⌈log₂ p⌉·bytes through the
        // root's link — at p = 1024 that under-charges by two orders of
        // magnitude.
        let tree_rounds = 1024usize.next_power_of_two().trailing_zeros() as u64;
        assert!(
            CommCostModel::dense_root_ingress_bytes(per_rank, 1024) > 100 * tree_rounds * per_rank
        );
    }

    #[test]
    fn dense_reduce_is_linear_in_p() {
        let m = CommCostModel::default();
        let b = 1 << 20;
        let t2 = m.dense_reduce_secs(b, 2);
        assert!((m.dense_reduce_secs(b, 5) - 4.0 * t2).abs() < 1e-12);
        assert!((m.dense_reduce_secs(b, 1025) - 1024.0 * t2).abs() < 1e-9);
        assert_eq!(m.dense_reduce_secs(b, 1), 0.0);
    }

    #[test]
    fn segmented_reduce_is_nearly_flat_in_p() {
        let m = CommCostModel::default();
        let bytes = 256 << 20;
        let chunk = 1 << 20;
        let t8 = m.segmented_reduce_secs(bytes, 8, chunk);
        let t1024 = m.segmented_reduce_secs(bytes, 1024, chunk);
        // 1016 extra pipeline-fill steps on 256 chunks: well under 6× —
        // versus 128× for the dense reduce over the same span.
        assert!(t1024 < 6.0 * t8, "t8={t8} t1024={t1024}");
        let dense_ratio = m.dense_reduce_secs(bytes, 1024) / m.dense_reduce_secs(bytes, 8);
        assert!(dense_ratio > 100.0);
    }

    #[test]
    fn segmented_beats_dense_at_scale() {
        let m = CommCostModel::default();
        let bytes = 64 << 20;
        assert!(
            m.segmented_reduce_secs(bytes, 1024, 1 << 20) < m.dense_reduce_secs(bytes, 1024) / 10.0
        );
    }

    #[test]
    fn segmented_owner_share_is_volume_over_p() {
        assert_eq!(CommCostModel::segmented_owner_recv_bytes(100, 8), 13);
        assert_eq!(CommCostModel::segmented_owner_recv_bytes(1024, 1024), 1);
        assert_eq!(CommCostModel::segmented_owner_recv_bytes(7, 1), 7);
    }
}
