//! Crash-consistent checkpoint/restart for long reconstructions.
//!
//! A checkpoint directory holds CRC-sealed slab payloads plus a
//! checksummed text [manifest](manifest::CheckpointManifest) that names
//! exactly the slabs whose stage → fsync → rename commit completed. Kill
//! the run at *any* instruction and the directory is still either
//! resumable or cleanly empty — the property the kill/resume grid of
//! `tests/checkpoint_restart.rs` verifies by killing runs mid-slab and
//! asserting the resumed volume is bitwise identical to an uninterrupted
//! one.
//!
//! The crate is deliberately payload-agnostic: it stores opaque byte
//! slabs keyed by z-row range. Encoding volumes in and out of those bytes
//! is the reconstruction drivers' job, which keeps this crate below
//! `scalefbp` (core) in the dependency order.

pub mod manifest;
pub mod store;

pub use manifest::{fingerprint, resume_partition, CheckpointManifest, ManifestError, SlabEntry};
pub use store::{CheckpointError, CheckpointSpec, CheckpointStore, MANIFEST_FILE};

#[cfg(test)]
mod proptests {
    use crate::manifest::{resume_partition, CheckpointManifest, SlabEntry};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any manifest survives a serialize → parse round trip.
        #[test]
        fn manifest_round_trips(
            config in any::<u64>(),
            starts in proptest::collection::vec(0usize..500, 0..12),
            lens in proptest::collection::vec(1usize..40, 12),
            crcs in proptest::collection::vec(any::<u64>(), 12),
        ) {
            let mut m = CheckpointManifest::new(config);
            for (i, z0) in starts.iter().enumerate() {
                m.commit_slab(SlabEntry {
                    z: (*z0, z0 + lens[i]),
                    file: format!("slab_{i:06}.bin"),
                    crc: crcs[i] as u32,
                    bytes: crcs[i] % 100_000,
                });
            }
            let parsed = CheckpointManifest::parse(&m.serialize());
            prop_assert_eq!(parsed.as_ref(), Ok(&m));
        }

        /// A resume point partitions the task list: every task is either
        /// checkpointed or still to do, never both, never neither.
        #[test]
        fn resume_partition_covers_all_tasks_exactly_once(
            bounds in proptest::collection::vec(1usize..30, 1..10),
            committed_prefix in 0usize..10,
        ) {
            // Build contiguous task ranges from the sampled widths.
            let mut tasks = Vec::new();
            let mut z = 0usize;
            for w in &bounds {
                tasks.push((z, z + w));
                z += w;
            }
            let k = committed_prefix.min(tasks.len());
            let committed: Vec<(usize, usize)> = tasks[..k].to_vec();
            let (done, todo) = resume_partition(&tasks, &committed);
            let mut all: Vec<usize> = done.iter().chain(todo.iter()).copied().collect();
            all.sort_unstable();
            let expected: Vec<usize> = (0..tasks.len()).collect();
            prop_assert_eq!(all, expected);
            prop_assert_eq!(done.len(), k);
            for i in &done {
                prop_assert!(committed.contains(&tasks[*i]));
            }
            for i in &todo {
                prop_assert!(!committed.contains(&tasks[*i]));
            }
        }
    }
}
