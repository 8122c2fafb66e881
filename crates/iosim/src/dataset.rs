//! On-disk dataset store: projections sharded by detector-row bands.
//!
//! Real acquisitions of the paper's scale (the 177 GB coffee-bean scan)
//! are stored as many files; the 2-D decomposition's load thread then
//! reads only the row band its sub-volume needs (Eq 5/7). This module
//! provides that layout: a directory with a text manifest, a geometry
//! sidecar, and one `.sfbp` container per row band, plus a reader that
//! assembles an arbitrary `(rows × projections)` window from the shards.

use std::path::{Path, PathBuf};

use scalefbp_geom::{CbctGeometry, ProjectionStack, RowSource};

use crate::format::{
    check_rows, decode_projections, encode_projections, geometry_from_text, geometry_to_text,
    FormatError,
};
use crate::StorageEndpoint;

/// Errors from dataset store operations.
#[derive(Debug)]
pub enum DatasetError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Container/manifest decoding failure.
    Format(FormatError),
    /// Manifest text problems.
    BadManifest(String),
    /// A requested window is not covered by the stored shards.
    WindowNotCovered {
        /// Requested detector-row range.
        rows: (usize, usize),
    },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::Io(e) => write!(f, "dataset I/O error: {e}"),
            DatasetError::Format(e) => write!(f, "dataset format error: {e}"),
            DatasetError::BadManifest(m) => write!(f, "bad manifest: {m}"),
            DatasetError::WindowNotCovered { rows } => {
                write!(
                    f,
                    "rows [{}, {}) not covered by the stored shards",
                    rows.0, rows.1
                )
            }
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> Self {
        DatasetError::Io(e)
    }
}

impl From<FormatError> for DatasetError {
    fn from(e: FormatError) -> Self {
        DatasetError::Format(e)
    }
}

/// One stored shard: a contiguous detector-row band.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardInfo {
    /// Global detector rows `[begin, end)`.
    pub rows: (usize, usize),
    /// File name relative to the dataset directory.
    pub file: String,
}

/// A row-sharded projection dataset on a [`StorageEndpoint`].
#[derive(Clone, Debug)]
pub struct DatasetStore {
    endpoint: StorageEndpoint,
    dir: PathBuf,
    geometry: CbctGeometry,
    shards: Vec<ShardInfo>,
}

const MANIFEST: &str = "manifest.txt";
const GEOMETRY: &str = "geometry.txt";

impl DatasetStore {
    /// Writes a full projection stack as `num_shards` row bands under
    /// `dir` on `endpoint`, with manifest and geometry sidecar.
    pub fn create(
        endpoint: &StorageEndpoint,
        dir: &Path,
        geom: &CbctGeometry,
        projections: &ProjectionStack,
        num_shards: usize,
    ) -> Result<DatasetStore, DatasetError> {
        assert!(num_shards > 0, "need at least one shard");
        assert_eq!(
            (projections.nv(), projections.np(), projections.nu()),
            (geom.nv, geom.np, geom.nu),
            "stack shape must match the geometry"
        );
        let mut shards = Vec::with_capacity(num_shards);
        let mut manifest = String::from("# scalefbp dataset manifest v1\n");
        for i in 0..num_shards {
            let begin = i * geom.nv / num_shards;
            let end = (i + 1) * geom.nv / num_shards;
            if begin == end {
                continue;
            }
            let band = projections.extract_window(begin, end, 0, geom.np);
            let file = format!("rows_{begin:06}_{end:06}.sfbp");
            // Binary shards are integrity-sealed and published atomically;
            // the manifest and geometry sidecars stay human-editable text.
            endpoint.write_file_sealed(&dir.join(&file), &encode_projections(&band))?;
            manifest.push_str(&format!("shard = {begin} {end} {file}\n"));
            shards.push(ShardInfo {
                rows: (begin, end),
                file,
            });
        }
        endpoint.write_file(&dir.join(MANIFEST), manifest.as_bytes())?;
        endpoint.write_file(&dir.join(GEOMETRY), geometry_to_text(geom).as_bytes())?;
        Ok(DatasetStore {
            endpoint: endpoint.clone(),
            dir: dir.to_path_buf(),
            geometry: geom.clone(),
            shards,
        })
    }

    /// Opens an existing dataset directory.
    pub fn open(endpoint: &StorageEndpoint, dir: &Path) -> Result<DatasetStore, DatasetError> {
        let manifest = String::from_utf8(endpoint.read_file(&dir.join(MANIFEST))?)
            .map_err(|_| DatasetError::BadManifest("manifest is not UTF-8".into()))?;
        let geometry = geometry_from_text(
            &String::from_utf8(endpoint.read_file(&dir.join(GEOMETRY))?)
                .map_err(|_| DatasetError::BadManifest("geometry is not UTF-8".into()))?,
        )?;
        let mut shards = Vec::new();
        for line in manifest.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let rest = line
                .strip_prefix("shard =")
                .ok_or_else(|| DatasetError::BadManifest(format!("bad line `{line}`")))?;
            let mut parts = rest.split_whitespace();
            let begin: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| DatasetError::BadManifest(format!("bad line `{line}`")))?;
            let end: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| DatasetError::BadManifest(format!("bad line `{line}`")))?;
            let file = parts
                .next()
                .ok_or_else(|| DatasetError::BadManifest(format!("bad line `{line}`")))?
                .to_string();
            if begin >= end {
                return Err(DatasetError::BadManifest(format!(
                    "empty shard range in `{line}`"
                )));
            }
            shards.push(ShardInfo {
                rows: (begin, end),
                file,
            });
        }
        if shards.is_empty() {
            return Err(DatasetError::BadManifest("no shards listed".into()));
        }
        shards.sort_by_key(|s| s.rows.0);
        Ok(DatasetStore {
            endpoint: endpoint.clone(),
            dir: dir.to_path_buf(),
            geometry,
            shards,
        })
    }

    /// The acquisition geometry.
    pub fn geometry(&self) -> &CbctGeometry {
        &self.geometry
    }

    /// The stored shards, ordered by first row.
    pub fn shards(&self) -> &[ShardInfo] {
        &self.shards
    }

    /// Reads global detector rows `[v0, v1)` and projections `[s0, s1)`
    /// into one partial stack, touching only the overlapping shards — the
    /// load thread's operation for Eq 5/7.
    pub fn read_window(
        &self,
        v0: usize,
        v1: usize,
        s0: usize,
        s1: usize,
    ) -> Result<ProjectionStack, DatasetError> {
        let g = &self.geometry;
        assert!(v0 <= v1 && v1 <= g.nv, "row window out of range");
        assert!(s0 <= s1 && s1 <= g.np, "projection window out of range");
        let mut out = ProjectionStack::zeros_window(v1 - v0, s1 - s0, g.nu, v0, s0);
        let mut covered = v0;
        for shard in &self.shards {
            let (b, e) = shard.rows;
            let lo = v0.max(b);
            let hi = v1.min(e);
            if lo >= hi {
                continue;
            }
            if lo > covered {
                return Err(DatasetError::WindowNotCovered { rows: (v0, v1) });
            }
            let band = decode_projections(&self.endpoint.read_file_sealed_retrying(
                &self.dir.join(&shard.file),
                scalefbp_faults::BackoffPolicy::integrity(),
                None,
            )?)?;
            for v in lo..hi {
                for s in s0..s1 {
                    out.row_mut(v - v0, s - s0)
                        .copy_from_slice(band.row(v - b, s));
                }
            }
            covered = covered.max(hi);
        }
        if covered < v1 {
            return Err(DatasetError::WindowNotCovered { rows: (v0, v1) });
        }
        Ok(out)
    }
}

impl RowSource for DatasetStore {
    fn shape(&self) -> (usize, usize, usize) {
        let g = &self.geometry;
        (g.nv, g.np, g.nu)
    }

    fn read_rows(&self, v_begin: usize, v_end: usize) -> std::io::Result<ProjectionStack> {
        check_rows(0, self.geometry.nv, v_begin, v_end)?;
        self.read_window(v_begin, v_end, 0, self.geometry.np)
            .map_err(|e| match e {
                DatasetError::Io(e) => e,
                other => std::io::Error::new(std::io::ErrorKind::InvalidData, other),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("scalefbp-dataset-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn setup(
        tag: &str,
        shards: usize,
    ) -> (StorageEndpoint, PathBuf, CbctGeometry, ProjectionStack) {
        let endpoint = StorageEndpoint::local_nvme(Some(tmpdir(tag)));
        let dir = PathBuf::from("ds");
        let geom = CbctGeometry::ideal(16, 6, 20, 18);
        let mut stack = ProjectionStack::zeros(geom.nv, geom.np, geom.nu);
        for (i, px) in stack.data_mut().iter_mut().enumerate() {
            *px = (i % 251) as f32;
        }
        DatasetStore::create(&endpoint, &dir, &geom, &stack, shards).unwrap();
        (endpoint, dir, geom, stack)
    }

    #[test]
    fn create_open_roundtrip() {
        let (endpoint, dir, geom, _) = setup("roundtrip", 4);
        let store = DatasetStore::open(&endpoint, &dir).unwrap();
        assert_eq!(store.geometry(), &geom);
        assert_eq!(store.shards().len(), 4);
        let mut covered = 0;
        for s in store.shards() {
            assert_eq!(s.rows.0, covered);
            covered = s.rows.1;
        }
        assert_eq!(covered, geom.nv);
    }

    #[test]
    fn windows_assemble_across_shard_boundaries() {
        let (endpoint, dir, geom, stack) = setup("windows", 3);
        let store = DatasetStore::open(&endpoint, &dir).unwrap();
        for (v0, v1, s0, s1) in [
            (0, geom.nv, 0, geom.np),
            (2, 11, 1, 5),
            (5, 7, 0, geom.np),
            (0, 1, 2, 3),
        ] {
            let w = store.read_window(v0, v1, s0, s1).unwrap();
            assert_eq!((w.v_offset(), w.s_offset()), (v0, s0));
            for v in v0..v1 {
                for s in s0..s1 {
                    for u in 0..geom.nu {
                        assert_eq!(
                            w.get(v - v0, s - s0, u),
                            stack.get(v, s, u),
                            "v={v} s={s} u={u}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn row_source_reads_what_the_stack_holds() {
        let (endpoint, dir, geom, stack) = setup("rowsource", 3);
        let store = DatasetStore::open(&endpoint, &dir).unwrap();
        assert_eq!(store.shape(), stack.shape());
        for (b, e) in [(0, geom.nv), (4, 13), (9, 9)] {
            assert_eq!(
                store.read_rows(b, e).unwrap(),
                stack.read_rows(b, e).unwrap()
            );
        }
        let err = store.read_rows(geom.nv - 1, geom.nv + 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn partial_reads_touch_only_needed_shards() {
        let (endpoint, dir, geom, _) = setup("traffic", 6);
        let store = DatasetStore::open(&endpoint, &dir).unwrap();
        endpoint.reset_counters();
        // One band in the middle: only 1-2 shard files should be read.
        let _ = store.read_window(6, 9, 0, geom.np).unwrap();
        let reads = endpoint.counters().reads;
        assert!(reads <= 2, "read {reads} shard files for a 3-row window");
    }

    #[test]
    fn missing_coverage_is_detected() {
        let (endpoint, dir, geom, _) = setup("coverage", 3);
        // Corrupt the manifest: drop the middle shard.
        let manifest =
            String::from_utf8(endpoint.read_file(&dir.join("manifest.txt")).unwrap()).unwrap();
        let filtered: String = manifest
            .lines()
            .filter(|l| !l.contains("rows_000006"))
            .map(|l| format!("{l}\n"))
            .collect();
        endpoint
            .write_file(&dir.join("manifest.txt"), filtered.as_bytes())
            .unwrap();
        let store = DatasetStore::open(&endpoint, &dir).unwrap();
        assert!(matches!(
            store.read_window(0, geom.nv, 0, geom.np),
            Err(DatasetError::WindowNotCovered { .. })
        ));
        // A window inside a surviving shard still works.
        assert!(store.read_window(0, 4, 0, 2).is_ok());
    }

    #[test]
    fn corrupted_shard_bytes_are_detected() {
        let (endpoint, dir, geom, _) = setup("shardcrc", 2);
        // Flip one payload byte of the first sealed shard on disk.
        let shard_rel = dir.join(format!("rows_{:06}_{:06}.sfbp", 0, geom.nv / 2));
        let abs = endpoint.resolve(&shard_rel);
        let mut bytes = std::fs::read(&abs).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&abs, &bytes).unwrap();
        let store = DatasetStore::open(&endpoint, &dir).unwrap();
        match store.read_window(0, geom.nv, 0, geom.np) {
            Err(DatasetError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}")
            }
            other => panic!("corruption not detected: {other:?}"),
        }
        // Windows inside the intact shard still read fine.
        assert!(store.read_window(geom.nv / 2, geom.nv, 0, 2).is_ok());
    }

    #[test]
    fn bad_manifests_are_rejected() {
        let endpoint = StorageEndpoint::local_nvme(Some(tmpdir("badmanifest")));
        let dir = PathBuf::from("ds");
        let geom = CbctGeometry::ideal(8, 4, 12, 10);
        endpoint
            .write_file(
                &dir.join("geometry.txt"),
                geometry_to_text(&geom).as_bytes(),
            )
            .unwrap();
        for bad in ["gibberish\n", "shard = 5 5 x.sfbp\n", "# only comments\n"] {
            endpoint
                .write_file(&dir.join("manifest.txt"), bad.as_bytes())
                .unwrap();
            assert!(
                DatasetStore::open(&endpoint, &dir).is_err(),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn single_shard_dataset() {
        let (endpoint, dir, geom, stack) = setup("single", 1);
        let store = DatasetStore::open(&endpoint, &dir).unwrap();
        assert_eq!(store.shards().len(), 1);
        let w = store.read_window(0, geom.nv, 0, geom.np).unwrap();
        assert_eq!(w.data(), stack.data());
    }
}
