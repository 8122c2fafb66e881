//! On-disk formats: raw f32 containers and PGM slice export.

use std::fs::File;
use std::io::{self, Write};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::Path;

use bytes::BufMut;
use scalefbp_geom::{check_rows_len, ProjectionStack, RowRange, RowSource, Volume};

/// Magic bytes of the raw container.
const MAGIC: &[u8; 4] = b"SFBP";
/// Container kind tags.
const KIND_VOLUME: u8 = 1;
const KIND_PROJECTIONS: u8 = 2;
/// Header bytes: magic, kind, then four (volume) or five (projections)
/// little-endian `u32` fields.
const VOLUME_HEADER: usize = 21;
const PROJECTIONS_HEADER: usize = 25;
/// Values per encoded block of a volume payload: 1 MiB of bytes, so
/// writing a volume never stages a second volume-sized buffer.
const WRITE_BLOCK: usize = 1 << 18;

/// Errors while decoding a container.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FormatError {
    /// Missing/incorrect magic or kind byte.
    BadHeader(&'static str),
    /// Header dims disagree with the payload length.
    LengthMismatch {
        /// Elements promised by the header.
        expected: usize,
        /// Elements present.
        got: usize,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::BadHeader(what) => write!(f, "bad container header: {what}"),
            FormatError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "container length mismatch: expected {expected} elements, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for FormatError {}

impl From<FormatError> for io::Error {
    fn from(e: FormatError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Appends `data` to `out` as little-endian f32 bytes.
fn put_f32s(out: &mut Vec<u8>, data: &[f32]) {
    let start = out.len();
    out.resize(start + data.len() * 4, 0);
    for (b, v) in out[start..].chunks_exact_mut(4).zip(data) {
        b.copy_from_slice(&v.to_le_bytes());
    }
}

/// Converts little-endian bytes into `out`, four bytes per value.
fn f32s_from_le(bytes: &[u8], out: &mut [f32]) {
    for (dst, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *dst = f32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    }
}

/// The `N` header fields after magic and kind, once both check out.
fn header_fields<const N: usize>(
    data: &[u8],
    kind: u8,
    wrong_kind: &'static str,
) -> Result<[usize; N], FormatError> {
    let len = 5 + 4 * N;
    if data.len() < len || &data[0..4] != MAGIC {
        return Err(FormatError::BadHeader("magic"));
    }
    if data[4] != kind {
        return Err(FormatError::BadHeader(wrong_kind));
    }
    let mut fields = [0; N];
    for (f, b) in fields.iter_mut().zip(data[5..len].chunks_exact(4)) {
        *f = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
    }
    Ok(fields)
}

/// Elements the header's three dimensions promise, checked against the
/// payload length. A product that overflows `usize` is a bad header, not
/// a wrapped count that happens to match a short file.
fn payload_elements(dims: [usize; 3], payload_bytes: u64) -> Result<usize, FormatError> {
    let n = dims
        .iter()
        .try_fold(1usize, |n, &d| n.checked_mul(d))
        .filter(|n| n.checked_mul(4).is_some())
        .ok_or(FormatError::BadHeader("dimensions overflow usize"))?;
    if payload_bytes != n as u64 * 4 {
        return Err(FormatError::LengthMismatch {
            expected: n,
            got: (payload_bytes / 4) as usize,
        });
    }
    Ok(n)
}

/// Refuses the rows or projections `r` unless the scan's `held` has them.
fn check_held(what: &str, r: Range<usize>, held: Range<usize>) -> io::Result<()> {
    if r.start < held.start || r.start > r.end || r.end > held.end {
        let msg = format!("{what} {r:?} outside the scan's {held:?}");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    Ok(())
}

/// Encodes a volume (with its slab offset) as the raw container: the
/// header, then the payload in blocks of at most [`WRITE_BLOCK`] values,
/// each handed to `sink` in order. The one volume encoder behind
/// [`encode_volume`] and [`write_volume`].
fn encode_volume_blocks(
    vol: &Volume,
    mut sink: impl FnMut(&[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let mut block = Vec::with_capacity(VOLUME_HEADER.max(WRITE_BLOCK.min(vol.len()) * 4));
    block.extend_from_slice(MAGIC);
    block.push(KIND_VOLUME);
    for field in [vol.nx(), vol.ny(), vol.nz(), vol.z_offset()] {
        block.put_u32_le(field as u32);
    }
    sink(&block)?;
    for values in vol.data().chunks(WRITE_BLOCK) {
        block.clear();
        put_f32s(&mut block, values);
        sink(&block)?;
    }
    Ok(())
}

/// Encodes a volume (with its slab offset) into the raw container.
pub fn encode_volume(vol: &Volume) -> Vec<u8> {
    let mut out = Vec::with_capacity(VOLUME_HEADER + vol.len() * 4);
    encode_volume_blocks(vol, |bytes| {
        out.extend_from_slice(bytes);
        Ok(())
    })
    .expect("appending to a Vec cannot fail");
    out
}

/// Writes a volume container to `path` through one [`File`], a block at
/// a time: the bytes of [`encode_volume`] without holding them all.
pub fn write_volume(path: &Path, vol: &Volume) -> io::Result<()> {
    let mut file = File::create(path)?;
    encode_volume_blocks(vol, |bytes| file.write_all(bytes))
}

/// Decodes a volume container.
pub fn decode_volume(data: &[u8]) -> Result<Volume, FormatError> {
    let [nx, ny, nz, z_offset] = header_fields(data, KIND_VOLUME, "kind is not volume")?;
    let payload = &data[VOLUME_HEADER..];
    payload_elements([nx, ny, nz], payload.len() as u64)?;
    let mut v = Volume::zeros_slab(nx, ny, nz, z_offset);
    f32s_from_le(payload, v.data_mut());
    Ok(v)
}

/// Encodes a projection stack (with its window offsets).
pub fn encode_projections(stack: &ProjectionStack) -> Vec<u8> {
    let mut out = Vec::with_capacity(25 + stack.len() * 4);
    out.extend_from_slice(MAGIC);
    out.push(KIND_PROJECTIONS);
    out.put_u32_le(stack.nv() as u32);
    out.put_u32_le(stack.np() as u32);
    out.put_u32_le(stack.nu() as u32);
    out.put_u32_le(stack.v_offset() as u32);
    out.put_u32_le(stack.s_offset() as u32);
    put_f32s(&mut out, stack.data());
    out
}

/// Decodes a projection-stack container.
pub fn decode_projections(data: &[u8]) -> Result<ProjectionStack, FormatError> {
    let [nv, np, nu, v_offset, s_offset] =
        header_fields(data, KIND_PROJECTIONS, "kind is not projections")?;
    let payload = &data[PROJECTIONS_HEADER..];
    payload_elements([nv, np, nu], payload.len() as u64)?;
    let mut p = ProjectionStack::zeros_window(nv, np, nu, v_offset, s_offset);
    f32s_from_le(payload, p.data_mut());
    Ok(p)
}

/// A projection-stack container opened for reading by detector rows.
///
/// [`open`](Self::open) reads and checks the header and the file length
/// once. The stack is `[v][s][u]`, so each row of a projection share is
/// one contiguous byte range: [`RowSource::read_rows`] reads a share with
/// one positioned read per row, and a driver holds only the rows it
/// asked for. The values are bit-identical to [`decode_projections`].
#[derive(Debug)]
pub struct ScanFile {
    file: File,
    nv: usize,
    np: usize,
    nu: usize,
    v_offset: usize,
    s_offset: usize,
}

impl ScanFile {
    /// Opens `path` and checks its header against the file length.
    /// Header problems come back as [`io::ErrorKind::InvalidData`]
    /// wrapping a [`FormatError`].
    pub fn open(path: &Path) -> io::Result<ScanFile> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < PROJECTIONS_HEADER as u64 {
            return Err(FormatError::BadHeader("magic").into());
        }
        let mut header = [0u8; PROJECTIONS_HEADER];
        file.read_exact_at(&mut header, 0)?;
        let [nv, np, nu, v_offset, s_offset] =
            header_fields(&header, KIND_PROJECTIONS, "kind is not projections")?;
        payload_elements([nv, np, nu], len - PROJECTIONS_HEADER as u64)?;
        Ok(ScanFile {
            file,
            nv,
            np,
            nu,
            v_offset,
            s_offset,
        })
    }

    /// The whole stack, in one allocation: what the iterative solvers
    /// take.
    pub fn read_all(&self) -> io::Result<ProjectionStack> {
        let rows = RowRange::new(self.v_offset, self.v_offset + self.nv);
        self.read_rows(rows, self.s_offset..self.s_offset + self.np)
    }
}

impl RowSource for ScanFile {
    fn shape(&self) -> (usize, usize, usize) {
        (self.nv, self.np, self.nu)
    }

    fn read_rows(&self, rows: RowRange, s: Range<usize>) -> io::Result<ProjectionStack> {
        ProjectionStack::read_from(self, rows, s)
    }

    /// One positioned read per row into one byte buffer, decoded straight
    /// into `dst`: a row of a projection share is one contiguous byte
    /// range.
    fn read_rows_into(&self, rows: RowRange, s: Range<usize>, dst: &mut [f32]) -> io::Result<()> {
        let (v0, s0, nu) = (self.v_offset, self.s_offset, self.nu);
        check_held("rows", rows.begin..rows.end, v0..v0 + self.nv)?;
        check_held("projections", s.clone(), s0..s0 + self.np)?;
        check_rows_len(dst, rows.len(), s.len(), nu)?;
        let mut buf = vec![0u8; s.len() * nu * 4];
        for (v, dst) in (rows.begin..rows.end).zip(dst.chunks_exact_mut((s.len() * nu).max(1))) {
            let element = ((v - v0) * self.np + s.start - s0) * nu;
            let offset = PROJECTIONS_HEADER as u64 + element as u64 * 4;
            self.file.read_exact_at(&mut buf, offset)?;
            f32s_from_le(&buf, dst);
        }
        Ok(())
    }
}

/// Serialises a geometry as a stable `key = value` text block (one
/// parameter of Table 1 per line) — the sidecar format the CLI writes next
/// to `.sfbp` containers so scans are self-describing without a JSON
/// dependency.
pub fn geometry_to_text(g: &scalefbp_geom::CbctGeometry) -> String {
    format!(
        "# scalefbp geometry v1\n\
         dso = {}\ndsd = {}\nnp = {}\nnu = {}\nnv = {}\ndu = {}\ndv = {}\n\
         nx = {}\nny = {}\nnz = {}\ndx = {}\ndy = {}\ndz = {}\n\
         sigma_u = {}\nsigma_v = {}\nsigma_cor = {}\n",
        g.dso,
        g.dsd,
        g.np,
        g.nu,
        g.nv,
        g.du,
        g.dv,
        g.nx,
        g.ny,
        g.nz,
        g.dx,
        g.dy,
        g.dz,
        g.sigma_u,
        g.sigma_v,
        g.sigma_cor
    )
}

/// Parses the text block of [`geometry_to_text`]. Unknown keys are
/// rejected; missing keys are reported by name.
pub fn geometry_from_text(text: &str) -> Result<scalefbp_geom::CbctGeometry, FormatError> {
    use std::collections::HashMap;
    let mut kv: HashMap<&str, &str> = HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((k, v)) = line.split_once('=') else {
            return Err(FormatError::BadHeader("geometry line without `=`"));
        };
        kv.insert(k.trim(), v.trim());
    }
    fn f(
        kv: &std::collections::HashMap<&str, &str>,
        key: &'static str,
    ) -> Result<f64, FormatError> {
        kv.get(key)
            .ok_or(FormatError::BadHeader("missing geometry key"))?
            .parse()
            .map_err(|_| FormatError::BadHeader("unparsable geometry value"))
    }
    fn u(
        kv: &std::collections::HashMap<&str, &str>,
        key: &'static str,
    ) -> Result<usize, FormatError> {
        kv.get(key)
            .ok_or(FormatError::BadHeader("missing geometry key"))?
            .parse()
            .map_err(|_| FormatError::BadHeader("unparsable geometry value"))
    }
    Ok(scalefbp_geom::CbctGeometry {
        dso: f(&kv, "dso")?,
        dsd: f(&kv, "dsd")?,
        np: u(&kv, "np")?,
        nu: u(&kv, "nu")?,
        nv: u(&kv, "nv")?,
        du: f(&kv, "du")?,
        dv: f(&kv, "dv")?,
        nx: u(&kv, "nx")?,
        ny: u(&kv, "ny")?,
        nz: u(&kv, "nz")?,
        dx: f(&kv, "dx")?,
        dy: f(&kv, "dy")?,
        dz: f(&kv, "dz")?,
        sigma_u: f(&kv, "sigma_u")?,
        sigma_v: f(&kv, "sigma_v")?,
        sigma_cor: f(&kv, "sigma_cor")?,
    })
}

/// Renders a row-major float image as a binary 8-bit PGM (P5) with
/// min-max windowing.
pub fn image_to_pgm(width: usize, height: usize, pixels: &[f32]) -> Vec<u8> {
    assert_eq!(pixels.len(), width * height, "image shape mismatch");
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in pixels {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let range = if hi > lo { hi - lo } else { 1.0 };
    let mut out = format!("P5\n{width} {height}\n255\n").into_bytes();
    out.extend(pixels.iter().map(|&v| {
        let t = ((v - lo) / range * 255.0).clamp(0.0, 255.0);
        t as u8
    }));
    out
}

/// Renders one Z slice of a volume as a binary 8-bit PGM (P5) image with
/// min-max windowing — the visual-inspection deliverable of Figures 8/11.
pub fn slice_to_pgm(vol: &Volume, k: usize) -> Vec<u8> {
    image_to_pgm(vol.nx(), vol.ny(), vol.slice(k))
}

/// Renders a maximum-intensity projection of a volume along `axis`
/// (0 = X, 1 = Y, 2 = Z) as a PGM — the Figure 11 style whole-object view.
pub fn mip_to_pgm(vol: &Volume, axis: usize) -> Vec<u8> {
    let (w, h, img) = vol.max_intensity_projection(axis);
    image_to_pgm(w, h, &img)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The streamed writer and the in-memory encoder share one block
    /// encoder: same bytes, across a block edge and a partial last block.
    #[test]
    fn written_volume_matches_the_encoding() {
        let mut v = Volume::zeros_slab(64, 64, 70, 3);
        for (i, x) in v.data_mut().iter_mut().enumerate() {
            *x = (i as f32).sin() * 1e3;
        }
        assert!(v.len() > WRITE_BLOCK && v.len() % WRITE_BLOCK != 0);
        let dir = std::env::temp_dir().join(format!("scalefbp-write-vol-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.sfbp");
        write_volume(&path, &v).unwrap();
        let written = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(written, encode_volume(&v));
        assert_eq!(decode_volume(&written).unwrap(), v);
    }

    #[test]
    fn volume_roundtrip_preserves_everything() {
        let mut v = Volume::zeros_slab(3, 4, 2, 9);
        for (i, x) in v.data_mut().iter_mut().enumerate() {
            *x = i as f32 * 0.5 - 3.0;
        }
        let decoded = decode_volume(&encode_volume(&v)).unwrap();
        assert_eq!(decoded, v);
        assert_eq!(decoded.z_offset(), 9);
    }

    #[test]
    fn projections_roundtrip_preserves_offsets() {
        let mut p = ProjectionStack::zeros_window(2, 3, 4, 5, 6);
        for (i, x) in p.data_mut().iter_mut().enumerate() {
            *x = (i * i) as f32;
        }
        let decoded = decode_projections(&encode_projections(&p)).unwrap();
        assert_eq!(decoded, p);
        assert_eq!((decoded.v_offset(), decoded.s_offset()), (5, 6));
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut data = encode_volume(&Volume::zeros(1, 1, 1));
        data[0] = b'X';
        assert_eq!(decode_volume(&data), Err(FormatError::BadHeader("magic")));
    }

    #[test]
    fn kind_confusion_rejected() {
        let v = encode_volume(&Volume::zeros(2, 2, 2));
        assert!(matches!(
            decode_projections(&v),
            Err(FormatError::BadHeader(_))
        ));
        let p = encode_projections(&ProjectionStack::zeros(2, 2, 2));
        assert!(matches!(decode_volume(&p), Err(FormatError::BadHeader(_))));
    }

    #[test]
    fn truncated_payload_rejected() {
        let mut data = encode_volume(&Volume::zeros(2, 2, 2));
        data.truncate(data.len() - 4);
        assert!(matches!(
            decode_volume(&data),
            Err(FormatError::LengthMismatch {
                expected: 8,
                got: 7
            })
        ));
    }

    /// A bare header of `kind` whose three dimensions are `2^22` each:
    /// their product wraps to 0 in a 64-bit `usize`.
    fn overflowing_header(kind: u8, fields: usize) -> Vec<u8> {
        let mut data = MAGIC.to_vec();
        data.push(kind);
        for f in 0..fields {
            let v: u32 = if f < 3 { 1 << 22 } else { 0 };
            data.extend_from_slice(&v.to_le_bytes());
        }
        data
    }

    #[test]
    fn overflowing_projection_dims_are_a_bad_header() {
        let data = overflowing_header(KIND_PROJECTIONS, 5);
        assert_eq!(data.len(), PROJECTIONS_HEADER);
        assert_eq!(
            decode_projections(&data),
            Err(FormatError::BadHeader("dimensions overflow usize"))
        );
    }

    #[test]
    fn overflowing_volume_dims_are_a_bad_header() {
        let data = overflowing_header(KIND_VOLUME, 4);
        assert_eq!(data.len(), VOLUME_HEADER);
        assert_eq!(
            decode_volume(&data),
            Err(FormatError::BadHeader("dimensions overflow usize"))
        );
    }

    fn scratch_file(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("scalefbp-format-{tag}-{}.sfbp", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn scan_file_reads_the_decoded_bits_by_rows() {
        let mut p = ProjectionStack::zeros_window(7, 3, 5, 2, 4);
        for (i, x) in p.data_mut().iter_mut().enumerate() {
            *x = (i as f32 * 0.37).sin() * 1e3;
        }
        // Wide rows: each is one read of 80 kB.
        let mut big = ProjectionStack::zeros(9, 40, 500);
        for (i, x) in big.data_mut().iter_mut().enumerate() {
            *x = f32::from_bits(i as u32 ^ 0x3f80_1234);
        }
        for (tag, stack) in [("small", &p), ("big", &big)] {
            let bytes = encode_projections(stack);
            let path = scratch_file(tag, &bytes);
            let scan = ScanFile::open(&path).unwrap();
            let decoded = decode_projections(&bytes).unwrap();
            assert_eq!(scan.read_all().unwrap(), decoded);
            assert_eq!(scan.shape(), (stack.nv(), stack.np(), stack.nu()), "{tag}");
            let (lo, hi) = (stack.v_offset(), stack.v_offset() + stack.nv());
            let (s0, s1) = (stack.s_offset(), stack.s_offset() + stack.np());
            let shares = [s0..s1, s0 + 1..s1, s0..s0 + 1, s1 - 1..s1, s0 + 1..s0 + 1];
            for (b, e) in [(lo, hi), (lo + 1, hi - 2), (hi - 1, hi), (lo + 3, lo + 3)] {
                for s in shares.clone() {
                    let rows = scan.read_rows(RowRange::new(b, e), s.clone()).unwrap();
                    let want = decoded.read_rows(RowRange::new(b, e), s.clone()).unwrap();
                    assert_eq!(rows, want, "{tag} [{b}, {e}) {s:?}");
                    assert_eq!((rows.v_offset(), rows.s_offset()), (b, s.start));
                }
            }
            let bad = [
                (RowRange::new(hi - 1, hi + 1), s0..s1),
                (
                    RowRange {
                        begin: lo + 2,
                        end: lo + 1,
                    },
                    s0..s1,
                ),
                (RowRange::new(lo, hi), s0..s1 + 1),
                (RowRange::new(lo, hi), s0.wrapping_sub(1)..s1),
            ];
            for (r, s) in bad {
                let err = scan.read_rows(r, s.clone()).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{tag} {r:?} {s:?}");
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// Reading into a caller's slice and `read_rows` give the stack's bits
    /// from a file and from memory, over full, half and empty ranges; a
    /// range outside the scan or a slice of the wrong length is an error,
    /// not a panic.
    #[test]
    fn read_rows_into_is_read_rows_bit_for_bit() {
        let mut p = ProjectionStack::zeros_window(8, 6, 5, 3, 2);
        for (i, x) in p.data_mut().iter_mut().enumerate() {
            *x = f32::from_bits(i as u32 ^ 0x7fc0_0001);
        }
        let path = scratch_file("into", &encode_projections(&p));
        let scan = ScanFile::open(&path).unwrap();
        let sources: [(&str, &dyn RowSource); 2] = [("file", &scan), ("stack", &p)];
        for (tag, src) in sources {
            for (b, e) in [(3, 11), (3, 7), (7, 11), (5, 5)] {
                for s in [2..8, 2..5, 5..8, 4..4] {
                    let r = RowRange::new(b, e);
                    let want = p.extract_window(b, e, s.start, s.end);
                    let rows = src.read_rows(r, s.clone()).unwrap();
                    let mut got = vec![f32::NAN; want.len()];
                    src.read_rows_into(r, s.clone(), &mut got).unwrap();
                    let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(want.data()), "{tag} [{b}, {e}) {s:?}");
                    assert_eq!(
                        bits(rows.data()),
                        bits(want.data()),
                        "{tag} [{b}, {e}) {s:?}"
                    );
                    assert_eq!((rows.v_offset(), rows.s_offset()), (b, s.start));
                }
            }
            let wrong_len = (RowRange::new(3, 5), 2..8, 2 * 6 * 5 + 1);
            let outside = [
                (RowRange::new(10, 12), 2..8, 60),
                (RowRange::new(3, 5), 1..8, 70),
            ];
            let reversed = (RowRange { begin: 5, end: 3 }, 2..8, 0);
            for (r, s, len) in [wrong_len, reversed].into_iter().chain(outside) {
                let err = src
                    .read_rows_into(r, s.clone(), &mut vec![0.0; len])
                    .unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{tag} {r:?} {s:?}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn scan_file_refuses_what_decode_refuses() {
        let good = encode_projections(&ProjectionStack::zeros(2, 3, 4));
        let cases: [(&str, Vec<u8>); 5] = [
            ("truncated", good[..good.len() - 1].to_vec()),
            ("overflow", overflowing_header(KIND_PROJECTIONS, 5)),
            ("volume", encode_volume(&Volume::zeros(2, 2, 2))),
            ("short", good[..10].to_vec()),
            ("empty", Vec::new()),
        ];
        for (tag, bytes) in cases {
            let expected = decode_projections(&bytes).unwrap_err();
            let path = scratch_file(tag, &bytes);
            let err = ScanFile::open(&path).unwrap_err();
            std::fs::remove_file(&path).unwrap();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{tag}");
            let inner = err.get_ref().and_then(|e| e.downcast_ref::<FormatError>());
            assert_eq!(inner, Some(&expected), "{tag}");
        }
    }

    #[test]
    fn pgm_has_correct_header_and_size() {
        let mut v = Volume::zeros(4, 3, 2);
        for (i, x) in v.data_mut().iter_mut().enumerate() {
            *x = i as f32;
        }
        let pgm = slice_to_pgm(&v, 1);
        let header_end = pgm.iter().filter(|&&b| b == b'\n').count();
        assert!(header_end >= 3);
        assert!(pgm.starts_with(b"P5\n4 3\n255\n"));
        assert_eq!(pgm.len(), b"P5\n4 3\n255\n".len() + 12);
        // Min-max windowing: darkest pixel 0, brightest 255.
        let body = &pgm[b"P5\n4 3\n255\n".len()..];
        assert_eq!(*body.first().unwrap(), 0);
        assert_eq!(*body.last().unwrap(), 255);
    }

    #[test]
    fn mip_pgm_has_expected_shape() {
        let mut v = Volume::zeros(3, 4, 5);
        *v.get_mut(2, 1, 4) = 10.0;
        let pgm = mip_to_pgm(&v, 2);
        assert!(pgm.starts_with(b"P5\n3 4\n255\n"));
        let body = &pgm[b"P5\n3 4\n255\n".len()..];
        assert_eq!(body.len(), 12);
        assert_eq!(body[3 + 2], 255);
    }

    #[test]
    #[should_panic(expected = "image shape mismatch")]
    fn image_pgm_rejects_bad_shape() {
        let _ = image_to_pgm(2, 2, &[0.0; 3]);
    }

    #[test]
    fn geometry_text_roundtrip() {
        let g = scalefbp_geom::CbctGeometry {
            dso: 100.5,
            dsd: 250.25,
            np: 720,
            nu: 668,
            nv: 445,
            du: 0.075,
            dv: 0.075,
            nx: 512,
            ny: 512,
            nz: 512,
            dx: 0.031,
            dy: 0.031,
            dz: 0.031,
            sigma_u: -10.0,
            sigma_v: 0.2,
            sigma_cor: -0.0021,
        };
        let text = geometry_to_text(&g);
        let back = geometry_from_text(&text).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn geometry_text_rejects_garbage() {
        assert!(geometry_from_text("dso 100").is_err());
        assert!(geometry_from_text("dso = abc\n").is_err());
        assert!(geometry_from_text("dso = 1.0\n").is_err()); // missing keys
    }

    #[test]
    fn geometry_text_tolerates_comments_and_blanks() {
        let g = scalefbp_geom::CbctGeometry::ideal(16, 20, 24, 24);
        let mut text = String::from("# hello\n\n");
        text.push_str(&geometry_to_text(&g));
        assert_eq!(geometry_from_text(&text).unwrap(), g);
    }

    #[test]
    fn constant_slice_does_not_divide_by_zero() {
        let mut v = Volume::zeros(2, 2, 1);
        v.data_mut().fill(7.0);
        let pgm = slice_to_pgm(&v, 0);
        assert_eq!(pgm[pgm.len() - 1], 0);
    }
}
