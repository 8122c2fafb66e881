//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
//! sealing every binary frame and checkpoint slab in the workspace.
//!
//! Hand-rolled and table-driven so the workspace stays dependency-free.
//! [`Crc32::update`] is slice-by-16: sixteen 256-entry tables, built at
//! compile time, fold sixteen input bytes per step with sixteen
//! independent lookups instead of one dependent lookup per byte. The
//! values are those of the textbook one-table loop, byte for byte, so
//! every sealed frame and checkpoint slab keeps its bytes. The
//! incremental [`Crc32`] state lets large slabs be checksummed chunk by
//! chunk without staging a copy.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][x]`: the CRC contribution of byte `x` followed by `k` zero
/// bytes. `TABLES[0]` is the classic one-byte table; each further table
/// advances the previous one by one zero byte.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 16 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// Incremental CRC-32 state: feed bytes with [`update`](Crc32::update),
/// close with [`finish`](Crc32::finish).
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh checksum (all-ones preset, per the IEEE convention).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorbs `data` into the running checksum: sixteen bytes per step,
    /// then the tail byte by byte. Any split of the input over several
    /// calls gives the same state as one call.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut c = self.state;
        let mut blocks = data.chunks_exact(16);
        for b in &mut blocks {
            let b: &[u8; 16] = b.try_into().expect("chunks_exact(16)");
            let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            c = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The final (inverted) checksum value.
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// Why a sealed frame failed to open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The frame is shorter than the 4-byte checksum header.
    Truncated {
        /// Actual frame length.
        len: usize,
    },
    /// The payload checksum does not match the sealed header.
    Mismatch {
        /// Checksum the sealer recorded.
        expected: u32,
        /// Checksum of the payload as received.
        actual: u32,
    },
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Truncated { len } => {
                write!(f, "sealed frame truncated ({len} B, need ≥ 4)")
            }
            FrameError::Mismatch { expected, actual } => write!(
                f,
                "sealed frame checksum mismatch (sealed {expected:#010x}, got {actual:#010x})"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Seals `payload` as `[crc32 u32-le][payload]` — the integrity frame
/// used for mpisim data-plane messages and iosim shard/checkpoint files.
pub fn seal_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Opens a sealed frame, returning the payload when the checksum holds.
pub fn open_frame(frame: &[u8]) -> Result<&[u8], FrameError> {
    if frame.len() < 4 {
        return Err(FrameError::Truncated { len: frame.len() });
    }
    let expected = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
    let payload = &frame[4..];
    let actual = crc32(payload);
    if actual != expected {
        return Err(FrameError::Mismatch { expected, actual });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// The textbook one-table, one-byte-per-step CRC-32: the oracle the
    /// slice-by-16 update must match bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Golden values of the IEEE CRC-32 (the values `zlib.crc32` gives),
    /// at lengths below, at and across the 16-byte step.
    #[test]
    fn golden_vectors() {
        let cases: [(&[u8], u32); 8] = [
            (b"abc", 0x3524_41C2),
            (b"message digest", 0x2015_9D7F),
            (b"abcdefghijklmnop", 0x943A_C093),
            (b"abcdefghijklmnopq", 0x9C92_5619),
            (b"abcdefghijklmnopqrstuvwxyz", 0x4C27_50BD),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (&[0u8; 32], 0x190A_55AD),
            (&[0xFFu8; 32], 0xFF6C_AB0B),
        ];
        for (data, want) in cases {
            assert_eq!(crc32(data), want, "{:?}", String::from_utf8_lossy(data));
            assert_eq!(crc32_bytewise(data), want);
        }
        let ramp: Vec<u8> = (0..=255u8).collect();
        assert_eq!(crc32(&ramp), 0x2905_8C73);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slice-by-16 equals the bytewise oracle for every length, and
        /// any split of the input over two `update` calls gives the same
        /// checksum as one call.
        #[test]
        fn slice_by_16_matches_the_bytewise_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            split in any::<usize>(),
        ) {
            let want = crc32_bytewise(&data);
            prop_assert_eq!(crc32(&data), want);
            let at = if data.is_empty() { 0 } else { split % (data.len() + 1) };
            let mut c = Crc32::new();
            c.update(&data[..at]);
            c.update(&data[at..]);
            prop_assert_eq!(c.finish(), want);
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let mut inc = Crc32::new();
        for chunk in data.chunks(37) {
            inc.update(chunk);
        }
        assert_eq!(inc.finish(), crc32(&data));
    }

    #[test]
    fn frames_round_trip_and_detect_flips() {
        let payload: Vec<u8> = (0..200u8).collect();
        let frame = seal_frame(&payload);
        assert_eq!(frame.len(), payload.len() + 4);
        assert_eq!(open_frame(&frame).unwrap(), &payload[..]);
        // Any single-byte flip anywhere in the frame (header included)
        // is detected.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            assert!(open_frame(&bad).is_err(), "flip at {i} undetected");
        }
        assert_eq!(open_frame(&[1, 2]), Err(FrameError::Truncated { len: 2 }));
        // An empty payload still frames and opens.
        assert_eq!(open_frame(&seal_frame(&[])).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn single_byte_flip_changes_checksum() {
        let data: Vec<u8> = (0..128u8).collect();
        let clean = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at byte {i} bit {bit}");
            }
        }
    }
}
