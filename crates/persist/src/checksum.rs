//! CRC-32 (IEEE 802.3) checksums for Object Persistent Representations.
//!
//! An OPR is "a sequential set of bytes" (§3.1.1) that may cross disks and
//! jurisdictions during migration (Fig. 11); the checksum lets a Magistrate
//! detect truncation or corruption before attempting activation.
//! Implemented locally (table-driven, eight bytes a step, reflected
//! polynomial `0xEDB88320`) to keep the dependency set to the approved
//! list. The journal checksums every record it writes with it, so its
//! cost per byte is the journal's.

/// The reflected CRC-32 polynomial (IEEE).
const POLY: u32 = 0xEDB8_8320;

/// Eight 256-entry lookup tables, built at compile time: `TABLES[0]` is
/// the classic byte-at-a-time table, and `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes — what lets eight input bytes be
/// folded in with eight independent lookups ("slicing-by-8") where the
/// one-table loop chains a lookup per byte.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming update: feed chunks with `state` starting at `0xFFFF_FFFF`
/// and finish by XOR-ing with `0xFFFF_FFFF`.
pub fn update(state: u32, data: &[u8]) -> u32 {
    let mut crc = state;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Incremental CRC-32 hasher.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes.
    pub fn write(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finish and return the checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The definition, a bit at a time: what the tables must agree with
    /// at every length and alignment of the eight-byte fast path.
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_update_matches_the_bitwise_definition() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 131 + 7) as u8).collect();
        for start in 0..9 {
            for len in 0..=64 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), bitwise(s), "start {start} len {len}");
            }
        }
        assert_eq!(crc32(&data), bitwise(&data));
        // Split anywhere, the stream agrees with the one-shot.
        for cut in 0..data.len() {
            let state = update(update(0xFFFF_FFFF, &data[..cut]), &data[cut..]);
            assert_eq!(state ^ 0xFFFF_FFFF, bitwise(&data), "cut {cut}");
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"hello legion world";
        let mut h = Crc32::new();
        h.write(&data[..5]);
        h.write(&data[5..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 1024];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let clean = crc32(&data);
        data[512] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn empty_hasher_is_zero() {
        assert_eq!(Crc32::new().finish(), 0);
    }
}
