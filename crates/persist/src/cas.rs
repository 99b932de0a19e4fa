//! Content-addressed storage: SHA-256 chunk ids and blob stores.
//!
//! The journal/snapshot architecture (see `legion-journal`) follows the
//! AgentOS model: an authoritative append-only log plus *materialized*
//! state snapshots whose sections are named by content. Naming a chunk
//! by the hash of its bytes makes "did it change?" structural — a
//! section with the id it had is the section it was — and makes
//! integrity checking free: a chunk that fails to hash to its own name
//! is corrupt. (The snapshotter keeps no section bytes, only their
//! ids; it does not hold a [`BlobStore`].)
//!
//! * [`sha256`] — a local, dependency-free SHA-256 (FIPS 180-4);
//! * [`ChunkId`] — a 32-byte content hash naming a chunk;
//! * [`BlobStore`] — the store interface, with its in-memory
//!   implementation ([`MemBlobStore`]).

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;

/// SHA-256 round constants (first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values (first 32 bits of the fractional parts of the
/// square roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered toward the next 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total = self.total.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let mut block = [0u8; 64];
            block.copy_from_slice(&data[..64]);
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finish and produce the digest.
    pub fn finish(mut self) -> [u8; 32] {
        let bit_len = self.total.wrapping_mul(8);
        // Padding: 0x80, zeros up to byte 56 of a block, the bit length.
        // `update` never leaves the buffer full, so the 0x80 always fits.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            // No room for the length: it goes in a block of its own.
            let block = self.buf;
            self.compress(&block);
            self.buf.fill(0);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// SHA-256 of `data` in one call.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

/// The content address of a chunk: the SHA-256 of its bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub [u8; 32]);

impl ChunkId {
    /// The id of `bytes`.
    pub fn of(bytes: &[u8]) -> Self {
        ChunkId(sha256(bytes))
    }

    /// Lower-case hex rendering (64 chars).
    pub fn to_hex(self) -> String {
        self.hex_into(&mut [0; 64]).to_owned()
    }

    /// [`ChunkId::to_hex`] into the caller's buffer: no allocation.
    pub fn hex_into(self, buf: &mut [u8; 64]) -> &str {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        for (pair, b) in buf.chunks_exact_mut(2).zip(self.0) {
            pair[0] = HEX[(b >> 4) as usize];
            pair[1] = HEX[(b & 0xf) as usize];
        }
        std::str::from_utf8(buf).expect("hex digits are ASCII")
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl fmt::Debug for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChunkId({}..)", &self.to_hex()[..12])
    }
}

/// A content-addressed blob store: chunks keyed by their own hash.
pub trait BlobStore {
    /// Store `bytes`, returning its id and whether it was already present
    /// (`true` = deduplicated, no new bytes written).
    fn put(&mut self, bytes: &[u8]) -> (ChunkId, bool);

    /// Fetch a chunk by id.
    fn get(&self, id: &ChunkId) -> Option<Vec<u8>>;

    /// Is `id` present?
    fn contains(&self, id: &ChunkId) -> bool;

    /// Number of distinct chunks stored.
    fn len(&self) -> usize;

    /// Is the store empty?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of distinct chunk content (physical, post-dedup).
    fn stored_bytes(&self) -> u64;
}

/// An in-memory blob store.
#[derive(Default, Debug, Clone)]
pub struct MemBlobStore {
    chunks: BTreeMap<ChunkId, Vec<u8>>,
    bytes: u64,
}

impl MemBlobStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BlobStore for MemBlobStore {
    fn put(&mut self, bytes: &[u8]) -> (ChunkId, bool) {
        let id = ChunkId::of(bytes);
        match self.chunks.entry(id) {
            Entry::Occupied(_) => (id, true),
            Entry::Vacant(slot) => {
                self.bytes += bytes.len() as u64;
                slot.insert(bytes.to_vec());
                (id, false)
            }
        }
    }

    fn get(&self, id: &ChunkId) -> Option<Vec<u8>> {
        self.chunks.get(id).cloned()
    }

    fn contains(&self, id: &ChunkId) -> bool {
        self.chunks.contains_key(id)
    }

    fn len(&self) -> usize {
        self.chunks.len()
    }

    fn stored_bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        ChunkId::of(bytes).to_hex()
    }

    #[test]
    fn sha256_test_vectors() {
        // FIPS 180-4 / NIST examples.
        assert_eq!(
            hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // One million 'a's exercises multi-block + buffering paths.
        let mut h = Sha256::new();
        for _ in 0..10_000 {
            h.update(&[b'a'; 100]);
        }
        assert_eq!(
            ChunkId(h.finish()).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_padding_boundaries() {
        // Lengths either side of the point where the bit length no
        // longer fits the last block (55/56) and of a full block (63/64).
        for (n, want) in [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
        ] {
            assert_eq!(hex(&vec![b'a'; n]), want, "{n} bytes");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        for split in [0, 1, 63, 64, 65, 127, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), sha256(&data), "split {split}");
        }
    }

    #[test]
    fn hex_roundtrip() {
        let id = ChunkId::of(b"roundtrip");
        let hex = id.to_hex();
        assert_eq!(hex, id.hex_into(&mut [0; 64]));
        let back: Vec<u8> = (0..32)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex pair"))
            .collect();
        assert_eq!(back, id.0);
    }

    #[test]
    fn mem_store_dedups() {
        let mut store = MemBlobStore::new();
        let (a, dup_a) = store.put(b"chunk one");
        let (_b, dup_b) = store.put(b"chunk two");
        let (a2, dup_a2) = store.put(b"chunk one");
        assert!(!dup_a && !dup_b && dup_a2);
        assert_eq!(a, a2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.stored_bytes(), 18);
        assert_eq!(store.get(&a).as_deref(), Some(&b"chunk one"[..]));
        assert!(!store.contains(&ChunkId::of(b"absent")));
    }
}
