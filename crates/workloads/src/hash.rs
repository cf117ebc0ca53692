//! The workspace's one stable hash.

/// Streaming 64-bit FNV-1a, the workspace's one stable hash (seeds, model
/// content hashes, snapshot checksums): unlike
/// [`std::hash::DefaultHasher`] it is fixed across processes and builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// The hash of `bytes` in one call.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Self::default();
        h.write(bytes);
        h.finish()
    }

    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feeds `v` as its eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Formatting into the hasher feeds it the text without allocating.
impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a over a label: the stable seed component used everywhere the
/// workspace derives per-work-item RNG streams. Independent of sweep order
/// and thread assignment, which is what makes parallel runs byte-identical
/// to serial ones.
pub fn fnv1a(label: &str) -> u64 {
    Fnv1a::hash(label.as_bytes())
}
