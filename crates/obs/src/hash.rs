//! The workspace's one stable byte hash, 64-bit FNV-1a. Its outputs are
//! persistence keys (DUT content ids, orbit certificates), so it is not a
//! [`std::hash::Hasher`], whose integer and `str` impls feed native-endian
//! words and separator bytes: callers feed explicit little-endian bytes.

/// Streaming 64-bit FNV-1a: writing `a` then `b` hashes like `a ++ b`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// A hasher at the FNV offset basis (the hash of no bytes).
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn standard_test_vectors() {
        // Reference values of the 64-bit FNV-1a specification.
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"");
        h.write(b"bar");
        assert_eq!(h.finish(), hash(b"foobar"));
    }
}
