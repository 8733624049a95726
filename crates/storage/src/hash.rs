//! The kernel's hasher for ids it hands out itself.
//!
//! A page id or an atom id is a few integers the kernel generates, not
//! attacker-chosen input, so SipHash's flooding resistance (std's
//! default) buys nothing for the tables keyed by them — the buffer's page
//! index, which every fix probes, and the molecule table of assembly.
//! [`IdHasher`] is FxHash's step instead: rotate, xor, multiply by an odd
//! constant, one step per integer field.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for kernel-generated ids; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// Builds an [`IdHasher`] per table lookup (`HashMap<K, V, IdBuildHasher>`).
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageId;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    /// Consecutive pages of a few segments — the ids a buffer indexes —
    /// spread over the low bits a hash table picks its bucket from.
    #[test]
    fn consecutive_page_ids_spread_over_buckets() {
        let build = IdBuildHasher::default();
        let buckets: HashSet<u64> = (0..4u32)
            .flat_map(|seg| (0..256u32).map(move |page| PageId::new(seg, page)))
            .map(|id| build.hash_one(id) & 1023)
            .collect();
        assert!(buckets.len() > 600, "1024 ids fill only {} of 1024 buckets", buckets.len());
    }
}
