//! A fixed hasher for the engine's id-keyed maps, and [`IdMap`], the one
//! alias they are declared through.
//!
//! The keys are simulator-assigned request ids ([`crate::RequestId`]), never
//! external input, so there is nothing for SipHash's flooding resistance to
//! defend. One multiply-rotate per id (the
//! FxHash mix) is enough to spread sequential ids over the table, and a
//! fixed seed makes table layout the same in every process.

use std::hash::{BuildHasherDefault, Hasher};

/// Hasher state for one key.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

/// An id-keyed map with the fixed hasher: the one hash container the
/// engine declares. Its iteration order still depends on the insert and
/// remove history, so the audit bans iterating it (DESIGN.md §8).
#[expect(
    clippy::disallowed_types,
    reason = "point lookups by simulator-assigned id; nothing iterates these maps except the order-insensitive ledger re-sum in block.rs"
)]
pub(crate) type IdMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<IdHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(SEED);
    }
}
