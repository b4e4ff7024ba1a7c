//! A fixed hasher for the engine's id-keyed maps.
//!
//! The keys are simulator-assigned integer ids ([`crate::RequestId`],
//! [`crate::ReservationId`]), never external input, so there is nothing for
//! SipHash's flooding resistance to defend. One multiply-rotate per id (the
//! FxHash mix) is enough to spread sequential ids over the table, and a
//! fixed seed makes table layout the same in every process.

use std::hash::{BuildHasherDefault, Hasher};

/// Hasher state for one key.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

/// The hasher every engine map is declared with.
pub(crate) type IdHashing = BuildHasherDefault<IdHasher>;

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
