//! Paged KV-cache block manager.
//!
//! Mirrors vLLM's PagedAttention allocator at the granularity that matters
//! for scheduling: blocks are fungible (we track counts, not addresses),
//! allocation is all-or-nothing per call, and migration *reservations*
//! (paper Figure 7's pre-allocate handshake) hold blocks on a destination
//! instance before any data moves, so a stage can never land without space.

use crate::id_hash::IdMap;
use crate::request::RequestId;

/// Identifier for a migration reservation on a destination instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReservationId(pub u64);

/// Errors from block-manager operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// Not enough free blocks to satisfy the call.
    OutOfBlocks {
        /// Blocks requested.
        requested: u32,
        /// Blocks free at the time.
        free: u32,
    },
    /// The request holds no allocation.
    UnknownRequest(RequestId),
    /// The reservation does not exist.
    UnknownReservation(ReservationId),
    /// The request already holds an allocation.
    AlreadyAllocated(RequestId),
}

impl core::fmt::Display for BlockError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BlockError::OutOfBlocks { requested, free } => {
                write!(f, "out of blocks: requested {requested}, free {free}")
            }
            BlockError::UnknownRequest(id) => write!(f, "no allocation for {id}"),
            BlockError::UnknownReservation(ReservationId(id)) => {
                write!(f, "no reservation {id}")
            }
            BlockError::AlreadyAllocated(id) => write!(f, "{id} already allocated"),
        }
    }
}

impl std::error::Error for BlockError {}

/// Counting allocator for an instance's KV blocks.
///
/// # Examples
///
/// ```
/// use llumnix_engine::{BlockManager, RequestId};
///
/// let mut bm = BlockManager::new(10);
/// bm.allocate(RequestId(1), 4).unwrap();
/// let reservation = bm.reserve(3).unwrap();
/// assert_eq!(bm.free_blocks(), 3);
/// // The reservation becomes an allocation at migration commit.
/// bm.commit_reservation(reservation, RequestId(2)).unwrap();
/// assert_eq!(bm.blocks_of(RequestId(2)), 3);
/// ```
#[derive(Debug, Clone)]
pub struct BlockManager {
    total: u32,
    /// Blocks held by allocations plus reservations: a running ledger kept
    /// in step with the two maps, so [`BlockManager::free_blocks`] is O(1).
    /// [`BlockManager::check_invariants`] re-sums the maps against it.
    used: u32,
    allocations: IdMap<RequestId, u32>,
    reservations: IdMap<ReservationId, u32>,
    next_reservation: u64,
}

impl BlockManager {
    /// Creates a manager over `total` blocks.
    pub fn new(total: u32) -> Self {
        BlockManager {
            total,
            used: 0,
            allocations: IdMap::default(),
            reservations: IdMap::default(),
            next_reservation: 0,
        }
    }

    /// Total blocks on the instance.
    pub fn total_blocks(&self) -> u32 {
        self.total
    }

    /// Blocks currently allocated to requests (a full re-sum; the hot paths
    /// read the running ledger through [`BlockManager::free_blocks`]).
    #[expect(
        clippy::disallowed_methods,
        reason = "a sum does not depend on visit order"
    )]
    pub fn allocated_blocks(&self) -> u32 {
        self.allocations.values().sum()
    }

    /// Blocks held by migration reservations (a full re-sum).
    #[expect(
        clippy::disallowed_methods,
        reason = "a sum does not depend on visit order"
    )]
    pub fn reserved_blocks(&self) -> u32 {
        self.reservations.values().sum()
    }

    /// Free (unallocated, unreserved) blocks.
    pub fn free_blocks(&self) -> u32 {
        self.total - self.used
    }

    /// Fraction of blocks in use (allocations + reservations).
    pub fn utilization(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        1.0 - self.free_blocks() as f64 / self.total as f64
    }

    /// Blocks allocated to `id`, or 0.
    pub fn blocks_of(&self, id: RequestId) -> u32 {
        self.allocations.get(&id).copied().unwrap_or(0)
    }

    /// Checks that `blocks` fit in the free pool, without side effects.
    fn fits(&self, blocks: u32) -> Result<(), BlockError> {
        let free = self.free_blocks();
        if blocks > free {
            return Err(BlockError::OutOfBlocks {
                requested: blocks,
                free,
            });
        }
        Ok(())
    }

    /// Allocates exactly `blocks` to `id` (all-or-nothing). The request must
    /// not already hold an allocation.
    pub fn allocate(&mut self, id: RequestId, blocks: u32) -> Result<(), BlockError> {
        if self.allocations.contains_key(&id) {
            return Err(BlockError::AlreadyAllocated(id));
        }
        self.fits(blocks)?;
        self.allocations.insert(id, blocks);
        self.used += blocks;
        Ok(())
    }

    /// Grows `id`'s allocation by `extra` blocks (decode-time growth).
    pub fn grow(&mut self, id: RequestId, extra: u32) -> Result<(), BlockError> {
        if !self.allocations.contains_key(&id) {
            return Err(BlockError::UnknownRequest(id));
        }
        self.fits(extra)?;
        *self.allocations.get_mut(&id).expect("checked above") += extra;
        self.used += extra;
        Ok(())
    }

    /// Releases `id`'s allocation, returning the freed block count.
    pub fn release(&mut self, id: RequestId) -> Result<u32, BlockError> {
        let blocks = self
            .allocations
            .remove(&id)
            .ok_or(BlockError::UnknownRequest(id))?;
        self.used -= blocks;
        Ok(blocks)
    }

    /// Reserves `blocks` for an incoming migration stage (destination side of
    /// the pre-allocate handshake). Fails without side effects when space is
    /// insufficient, which makes the source abort the migration.
    pub fn reserve(&mut self, blocks: u32) -> Result<ReservationId, BlockError> {
        self.fits(blocks)?;
        let id = ReservationId(self.next_reservation);
        self.next_reservation += 1;
        self.reservations.insert(id, blocks);
        self.used += blocks;
        Ok(id)
    }

    /// Grows an existing reservation by `extra` blocks (later stages).
    pub fn grow_reservation(&mut self, id: ReservationId, extra: u32) -> Result<(), BlockError> {
        if !self.reservations.contains_key(&id) {
            return Err(BlockError::UnknownReservation(id));
        }
        self.fits(extra)?;
        *self.reservations.get_mut(&id).expect("checked above") += extra;
        self.used += extra;
        Ok(())
    }

    /// Aborts a reservation, returning its blocks to the free pool.
    pub fn release_reservation(&mut self, id: ReservationId) -> Result<u32, BlockError> {
        let blocks = self
            .reservations
            .remove(&id)
            .ok_or(BlockError::UnknownReservation(id))?;
        self.used -= blocks;
        Ok(blocks)
    }

    /// Commits a reservation: its blocks become `req`'s allocation (migration
    /// commit on the destination). The blocks stay in use throughout.
    pub fn commit_reservation(
        &mut self,
        id: ReservationId,
        req: RequestId,
    ) -> Result<u32, BlockError> {
        if self.allocations.contains_key(&req) {
            return Err(BlockError::AlreadyAllocated(req));
        }
        let blocks = self
            .reservations
            .remove(&id)
            .ok_or(BlockError::UnknownReservation(id))?;
        self.allocations.insert(req, blocks);
        Ok(blocks)
    }

    /// Internal consistency check: the running `used` ledger equals the
    /// re-summed allocations plus reservations, and never exceeds `total`.
    pub fn check_invariants(&self) -> bool {
        self.used == self.allocated_blocks() + self.reserved_blocks() && self.used <= self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(n: u64) -> RequestId {
        RequestId(n)
    }

    #[test]
    fn allocate_grow_release() {
        let mut bm = BlockManager::new(10);
        bm.allocate(rid(1), 4).unwrap();
        assert_eq!(bm.free_blocks(), 6);
        bm.grow(rid(1), 2).unwrap();
        assert_eq!(bm.blocks_of(rid(1)), 6);
        assert_eq!(bm.release(rid(1)).unwrap(), 6);
        assert_eq!(bm.free_blocks(), 10);
        assert!(bm.check_invariants());
    }

    #[test]
    fn allocation_is_all_or_nothing() {
        let mut bm = BlockManager::new(5);
        bm.allocate(rid(1), 3).unwrap();
        let err = bm.allocate(rid(2), 4).unwrap_err();
        assert_eq!(
            err,
            BlockError::OutOfBlocks {
                requested: 4,
                free: 2
            }
        );
        // Failed allocation left no residue.
        assert_eq!(bm.free_blocks(), 2);
        assert_eq!(bm.blocks_of(rid(2)), 0);
    }

    #[test]
    fn double_allocation_rejected() {
        let mut bm = BlockManager::new(5);
        bm.allocate(rid(1), 1).unwrap();
        assert_eq!(
            bm.allocate(rid(1), 1).unwrap_err(),
            BlockError::AlreadyAllocated(rid(1))
        );
    }

    #[test]
    fn grow_unknown_rejected() {
        let mut bm = BlockManager::new(5);
        assert_eq!(
            bm.grow(rid(9), 1).unwrap_err(),
            BlockError::UnknownRequest(rid(9))
        );
        assert_eq!(
            bm.release(rid(9)).unwrap_err(),
            BlockError::UnknownRequest(rid(9))
        );
    }

    #[test]
    fn reservations_hold_space() {
        let mut bm = BlockManager::new(10);
        let r = bm.reserve(6).unwrap();
        assert_eq!(bm.free_blocks(), 4);
        // Allocation can't take reserved space.
        assert!(bm.allocate(rid(1), 5).is_err());
        bm.grow_reservation(r, 2).unwrap();
        assert_eq!(bm.reserved_blocks(), 8);
        assert_eq!(bm.release_reservation(r).unwrap(), 8);
        assert_eq!(bm.free_blocks(), 10);
        assert!(bm.check_invariants());
    }

    #[test]
    fn commit_turns_reservation_into_allocation() {
        let mut bm = BlockManager::new(10);
        let r = bm.reserve(6).unwrap();
        let blocks = bm.commit_reservation(r, rid(7)).unwrap();
        assert_eq!(blocks, 6);
        assert_eq!(bm.blocks_of(rid(7)), 6);
        assert_eq!(bm.reserved_blocks(), 0);
        // The reservation is consumed.
        assert!(bm.release_reservation(r).is_err());
        assert!(bm.check_invariants());
    }

    #[test]
    fn commit_rejects_existing_allocation_and_keeps_reservation() {
        let mut bm = BlockManager::new(10);
        bm.allocate(rid(7), 2).unwrap();
        let r = bm.reserve(3).unwrap();
        assert_eq!(
            bm.commit_reservation(r, rid(7)).unwrap_err(),
            BlockError::AlreadyAllocated(rid(7))
        );
        // Reservation untouched by the failed commit.
        assert_eq!(bm.reserved_blocks(), 3);
    }

    #[test]
    fn reserve_fails_cleanly_when_full() {
        let mut bm = BlockManager::new(4);
        bm.allocate(rid(1), 3).unwrap();
        assert!(bm.reserve(2).is_err());
        assert_eq!(bm.free_blocks(), 1);
        assert!(bm.check_invariants());
    }

    #[test]
    fn used_ledger_tracks_every_operation() {
        let mut bm = BlockManager::new(20);
        let ledger = |bm: &BlockManager| {
            assert!(bm.check_invariants());
            bm.total_blocks() - bm.free_blocks()
        };
        bm.allocate(rid(1), 4).unwrap();
        assert_eq!(ledger(&bm), 4);
        bm.grow(rid(1), 3).unwrap();
        assert_eq!(ledger(&bm), 7);
        let r = bm.reserve(5).unwrap();
        assert_eq!(ledger(&bm), 12);
        bm.grow_reservation(r, 2).unwrap();
        assert_eq!(ledger(&bm), 14);
        // Failed calls move nothing.
        assert!(bm.grow(rid(1), 7).is_err());
        assert!(bm.grow_reservation(r, 7).is_err());
        assert!(bm.allocate(rid(2), 7).is_err());
        assert!(bm.reserve(7).is_err());
        assert_eq!(ledger(&bm), 14);
        // Commit moves blocks from reservation to allocation: still in use.
        assert_eq!(bm.commit_reservation(r, rid(2)).unwrap(), 7);
        assert_eq!(ledger(&bm), 14);
        let r2 = bm.reserve(6).unwrap();
        assert_eq!(ledger(&bm), 20);
        assert_eq!(bm.release_reservation(r2).unwrap(), 6);
        assert_eq!(ledger(&bm), 14);
        assert_eq!(bm.release(rid(1)).unwrap(), 7);
        assert_eq!(bm.release(rid(2)).unwrap(), 7);
        assert_eq!(ledger(&bm), 0);
    }

    #[test]
    fn check_invariants_catches_a_drifted_ledger() {
        let mut bm = BlockManager::new(10);
        bm.allocate(rid(1), 4).unwrap();
        assert!(bm.check_invariants());
        bm.used -= 1;
        assert!(!bm.check_invariants(), "ledger below the maps");
        bm.used += 2;
        assert!(!bm.check_invariants(), "ledger above the maps");
        bm.used = 11;
        bm.allocations.insert(rid(1), 11);
        assert!(!bm.check_invariants(), "ledger over capacity");
    }

    #[test]
    fn utilization() {
        let mut bm = BlockManager::new(10);
        assert_eq!(bm.utilization(), 0.0);
        bm.allocate(rid(1), 5).unwrap();
        assert!((bm.utilization() - 0.5).abs() < 1e-12);
        let _ = bm.reserve(5).unwrap();
        assert!((bm.utilization() - 1.0).abs() < 1e-12);
        assert_eq!(BlockManager::new(0).utilization(), 0.0);
    }
}
