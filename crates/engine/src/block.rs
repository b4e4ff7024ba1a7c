//! Paged KV-cache block manager.
//!
//! Mirrors vLLM's PagedAttention allocator at the granularity that matters
//! for scheduling: blocks are fungible (we track counts, not addresses),
//! allocation is all-or-nothing per call, and migration *reservations*
//! (paper Figure 7's pre-allocate handshake) hold blocks on a destination
//! instance before any data moves, so a stage can never land without space.

use crate::id_hash::IdMap;
use crate::request::RequestId;

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
            BlockError::AlreadyAllocated(id) => write!(f, "{id} already allocated"),
        }
    }
}

impl std::error::Error for BlockError {}

/// Counting allocator for an instance's KV blocks.
///
/// The caller keeps each request's block count (the engine's
/// `SeqState::blocks_held`) and moves blocks with the counting calls:
/// [`BlockManager::take`] at admission and decode growth,
/// [`BlockManager::give_back`] when a request lets its blocks go, and
/// [`BlockManager::take_reservation`] at a migration commit. Reservations
/// are counted the same way: the migration coordinator keeps each
/// migration's reserved blocks, and the manager keeps only their total. So
/// the manager holds two running totals, `used` and `reserved`, and
/// [`BlockManager::reconciles`] checks them against the caller's records.
///
/// The id-keyed calls ([`BlockManager::allocate`], [`BlockManager::grow`],
/// [`BlockManager::release`], [`BlockManager::blocks_of`] and
/// [`BlockManager::commit_reservation`]) keep a second, per-id record in
/// the manager. Nothing in the simulator calls them; they remain for
/// `simbench`'s `engine.block.churn_ns` replay until that switches to the
/// counting calls.
///
/// # Examples
///
/// ```
/// use llumnix_engine::BlockManager;
///
/// let mut bm = BlockManager::new(10);
/// bm.take(4).unwrap();
/// bm.reserve(3).unwrap();
/// assert_eq!(bm.free_blocks(), 3);
/// // The reservation becomes a counted allocation at migration commit.
/// bm.take_reservation(3);
/// assert_eq!(bm.reserved_blocks(), 0);
/// assert!(bm.reconciles(4 + 3));
/// bm.give_back(4 + 3);
/// assert_eq!(bm.free_blocks(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct BlockManager {
    total: u32,
    /// Blocks held by counted allocations, id-keyed allocations and
    /// reservations: a running ledger, so [`BlockManager::free_blocks`] is
    /// O(1). [`BlockManager::reconciles`] re-sums it.
    used: u32,
    /// Blocks held by migration reservations, the part of `used` that no
    /// request holds yet.
    reserved: u32,
    allocations: IdMap<RequestId, u32>,
}

impl BlockManager {
    /// Creates a manager over `total` blocks.
    pub fn new(total: u32) -> Self {
        BlockManager {
            total,
            used: 0,
            reserved: 0,
            allocations: IdMap::default(),
        }
    }

    /// Total blocks on the instance.
    pub fn total_blocks(&self) -> u32 {
        self.total
    }

    /// Blocks allocated through the id-keyed calls (a full re-sum; the hot
    /// paths read the running ledger through [`BlockManager::free_blocks`]).
    #[expect(
        clippy::disallowed_methods,
        reason = "a sum does not depend on visit order"
    )]
    pub fn allocated_blocks(&self) -> u32 {
        self.allocations.values().sum()
    }

    /// Blocks held by migration reservations.
    pub fn reserved_blocks(&self) -> u32 {
        self.reserved
    }

    /// Free (unallocated, unreserved) blocks.
    pub fn free_blocks(&self) -> u32 {
        self.total - self.used
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

    /// Takes `blocks` from the free pool for a request whose count the
    /// caller keeps (all-or-nothing): admission and decode growth.
    pub fn take(&mut self, blocks: u32) -> Result<(), BlockError> {
        self.fits(blocks)?;
        self.used += blocks;
        Ok(())
    }

    /// Returns `blocks` that a request held through [`BlockManager::take`]
    /// or [`BlockManager::take_reservation`] to the free pool.
    pub fn give_back(&mut self, blocks: u32) {
        self.used -= blocks;
    }

    /// Commits `blocks` of the reservations as a counted allocation
    /// (migration commit on the destination). The blocks stay in use
    /// throughout.
    pub fn take_reservation(&mut self, blocks: u32) {
        self.reserved -= blocks;
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
    /// the pre-allocate handshake): at its start, and again for each later
    /// stage's growth. Fails without side effects when space is
    /// insufficient, which makes the source abort the migration.
    pub fn reserve(&mut self, blocks: u32) -> Result<(), BlockError> {
        self.fits(blocks)?;
        self.reserved += blocks;
        self.used += blocks;
        Ok(())
    }

    /// Returns `blocks` of the reservations to the free pool (an aborted
    /// migration's).
    pub fn release_reservation(&mut self, blocks: u32) {
        self.reserved -= blocks;
        self.used -= blocks;
    }

    /// Commits `blocks` of the reservations as `req`'s id-keyed allocation
    /// (migration commit on the destination). The blocks stay in use
    /// throughout.
    pub fn commit_reservation(&mut self, blocks: u32, req: RequestId) -> Result<(), BlockError> {
        if self.allocations.contains_key(&req) {
            return Err(BlockError::AlreadyAllocated(req));
        }
        self.reserved -= blocks;
        self.allocations.insert(req, blocks);
        Ok(())
    }

    /// Internal consistency check: the running `used` ledger equals `held`
    /// (the blocks the caller's records hold through the counting calls)
    /// plus the re-summed id-keyed allocations and the reservations, and
    /// never exceeds `total`.
    pub fn reconciles(&self, held: u32) -> bool {
        self.used == held + self.allocated_blocks() + self.reserved && self.used <= self.total
    }

    /// [`BlockManager::reconciles`] for a manager used only through the
    /// id-keyed calls.
    pub fn check_invariants(&self) -> bool {
        self.reconciles(0)
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
        bm.reserve(6).unwrap();
        assert_eq!(bm.free_blocks(), 4);
        // Allocation can't take reserved space.
        assert!(bm.allocate(rid(1), 5).is_err());
        bm.reserve(2).unwrap();
        assert_eq!(bm.reserved_blocks(), 8);
        bm.release_reservation(8);
        assert_eq!(bm.reserved_blocks(), 0);
        assert_eq!(bm.free_blocks(), 10);
        assert!(bm.check_invariants());
    }

    #[test]
    fn commit_turns_reservation_into_allocation() {
        let mut bm = BlockManager::new(10);
        bm.reserve(6).unwrap();
        bm.commit_reservation(6, rid(7)).unwrap();
        assert_eq!(bm.blocks_of(rid(7)), 6);
        // The reservation is consumed, and its blocks stay in use.
        assert_eq!(bm.reserved_blocks(), 0);
        assert_eq!(bm.free_blocks(), 4);
        assert!(bm.check_invariants());
    }

    #[test]
    fn commit_rejects_existing_allocation_and_keeps_reservation() {
        let mut bm = BlockManager::new(10);
        bm.allocate(rid(7), 2).unwrap();
        bm.reserve(3).unwrap();
        assert_eq!(
            bm.commit_reservation(3, rid(7)).unwrap_err(),
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
        bm.reserve(5).unwrap();
        assert_eq!(ledger(&bm), 12);
        bm.reserve(2).unwrap();
        assert_eq!(ledger(&bm), 14);
        // Failed calls move nothing.
        assert!(bm.grow(rid(1), 7).is_err());
        assert!(bm.allocate(rid(2), 7).is_err());
        assert!(bm.reserve(7).is_err());
        assert_eq!(ledger(&bm), 14);
        assert_eq!(bm.reserved_blocks(), 7);
        // Commit moves blocks from reservation to allocation: still in use.
        bm.commit_reservation(7, rid(2)).unwrap();
        assert_eq!(ledger(&bm), 14);
        bm.reserve(6).unwrap();
        assert_eq!(ledger(&bm), 20);
        bm.release_reservation(6);
        assert_eq!(ledger(&bm), 14);
        assert_eq!(bm.reserved_blocks(), 0);
        assert_eq!(bm.release(rid(1)).unwrap(), 7);
        assert_eq!(bm.release(rid(2)).unwrap(), 7);
        assert_eq!(ledger(&bm), 0);
    }

    #[test]
    fn counting_calls_move_only_the_used_ledger() {
        let mut bm = BlockManager::new(10);
        bm.take(4).unwrap();
        bm.take(2).unwrap();
        // All-or-nothing: a failed take moves nothing.
        assert_eq!(
            bm.take(5).unwrap_err(),
            BlockError::OutOfBlocks {
                requested: 5,
                free: 4
            }
        );
        bm.reserve(3).unwrap();
        assert_eq!(bm.free_blocks(), 1);
        assert!(bm.reconciles(6));
        bm.take_reservation(3);
        assert_eq!(bm.free_blocks(), 1, "a commit keeps its blocks in use");
        assert_eq!(bm.reserved_blocks(), 0);
        assert!(bm.reconciles(9));
        assert!(!bm.reconciles(8) && !bm.reconciles(10));
        bm.give_back(9);
        assert_eq!(bm.free_blocks(), 10);
        assert!(bm.reconciles(0) && bm.check_invariants());
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
}
