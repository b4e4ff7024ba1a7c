//! Dense slab storage for the fleet's llumlets.
//!
//! The serving event loop touches instances on every simulated event —
//! dispatch, step completion, migration stages, sampling — so the container
//! holding them is the hottest data structure in the simulator. A
//! `HashMap<InstanceId, Llumlet>` pays a hash and a probe per access; the
//! slab replaces that with two array indexations: a dense `id → slot` table
//! (instance ids are assigned monotonically and never reused, so the table
//! is a plain `Vec`) and a slot vector whose entries are recycled through a
//! free list, keeping resident memory proportional to the *peak concurrent*
//! fleet, not the total number of instances ever launched.
//!
//! The store also owns the insertion-order walk (`order`) the simulator uses
//! everywhere a deterministic fleet sweep is needed, and the dirty list that
//! drives incremental load-report maintenance: every mutable access marks
//! the instance dirty, so the scheduler's index refresh
//! ([`crate::index::DispatchIndex`]) only revisits instances that could have
//! changed since the last decision.

use llumnix_engine::{InstanceEngine, InstanceId};

use crate::llumlet::Llumlet;

/// Sentinel for "id has no live slot".
const NO_SLOT: u32 = u32::MAX;

/// Slab of llumlets with O(1) id-indexed access and stable iteration order.
///
/// `Clone` supports the sim-level snapshot/fork capability: slots, free list,
/// id map, order walk, and dirty set all copy structurally.
#[derive(Default, Clone)]
pub struct InstanceStore {
    /// Slot payloads; `None` entries are on the free list.
    slots: Vec<Option<Llumlet>>,
    /// Recyclable slot indices.
    free: Vec<u32>,
    /// `InstanceId.0 → slot`, `NO_SLOT` when dead. Grows monotonically with
    /// the id counter (4 bytes per instance ever launched).
    slot_of: Vec<u32>,
    /// Live instances in insertion order — the deterministic sweep order.
    order: Vec<InstanceId>,
    /// Instances touched mutably since the last [`InstanceStore::take_dirty`].
    dirty: Vec<InstanceId>,
    /// Per-slot membership flag for `dirty` (avoids duplicates).
    dirty_flag: Vec<bool>,
}

impl InstanceStore {
    /// An empty store.
    pub fn new() -> Self {
        InstanceStore::default()
    }

    /// Number of live instances.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the store holds no live instances.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Live instances in insertion order.
    pub fn order(&self) -> &[InstanceId] {
        &self.order
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: InstanceId) -> bool {
        self.slot(id).is_some()
    }

    fn slot(&self, id: InstanceId) -> Option<usize> {
        match self.slot_of.get(id.0 as usize) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// Inserts a new llumlet under `id` and marks it dirty.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already live (ids are never reused).
    pub fn insert(&mut self, id: InstanceId, llumlet: Llumlet) {
        assert!(!self.contains(id), "instance id {id} already live");
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(llumlet);
                s as usize
            }
            None => {
                self.slots.push(Some(llumlet));
                self.dirty_flag.push(false);
                self.slots.len() - 1
            }
        };
        if self.slot_of.len() <= id.0 as usize {
            self.slot_of.resize(id.0 as usize + 1, NO_SLOT);
        }
        self.slot_of[id.0 as usize] = slot as u32;
        self.order.push(id);
        self.mark_dirty(id, slot);
    }

    /// Removes and returns the llumlet under `id`, freeing its slot.
    pub fn remove(&mut self, id: InstanceId) -> Option<Llumlet> {
        let slot = self.slot(id)?;
        let llumlet = self.slots[slot].take();
        self.slot_of[id.0 as usize] = NO_SLOT;
        // Clear the flag now so a future occupant of the recycled slot is not
        // silently treated as already-dirty (the stale dirty-list entry keeps
        // this id's removal visible to the next refresh).
        self.dirty_flag[slot] = false;
        self.free.push(slot as u32);
        self.order.retain(|&i| i != id);
        llumlet
    }

    /// Shared access to a llumlet.
    pub fn get(&self, id: InstanceId) -> Option<&Llumlet> {
        let slot = self.slot(id)?;
        self.slots[slot].as_ref()
    }

    /// Mutable access to a llumlet. Marks the instance dirty: any caller
    /// taking `&mut` may mutate load-relevant state, and over-marking only
    /// costs one fresh report at the next index refresh.
    pub fn get_mut(&mut self, id: InstanceId) -> Option<&mut Llumlet> {
        let slot = self.slot(id)?;
        self.mark_dirty(id, slot);
        self.slots[slot].as_mut()
    }

    /// Disjoint mutable access to the engines of two distinct llumlets,
    /// marking both dirty.
    pub fn two_engines(
        &mut self,
        a: InstanceId,
        b: InstanceId,
    ) -> Option<(&mut InstanceEngine, &mut InstanceEngine)> {
        debug_assert_ne!(a, b, "migration endpoints must differ");
        let sa = self.slot(a)?;
        let sb = self.slot(b)?;
        if sa == sb {
            return None;
        }
        self.mark_dirty(a, sa);
        self.mark_dirty(b, sb);
        let (x, y) = if sa < sb {
            let (lo, hi) = self.slots.split_at_mut(sb);
            (lo[sa].as_mut(), hi[0].as_mut())
        } else {
            let (lo, hi) = self.slots.split_at_mut(sa);
            (hi[0].as_mut(), lo[sb].as_mut())
        };
        match (x, y) {
            (Some(x), Some(y)) => Some((&mut x.engine, &mut y.engine)),
            _ => None,
        }
    }

    fn mark_dirty(&mut self, id: InstanceId, slot: usize) {
        if !self.dirty_flag[slot] {
            self.dirty_flag[slot] = true;
            self.dirty.push(id);
        }
    }

    /// Drains the dirty list into `out` (deduplicated; order is marking
    /// order). Dead instances may appear — callers must re-check liveness.
    pub fn take_dirty(&mut self, out: &mut Vec<InstanceId>) {
        out.clear();
        std::mem::swap(out, &mut self.dirty);
        for &id in out.iter() {
            if let Some(&slot) = self.slot_of.get(id.0 as usize) {
                if slot != NO_SLOT {
                    self.dirty_flag[slot as usize] = false;
                }
            }
        }
    }

    /// Iterates live llumlets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (InstanceId, &Llumlet)> {
        self.order.iter().map(move |&id| {
            let slot = self.slot(id).expect("order entries are live");
            (id, self.slots[slot].as_ref().expect("live slot"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llumnix_engine::EngineConfig;
    use llumnix_model::InstanceSpec;
    use llumnix_sim::SimTime;

    fn llumlet(id: u32) -> Llumlet {
        Llumlet::new(
            InstanceEngine::new(
                InstanceId(id),
                InstanceSpec::tiny_for_tests(256),
                EngineConfig::default(),
            ),
            SimTime::ZERO,
            None,
        )
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = InstanceStore::new();
        s.insert(InstanceId(0), llumlet(0));
        s.insert(InstanceId(1), llumlet(1));
        s.insert(InstanceId(2), llumlet(2));
        assert_eq!(s.len(), 3);
        assert_eq!(s.order(), &[InstanceId(0), InstanceId(1), InstanceId(2)]);
        assert_eq!(s.get(InstanceId(1)).unwrap().id(), InstanceId(1));
        let gone = s.remove(InstanceId(1)).unwrap();
        assert_eq!(gone.id(), InstanceId(1));
        assert!(!s.contains(InstanceId(1)));
        assert_eq!(s.order(), &[InstanceId(0), InstanceId(2)]);
        assert!(s.remove(InstanceId(1)).is_none());
    }

    #[test]
    fn slots_are_recycled() {
        let mut s = InstanceStore::new();
        for i in 0..4 {
            s.insert(InstanceId(i), llumlet(i));
        }
        s.remove(InstanceId(1));
        s.remove(InstanceId(3));
        // New instances (fresh ids, never reused) land in recycled slots.
        s.insert(InstanceId(4), llumlet(4));
        s.insert(InstanceId(5), llumlet(5));
        assert_eq!(s.slots.len(), 4, "peak concurrency bounds slot count");
        assert_eq!(
            s.order(),
            &[InstanceId(0), InstanceId(2), InstanceId(4), InstanceId(5)]
        );
        for &id in &[0u32, 2, 4, 5] {
            assert_eq!(s.get(InstanceId(id)).unwrap().id(), InstanceId(id));
        }
    }

    #[test]
    fn mutable_access_marks_dirty() {
        let mut s = InstanceStore::new();
        s.insert(InstanceId(0), llumlet(0));
        s.insert(InstanceId(1), llumlet(1));
        let mut dirty = Vec::new();
        s.take_dirty(&mut dirty);
        assert_eq!(dirty, vec![InstanceId(0), InstanceId(1)], "insert dirties");
        s.take_dirty(&mut dirty);
        assert!(dirty.is_empty(), "drained");
        s.get_mut(InstanceId(1));
        s.get_mut(InstanceId(1));
        s.take_dirty(&mut dirty);
        assert_eq!(dirty, vec![InstanceId(1)], "deduplicated");
        let _ = s.get(InstanceId(0));
        s.take_dirty(&mut dirty);
        assert!(dirty.is_empty(), "shared access does not dirty");
    }

    #[test]
    fn two_engines_disjoint() {
        let mut s = InstanceStore::new();
        s.insert(InstanceId(0), llumlet(0));
        s.insert(InstanceId(1), llumlet(1));
        let (a, b) = s.two_engines(InstanceId(0), InstanceId(1)).unwrap();
        assert_eq!(a.id, InstanceId(0));
        assert_eq!(b.id, InstanceId(1));
        let (b2, a2) = s.two_engines(InstanceId(1), InstanceId(0)).unwrap();
        assert_eq!(b2.id, InstanceId(1));
        assert_eq!(a2.id, InstanceId(0));
        // Both endpoints come back dirty, so the next refresh re-reports the
        // migration's source and destination.
        let mut dirty = Vec::new();
        s.take_dirty(&mut dirty);
        s.two_engines(InstanceId(1), InstanceId(0)).unwrap();
        s.take_dirty(&mut dirty);
        assert_eq!(dirty, vec![InstanceId(1), InstanceId(0)]);
        s.remove(InstanceId(1));
        assert!(s.two_engines(InstanceId(0), InstanceId(1)).is_none());
    }
}
