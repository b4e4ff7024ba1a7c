//! Incremental freeness index over the fleet's load reports.
//!
//! The global scheduler's hot decisions — dispatch target, migration
//! source/destination pairing, termination-victim selection — were all
//! argmin/argmax scans over a freshly built `Vec<LoadReport>`, O(N) per
//! arrival. This module keeps those orderings *incrementally*: a persistent
//! per-instance [`LoadReport`] buffer plus ordered sets keyed by an
//! order-preserving integer encoding of the relevant load signal, updated
//! only for instances whose engine saw an event since the last decision
//! (the dirty set maintained by [`crate::store::InstanceStore`]).
//!
//! # Determinism contract
//!
//! Every selection is **bit-for-bit identical** to the scan it replaces:
//!
//! * the set key is [`order_key`], a *lossless* monotone `f64 → u64` map, so
//!   set order equals `partial_cmp` order on the raw freeness — no real
//!   quantization error is introduced;
//! * ties are broken by `InstanceId` exactly as the scans did: dispatch
//!   takes the smallest id among maximal freeness, INFaaS++ the smallest id
//!   among minimal memory load, pairing sorts sources ascending and
//!   destinations descending with ascending-id ties, and the termination
//!   victim is the smallest id among the fewest running requests;
//! * round-robin indexes a `serving_order` list maintained in the exact
//!   insertion order the old filtered sweep produced.
//!
//! The serving simulator cross-checks all of this in debug builds against a
//! from-scratch rescan, and `crates/core/tests/proptests.rs` drives the
//! index through arbitrary event sequences with the same assertion.

use std::collections::BTreeSet;
use std::ops::Bound;

use llumnix_engine::InstanceId;

use crate::policy::{LoadReport, MigrationThresholds, SchedulerKind};

/// Maps a (non-NaN) `f64` to a `u64` whose unsigned order equals the float
/// order. Negative zero folds into positive zero first so `-0.0` and `0.0`
/// (equal as floats) cannot order differently as keys.
pub fn order_key(f: f64) -> u64 {
    debug_assert!(!f.is_nan(), "load signals are never NaN");
    let bits = (f + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Which orderings the index maintains. Unused orderings cost two B-tree
/// operations per load change, so each run enables only what its scheduler
/// can consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexPolicy {
    /// Freeness ordering (Llumnix/Centralized dispatch, migration pairing).
    pub track_freeness: bool,
    /// Headroom-free freeness ordering (high-priority dispatch).
    pub track_physical: bool,
    /// Memory-load ordering (INFaaS++ dispatch).
    pub track_memory: bool,
    /// Running-count ordering (termination-victim selection).
    pub track_running: bool,
}

impl IndexPolicy {
    /// Everything on (tests and benches).
    pub fn all() -> Self {
        IndexPolicy {
            track_freeness: true,
            track_physical: true,
            track_memory: true,
            track_running: true,
        }
    }

    /// The orderings a serving run under `kind` can actually consult.
    /// `autoscale` enables the termination-victim ordering.
    pub fn for_run(kind: SchedulerKind, autoscale: bool) -> Self {
        let freeness_dispatch = matches!(
            kind,
            SchedulerKind::LlumnixBase | SchedulerKind::Llumnix | SchedulerKind::Centralized
        );
        IndexPolicy {
            track_freeness: freeness_dispatch || kind.uses_migration(),
            track_physical: kind.uses_priorities(),
            track_memory: matches!(kind, SchedulerKind::InfaasPlusPlus),
            track_running: autoscale,
        }
    }
}

/// Fleet-membership class derived from a report's flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Membership {
    /// Eligible for dispatch and as a migration destination.
    Serving,
    /// Draining for termination: permanent migration source, never a target.
    Terminating,
    /// Still in its startup delay: invisible to every decision.
    Starting,
}

fn membership(report: &LoadReport) -> Membership {
    // Termination wins over startup: an instance told to terminate while
    // still inside its startup delay (fast scale-up-then-down churn) must
    // act as a migration source immediately, matching the rescan filter in
    // [`crate::policy::pair_migrations`].
    if report.terminating {
        Membership::Terminating
    } else if report.starting {
        Membership::Starting
    } else {
        Membership::Serving
    }
}

/// One instance's indexed state: its last applied report.
#[derive(Debug, Clone, Copy)]
struct Entry {
    report: LoadReport,
    state: Membership,
}

/// Which of a serving instance's ordering keys an operation touches. A
/// report update re-keys only the keys that moved, removing them all before
/// inserting any: on a small fleet that is measurably cheaper than
/// removing and re-inserting one ordering at a time.
#[derive(Debug, Clone, Copy)]
struct Keys {
    freeness: bool,
    physical: bool,
    memory: bool,
    running: bool,
}

impl Keys {
    const ALL: Keys = Keys {
        freeness: true,
        physical: true,
        memory: true,
        running: true,
    };

    /// The keys that differ between two reports of one instance.
    fn moved(old: &LoadReport, new: &LoadReport) -> Keys {
        Keys {
            freeness: order_key(old.freeness) != order_key(new.freeness),
            physical: order_key(old.freeness_physical) != order_key(new.freeness_physical),
            memory: order_key(old.memory_load) != order_key(new.memory_load),
            running: old.num_running as u32 != new.num_running as u32,
        }
    }
}

/// Outcome of [`DispatchIndex::update`], used by the caller to schedule the
/// starting→serving re-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// The instance entered the `starting` state with this update.
    pub became_starting: bool,
}

/// The incremental dispatch/pairing/termination index.
///
/// `Clone` supports the sim-level snapshot/fork capability (all orderings are
/// plain `BTreeSet`s/`Vec`s, so a clone is an independent, identical index).
#[derive(Clone)]
pub struct DispatchIndex {
    policy: IndexPolicy,
    /// `InstanceId.0 → last applied report` — the persistent report buffer.
    entries: Vec<Option<Entry>>,
    /// Serving instances by `(order_key(freeness), id)`.
    by_freeness: BTreeSet<(u64, u32)>,
    /// Serving instances by `(order_key(freeness_physical), id)`.
    by_physical: BTreeSet<(u64, u32)>,
    /// Serving instances by `(order_key(memory_load), id)`.
    by_memory: BTreeSet<(u64, u32)>,
    /// Serving instances by `(num_running, id)`.
    by_running: BTreeSet<(u32, u32)>,
    /// Serving instances in fleet insertion order (round-robin dispatch).
    serving_order: Vec<InstanceId>,
    /// Terminating instances, ascending id (their freeness is uniformly
    /// `-∞`, so id order *is* their source-sort order).
    terminating: Vec<u32>,
    /// `serving_order` needs rebuilding from the store's order walk.
    order_dirty: bool,
}

impl DispatchIndex {
    /// An empty index maintaining the orderings `policy` enables.
    pub fn new(policy: IndexPolicy) -> Self {
        DispatchIndex {
            policy,
            entries: Vec::new(),
            by_freeness: BTreeSet::new(),
            by_physical: BTreeSet::new(),
            by_memory: BTreeSet::new(),
            by_running: BTreeSet::new(),
            serving_order: Vec::new(),
            terminating: Vec::new(),
            order_dirty: false,
        }
    }

    /// The instance's last applied report, if it is indexed.
    pub fn report(&self, id: InstanceId) -> Option<&LoadReport> {
        self.entries.get(id.0 as usize)?.as_ref().map(|e| &e.report)
    }

    /// Applies a fresh report, diffing against the stored entry and touching
    /// only the orderings whose key actually moved.
    pub fn update(&mut self, report: &LoadReport) -> UpdateOutcome {
        let idx = report.id.0 as usize;
        if self.entries.len() <= idx {
            self.entries.resize(idx + 1, None);
        }
        let new_state = membership(report);
        let old = self.entries[idx];
        match old {
            Some(old) if old.report == *report => {
                return UpdateOutcome {
                    became_starting: false,
                };
            }
            // Same membership: only a serving instance sits in keyed sets.
            Some(old) if old.state == new_state => {
                if new_state == Membership::Serving {
                    let moved = Keys::moved(&old.report, report);
                    self.remove_keys(&old.report, moved);
                    self.insert_keys(report, moved);
                }
            }
            Some(old) => {
                self.detach(&old);
                self.attach(report, new_state);
            }
            None => self.attach(report, new_state),
        }
        self.entries[idx] = Some(Entry {
            report: *report,
            state: new_state,
        });
        let was_serving = old.is_some_and(|e| e.state == Membership::Serving);
        if was_serving != (new_state == Membership::Serving) {
            self.order_dirty = true;
        }
        UpdateOutcome {
            became_starting: new_state == Membership::Starting
                && old.is_none_or(|e| e.state != Membership::Starting),
        }
    }

    /// Drops an instance from every ordering (failure or completed
    /// termination).
    pub fn remove(&mut self, id: InstanceId) {
        let idx = id.0 as usize;
        let Some(Some(old)) = self.entries.get(idx).copied() else {
            return;
        };
        self.detach(&old);
        self.entries[idx] = None;
        if old.state == Membership::Serving {
            self.order_dirty = true;
        }
    }

    fn detach(&mut self, old: &Entry) {
        let id = old.report.id.0;
        match old.state {
            Membership::Serving => self.remove_keys(&old.report, Keys::ALL),
            Membership::Terminating => {
                if let Ok(pos) = self.terminating.binary_search(&id) {
                    self.terminating.remove(pos);
                }
            }
            Membership::Starting => {}
        }
    }

    fn attach(&mut self, report: &LoadReport, state: Membership) {
        let id = report.id.0;
        match state {
            Membership::Serving => self.insert_keys(report, Keys::ALL),
            Membership::Terminating => {
                if let Err(pos) = self.terminating.binary_search(&id) {
                    self.terminating.insert(pos, id);
                }
            }
            Membership::Starting => {}
        }
    }

    /// Removes a serving instance's `keys` from the tracked orderings.
    fn remove_keys(&mut self, r: &LoadReport, keys: Keys) {
        let id = r.id.0;
        let track = self.policy;
        if keys.freeness && track.track_freeness {
            self.by_freeness.remove(&(order_key(r.freeness), id));
        }
        if keys.physical && track.track_physical {
            self.by_physical
                .remove(&(order_key(r.freeness_physical), id));
        }
        if keys.memory && track.track_memory {
            self.by_memory.remove(&(order_key(r.memory_load), id));
        }
        if keys.running && track.track_running {
            self.by_running.remove(&(r.num_running as u32, id));
        }
    }

    /// Inserts a serving instance's `keys` into the tracked orderings.
    fn insert_keys(&mut self, r: &LoadReport, keys: Keys) {
        let id = r.id.0;
        let track = self.policy;
        if keys.freeness && track.track_freeness {
            self.by_freeness.insert((order_key(r.freeness), id));
        }
        if keys.physical && track.track_physical {
            self.by_physical
                .insert((order_key(r.freeness_physical), id));
        }
        if keys.memory && track.track_memory {
            self.by_memory.insert((order_key(r.memory_load), id));
        }
        if keys.running && track.track_running {
            self.by_running.insert((r.num_running as u32, id));
        }
    }

    /// Rebuilds the round-robin order after membership changed. `order` is
    /// the store's insertion-order walk of live instances.
    pub fn sync_order(&mut self, order: &[InstanceId]) {
        if !self.order_dirty {
            return;
        }
        self.serving_order.clear();
        for &id in order {
            if let Some(Some(e)) = self.entries.get(id.0 as usize) {
                if e.state == Membership::Serving {
                    self.serving_order.push(id);
                }
            }
        }
        self.order_dirty = false;
    }

    /// Number of serving (dispatch-eligible) instances.
    pub fn serving_len(&self) -> usize {
        debug_assert!(!self.order_dirty, "sync_order before selection");
        self.serving_order.len()
    }

    /// The `i`-th serving instance in fleet insertion order (round-robin).
    pub fn serving_at(&self, i: usize) -> Option<InstanceId> {
        debug_assert!(!self.order_dirty, "sync_order before selection");
        self.serving_order.get(i).copied()
    }

    /// The freest serving instance: maximal freeness (headroom-free when
    /// `physical`), smallest id among ties — the Llumnix dispatch rule.
    pub fn freest(&self, physical: bool) -> Option<InstanceId> {
        let set = if physical {
            debug_assert!(self.policy.track_physical);
            &self.by_physical
        } else {
            debug_assert!(self.policy.track_freeness);
            &self.by_freeness
        };
        let &(max_key, _) = set.iter().next_back()?;
        let &(_, id) = set.range((max_key, 0)..).next()?;
        Some(InstanceId(id))
    }

    /// The serving instance with the lowest memory load, smallest id among
    /// ties — the INFaaS++ dispatch rule.
    pub fn least_memory_load(&self) -> Option<InstanceId> {
        debug_assert!(self.policy.track_memory);
        self.by_memory.iter().next().map(|&(_, id)| InstanceId(id))
    }

    /// The serving instance with the fewest running requests, smallest id
    /// among ties — the termination-victim rule.
    pub fn drain_victim(&self) -> Option<InstanceId> {
        debug_assert!(self.policy.track_running);
        self.by_running.iter().next().map(|&(_, id)| InstanceId(id))
    }

    /// Migration pairing (§4.4.3) straight off the index: sources are
    /// terminating instances (ascending id; they all report `-∞` freeness,
    /// and terminating instances still inside their startup delay count too)
    /// followed by serving instances strictly below the source threshold in
    /// ascending `(freeness, id)` order; destinations are serving instances
    /// strictly above the destination threshold in descending freeness,
    /// ascending id among ties. Lowest is matched with highest, repeatedly —
    /// identical to [`crate::policy::pair_migrations`] over fresh reports.
    ///
    /// Destinations come off a reverse walk of `by_freeness` that stops when
    /// the sources run out. That walk meets tied keys in descending id
    /// order, so a run of equal keys is read ascending through its own range
    /// lookup, and the walk resumes below it. Nothing is sorted or buffered.
    pub fn pair(&self, thresholds: MigrationThresholds) -> Vec<(InstanceId, InstanceId)> {
        debug_assert!(self.policy.track_freeness);
        let src_bound = (order_key(thresholds.source_below), 0u32);
        let mut sources = self
            .terminating
            .iter()
            .copied()
            .chain(self.by_freeness.range(..src_bound).map(|&(_, id)| id));
        // Freeness strictly above the threshold: past every id at its key.
        let above = Bound::Excluded((order_key(thresholds.destination_above), u32::MAX));
        let mut walk = self.by_freeness.range((above, Bound::Unbounded)).rev();
        let mut pairs = Vec::new();
        let mut next = walk.next();
        while let Some(&(key, id)) = next {
            next = walk.next();
            if next.is_none_or(|&(k, _)| k != key) {
                let Some(src) = sources.next() else { break };
                pairs.push((InstanceId(src), InstanceId(id)));
                continue;
            }
            for &(_, tied) in self.by_freeness.range((key, 0)..=(key, u32::MAX)) {
                let Some(src) = sources.next() else {
                    return pairs;
                };
                pairs.push((InstanceId(src), InstanceId(tied)));
            }
            walk = self
                .by_freeness
                .range((above, Bound::Excluded((key, 0))))
                .rev();
            next = walk.next();
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(id: u32, freeness: f64, load: f64) -> LoadReport {
        LoadReport {
            id: InstanceId(id),
            freeness,
            freeness_physical: freeness,
            memory_load: load,
            num_running: 0,
            num_waiting: 0,
            terminating: false,
            starting: false,
        }
    }

    #[test]
    fn order_key_preserves_float_order() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1e-12,
            0.0,
            1e-12,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(order_key(w[0]) < order_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        assert_eq!(order_key(-0.0), order_key(0.0), "signed zeros are equal");
        assert_eq!(order_key(3.25), order_key(3.25));
    }

    #[test]
    fn freest_breaks_ties_by_smallest_id() {
        let mut ix = DispatchIndex::new(IndexPolicy::all());
        ix.update(&report(3, 50.0, 0.1));
        ix.update(&report(1, 50.0, 0.2));
        ix.update(&report(2, 10.0, 0.3));
        assert_eq!(ix.freest(false), Some(InstanceId(1)));
        assert_eq!(ix.least_memory_load(), Some(InstanceId(3)));
        // Update moves an instance between key positions.
        ix.update(&report(2, 60.0, 0.3));
        assert_eq!(ix.freest(false), Some(InstanceId(2)));
        ix.remove(InstanceId(2));
        assert_eq!(ix.freest(false), Some(InstanceId(1)));
    }

    #[test]
    fn membership_transitions() {
        let mut ix = DispatchIndex::new(IndexPolicy::all());
        let mut r0 = report(0, 100.0, 0.0);
        let out = ix.update(&r0);
        assert!(!out.became_starting);
        let mut r1 = report(1, 5.0, 0.0);
        r1.starting = true;
        assert!(ix.update(&r1).became_starting);
        assert!(!ix.update(&r1).became_starting, "no re-trigger");
        ix.sync_order(&[InstanceId(0), InstanceId(1)]);
        assert_eq!(ix.serving_len(), 1);
        // The starting instance comes online.
        r1.starting = false;
        ix.update(&r1);
        ix.sync_order(&[InstanceId(0), InstanceId(1)]);
        assert_eq!(ix.serving_len(), 2);
        assert_eq!(ix.serving_at(1), Some(InstanceId(1)));
        // Termination removes it from dispatch but keeps it as a source.
        r0.terminating = true;
        r0.freeness = f64::NEG_INFINITY;
        r0.freeness_physical = f64::NEG_INFINITY;
        ix.update(&r0);
        ix.sync_order(&[InstanceId(0), InstanceId(1)]);
        assert_eq!(ix.serving_len(), 1);
        assert_eq!(ix.freest(false), Some(InstanceId(1)));
    }

    #[test]
    fn pairing_matches_scan_semantics() {
        let mut ix = DispatchIndex::new(IndexPolicy::all());
        ix.update(&report(0, 25.0, 0.0)); // source
        ix.update(&report(1, 100.0, 0.0)); // dest
        ix.update(&report(2, -3.0, 0.0)); // source (worse)
        ix.update(&report(3, 70.0, 0.0)); // dest (weaker)
        ix.update(&report(4, 30.0, 0.0)); // neither
        let pairs = ix.pair(MigrationThresholds::default());
        assert_eq!(
            pairs,
            vec![
                (InstanceId(2), InstanceId(1)),
                (InstanceId(0), InstanceId(3)),
            ]
        );
        // Thresholds are strict: exactly-at-threshold instances stay out.
        let mut ix = DispatchIndex::new(IndexPolicy::all());
        ix.update(&report(0, 30.0, 0.0));
        ix.update(&report(1, 60.0, 0.0));
        assert!(ix.pair(MigrationThresholds::default()).is_empty());
    }

    #[test]
    fn terminating_sources_lead_by_id() {
        let mut ix = DispatchIndex::new(IndexPolicy::all());
        for id in [4u32, 2] {
            let mut r = report(id, f64::NEG_INFINITY, 0.0);
            r.terminating = true;
            ix.update(&r);
        }
        ix.update(&report(0, 1.0, 0.0)); // finite source
        ix.update(&report(1, 100.0, 0.0));
        ix.update(&report(3, 90.0, 0.0));
        ix.update(&report(5, 80.0, 0.0));
        let pairs = ix.pair(MigrationThresholds::default());
        assert_eq!(
            pairs,
            vec![
                (InstanceId(2), InstanceId(1)),
                (InstanceId(4), InstanceId(3)),
                (InstanceId(0), InstanceId(5)),
            ]
        );
    }

    #[test]
    fn pair_destinations_break_freeness_ties_by_id() {
        let mut ix = DispatchIndex::new(IndexPolicy::all());
        ix.update(&report(0, 5.0, 0.0)); // source
        ix.update(&report(1, 2.0, 0.0)); // source (worse)
        ix.update(&report(4, 90.0, 0.0)); // dest, tied freeness
        ix.update(&report(2, 90.0, 0.0)); // dest, tied — smaller id first
        let pairs = ix.pair(MigrationThresholds::default());
        assert_eq!(
            pairs,
            vec![
                (InstanceId(1), InstanceId(2)),
                (InstanceId(0), InstanceId(4)),
            ]
        );
    }

    #[test]
    fn pair_reads_every_tie_run_in_ascending_id_order() {
        let mut ix = DispatchIndex::new(IndexPolicy::all());
        for id in 10..16 {
            ix.update(&report(id, f64::from(id) - 10.0, 0.0)); // sources
        }
        for (id, freeness) in [
            (4, 90.0),
            (2, 90.0),
            (7, 90.0),
            (3, 80.0),
            (9, 70.0),
            (1, 70.0),
        ] {
            ix.update(&report(id, freeness, 0.0));
        }
        ix.update(&report(0, 60.0, 0.0)); // at the threshold: not a destination
        let dests: Vec<u32> = ix
            .pair(MigrationThresholds::default())
            .into_iter()
            .map(|(_, d)| d.0)
            .collect();
        assert_eq!(dests, vec![2, 4, 7, 3, 1, 9]);
        // Fewer sources than destinations stops the walk inside a run.
        let mut ix2 = DispatchIndex::new(IndexPolicy::all());
        ix2.update(&report(10, 0.0, 0.0));
        ix2.update(&report(11, 1.0, 0.0));
        for id in [8, 6, 5] {
            ix2.update(&report(id, 90.0, 0.0));
        }
        assert_eq!(
            ix2.pair(MigrationThresholds::default()),
            vec![
                (InstanceId(10), InstanceId(5)),
                (InstanceId(11), InstanceId(6)),
            ]
        );
    }

    #[test]
    fn starting_and_terminating_instance_is_a_source() {
        // Fast scale-up-then-down churn: an instance terminated while still
        // inside its startup delay must act as a migration source, on both
        // the indexed and the rescan path.
        let mut ix = DispatchIndex::new(IndexPolicy::all());
        let mut r3 = report(3, f64::NEG_INFINITY, 0.0);
        r3.terminating = true;
        r3.starting = true;
        ix.update(&r3);
        let r1 = report(1, 100.0, 0.0);
        ix.update(&r1);
        let pairs = ix.pair(MigrationThresholds::default());
        assert_eq!(pairs, vec![(InstanceId(3), InstanceId(1))]);
        assert_eq!(
            pairs,
            crate::policy::pair_migrations(&[r3, r1], MigrationThresholds::default())
        );
        // It is not dispatch-eligible.
        ix.sync_order(&[InstanceId(1), InstanceId(3)]);
        assert_eq!(ix.serving_len(), 1);
    }

    #[test]
    fn drain_victim_prefers_fewest_running_then_id() {
        let mut ix = DispatchIndex::new(IndexPolicy::all());
        let mut r0 = report(0, 10.0, 0.0);
        r0.num_running = 3;
        let mut r1 = report(1, 10.0, 0.0);
        r1.num_running = 1;
        let mut r2 = report(2, 10.0, 0.0);
        r2.num_running = 1;
        ix.update(&r0);
        ix.update(&r2);
        ix.update(&r1);
        assert_eq!(ix.drain_victim(), Some(InstanceId(1)));
    }
}
