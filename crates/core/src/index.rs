//! Incremental freeness index over the fleet's load reports.
//!
//! The global scheduler's hot decisions — dispatch target, migration
//! source/destination pairing, termination-victim selection — were all
//! argmin/argmax scans over a freshly built `Vec<LoadReport>`, O(N) per
//! arrival. This module keeps those orderings *incrementally*: a persistent
//! per-instance [`LoadReport`] buffer plus one tournament tree per ordering,
//! keyed by an order-preserving integer encoding of the relevant load
//! signal, updated only for instances whose engine saw an event since the
//! last decision (the dirty set maintained by
//! [`crate::store::InstanceStore`]).
//!
//! # Determinism contract
//!
//! Every selection is **bit-for-bit identical** to the scan it replaces:
//!
//! * the tree key is [`order_key`], a *lossless* monotone `f64 → u64` map,
//!   so key order equals `partial_cmp` order on the raw freeness — no real
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

/// Which orderings the index maintains. Each tracked ordering costs a leaf
/// rewrite and a walk toward its tree's root per load change, so each run
/// enables only what its scheduler can consult.
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

/// The leaf of an instance that is not serving. It loses every match.
const EMPTY: u128 = u128::MAX;

/// A tournament-tree entry: `(key, id)` packed so that `u128` order is key
/// order, then id order. The top 32 bits stay clear, so every entry orders
/// below [`EMPTY`].
fn pack(key: u64, id: u32) -> u128 {
    (u128::from(key) << 32) | u128::from(id)
}

/// The instance an entry names: its low 32 bits.
fn unpack(entry: u128) -> InstanceId {
    InstanceId(entry as u32)
}

/// An array-backed tournament tree over instance ids. Leaf `i` holds
/// instance `i`'s packed entry, and every inner node holds the smaller of
/// its two children, so the root is the fleet's minimum: the smallest key,
/// then the smallest id. A maximum ordering stores `!key`.
#[derive(Debug, Clone, Default)]
struct Tournament {
    /// `nodes[1]` is the root and node `n`'s children are `2n` and `2n + 1`;
    /// the second half holds the leaves and `nodes[0]` is unused. Empty
    /// until the first entry arrives.
    nodes: Vec<u128>,
}

impl Tournament {
    /// Leaf capacity: a power of two, or 0 before the first entry.
    fn leaves(&self) -> usize {
        self.nodes.len() / 2
    }

    /// The winner, or `None` when every leaf is empty.
    fn winner(&self) -> Option<InstanceId> {
        let root = *self.nodes.get(1)?;
        (root != EMPTY).then(|| unpack(root))
    }

    /// Rewrites leaf `id` and replays the matches on its path to the root,
    /// stopping at the first node whose winner does not change.
    fn set(&mut self, id: u32, entry: u128) {
        let leaf = id as usize;
        if leaf >= self.leaves() {
            if entry == EMPTY {
                return;
            }
            self.grow(leaf + 1);
        }
        let mut pos = self.leaves() + leaf;
        let mut winner = entry;
        loop {
            let node = self
                .nodes
                .get_mut(pos)
                .expect("the tree covers the leaf's path");
            if *node == winner {
                return;
            }
            *node = winner;
            if pos == 1 {
                return;
            }
            let sibling = self
                .nodes
                .get(pos ^ 1)
                .expect("a non-root node has a sibling");
            winner = winner.min(*sibling);
            pos /= 2;
        }
    }

    /// Doubles the leaf capacity until it holds `min_leaves`, then re-enters
    /// every leaf.
    fn grow(&mut self, min_leaves: usize) {
        let old = std::mem::replace(
            &mut self.nodes,
            vec![EMPTY; 2 * min_leaves.next_power_of_two()],
        );
        let old_leaves = old.get(old.len() / 2..).unwrap_or_default();
        for (id, &entry) in (0u32..).zip(old_leaves) {
            self.set(id, entry);
        }
    }
}

/// Keeps the `n` smallest entries of `entries`, in ascending order.
fn keep_smallest(entries: &mut Vec<u128>, n: usize) {
    if n < entries.len() {
        if let Some(last) = n.checked_sub(1) {
            entries.select_nth_unstable(last);
        }
        entries.truncate(n);
    }
    entries.sort_unstable();
}

/// The incremental dispatch/pairing/termination index.
///
/// `Clone` supports the sim-level snapshot/fork capability (every ordering
/// is a plain `Vec`, so a clone is an independent, identical index).
#[derive(Clone)]
pub struct DispatchIndex {
    policy: IndexPolicy,
    /// `InstanceId.0 → last applied report` — the persistent report buffer.
    entries: Vec<Option<Entry>>,
    /// Serving instances by freeness: the root is the freest.
    by_freeness: Tournament,
    /// Serving instances by headroom-free freeness: the root is the freest.
    by_physical: Tournament,
    /// Serving instances by memory load: the root is the least loaded.
    by_memory: Tournament,
    /// Serving instances by running requests: the root runs the fewest.
    by_running: Tournament,
    /// Serving instances in fleet insertion order (round-robin dispatch).
    serving_order: Vec<InstanceId>,
    /// `serving_order` needs rebuilding from the store's order walk.
    order_dirty: bool,
}

impl DispatchIndex {
    /// An empty index maintaining the orderings `policy` enables.
    pub fn new(policy: IndexPolicy) -> Self {
        DispatchIndex {
            policy,
            entries: Vec::new(),
            by_freeness: Tournament::default(),
            by_physical: Tournament::default(),
            by_memory: Tournament::default(),
            by_running: Tournament::default(),
            serving_order: Vec::new(),
            order_dirty: false,
        }
    }

    /// The instance's last applied report, if it is indexed.
    pub fn report(&self, id: InstanceId) -> Option<&LoadReport> {
        self.entries.get(id.0 as usize)?.as_ref().map(|e| &e.report)
    }

    /// Applies a fresh report: rewrites the instance's leaf in every tracked
    /// ordering, which replays only the matches whose winner changes.
    pub fn update(&mut self, report: &LoadReport) {
        let idx = report.id.0 as usize;
        if self.entries.len() <= idx {
            self.entries.resize(idx + 1, None);
        }
        let new_state = membership(report);
        let old = self.entries[idx];
        if old.is_some_and(|old| old.report == *report) {
            return;
        }
        self.set_leaves(report, new_state == Membership::Serving);
        self.entries[idx] = Some(Entry {
            report: *report,
            state: new_state,
        });
        let was_serving = old.is_some_and(|e| e.state == Membership::Serving);
        if was_serving != (new_state == Membership::Serving) {
            self.order_dirty = true;
        }
    }

    /// Drops an instance from every ordering (failure or completed
    /// termination).
    pub fn remove(&mut self, id: InstanceId) {
        let idx = id.0 as usize;
        let Some(Some(old)) = self.entries.get(idx).copied() else {
            return;
        };
        self.entries[idx] = None;
        if old.state == Membership::Serving {
            self.set_leaves(&old.report, false);
            self.order_dirty = true;
        }
    }

    /// Rewrites the instance's leaf in every tracked ordering: its keys
    /// while it serves, empty otherwise.
    fn set_leaves(&mut self, r: &LoadReport, serving: bool) {
        let id = r.id.0;
        let leaf = |key: u64| if serving { pack(key, id) } else { EMPTY };
        let track = self.policy;
        if track.track_freeness {
            self.by_freeness.set(id, leaf(!order_key(r.freeness)));
        }
        if track.track_physical {
            self.by_physical
                .set(id, leaf(!order_key(r.freeness_physical)));
        }
        if track.track_memory {
            self.by_memory.set(id, leaf(order_key(r.memory_load)));
        }
        if track.track_running {
            self.by_running.set(id, leaf(r.num_running as u64));
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
        if physical {
            debug_assert!(self.policy.track_physical);
            self.by_physical.winner()
        } else {
            debug_assert!(self.policy.track_freeness);
            self.by_freeness.winner()
        }
    }

    /// The serving instance with the lowest memory load, smallest id among
    /// ties — the INFaaS++ dispatch rule.
    pub fn least_memory_load(&self) -> Option<InstanceId> {
        debug_assert!(self.policy.track_memory);
        self.by_memory.winner()
    }

    /// The serving instance with the fewest running requests, smallest id
    /// among ties — the termination-victim rule.
    pub fn drain_victim(&self) -> Option<InstanceId> {
        debug_assert!(self.policy.track_running);
        self.by_running.winner()
    }

    /// Migration pairing (§4.4.3) from one scan of the indexed instances:
    /// sources are terminating instances (ascending id; they all report `-∞`
    /// freeness, and terminating instances still inside their startup delay
    /// count too) followed by serving instances strictly below the source
    /// threshold in ascending `(freeness, id)` order; destinations are
    /// serving instances strictly above the destination threshold in
    /// descending freeness, ascending id among ties. Lowest is matched with
    /// highest, repeatedly — identical to [`crate::policy::pair_migrations`]
    /// over fresh reports. Only the pairs' members are sorted: each side
    /// keeps its first `min(sources, destinations)` by a selection.
    pub fn pair(&self, thresholds: MigrationThresholds) -> Vec<(InstanceId, InstanceId)> {
        debug_assert!(self.policy.track_freeness);
        let source_below = order_key(thresholds.source_below);
        let destination_above = order_key(thresholds.destination_above);
        let mut sources = Vec::with_capacity(self.entries.len());
        let mut destinations = Vec::with_capacity(self.entries.len());
        for e in self.entries.iter().flatten() {
            let id = e.report.id.0;
            match e.state {
                // Key 0 is below the key of every float, so terminating
                // instances lead, in id order.
                Membership::Terminating => sources.push(pack(0, id)),
                Membership::Serving => {
                    let key = order_key(e.report.freeness);
                    if key < source_below {
                        sources.push(pack(key, id));
                    }
                    if key > destination_above {
                        destinations.push(pack(!key, id));
                    }
                }
                Membership::Starting => {}
            }
        }
        let n = sources.len().min(destinations.len());
        keep_smallest(&mut sources, n);
        keep_smallest(&mut destinations, n);
        sources
            .into_iter()
            .zip(destinations)
            .map(|(s, d)| (unpack(s), unpack(d)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::policy::{pair_migrations, Dispatcher};

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
        ix.update(&r0);
        let mut r1 = report(1, 5.0, 0.0);
        r1.starting = true;
        ix.update(&r1);
        ix.sync_order(&[InstanceId(0), InstanceId(1)]);
        // A starting instance is indexed but takes no dispatch.
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

    fn full(id: u32, freeness: f64, physical: f64, load: f64, running: usize) -> LoadReport {
        LoadReport {
            freeness_physical: physical,
            num_running: running,
            ..report(id, freeness, load)
        }
    }

    /// Applies `r` to the index and to the rescan's reports, then checks
    /// every selection the index makes against the rescan.
    fn apply(ix: &mut DispatchIndex, reports: &mut BTreeMap<u32, LoadReport>, r: LoadReport) {
        ix.update(&r);
        reports.insert(r.id.0, r);
        assert_matches_rescan(ix, reports);
    }

    fn assert_matches_rescan(ix: &DispatchIndex, reports: &BTreeMap<u32, LoadReport>) {
        let reports: Vec<LoadReport> = reports.values().copied().collect();
        let dispatch = |kind, high| Dispatcher::new().dispatch_for(kind, &reports, high);
        assert_eq!(ix.freest(false), dispatch(SchedulerKind::Llumnix, false));
        assert_eq!(ix.freest(true), dispatch(SchedulerKind::Llumnix, true));
        assert_eq!(
            ix.least_memory_load(),
            dispatch(SchedulerKind::InfaasPlusPlus, false)
        );
        let fewest_running = reports
            .iter()
            .filter(|r| !r.terminating && !r.starting)
            .min_by_key(|r| (r.num_running, r.id))
            .map(|r| r.id);
        assert_eq!(ix.drain_victim(), fewest_running);
        let thresholds = MigrationThresholds::default();
        assert_eq!(ix.pair(thresholds), pair_migrations(&reports, thresholds));
    }

    #[test]
    fn trees_match_the_rescan_as_they_double() {
        let mut ix = DispatchIndex::new(IndexPolicy::all());
        let mut reports = BTreeMap::new();
        // Ids 0, 5, 8, 100 and 1 000 each outgrow the tree: 1, 8, 16, 128
        // and 1 024 leaves. Instance 5 ties 0 on every key and 100 ties 9.
        apply(&mut ix, &mut reports, full(0, 80.0, 90.0, 0.3, 2));
        apply(&mut ix, &mut reports, full(5, 80.0, 90.0, 0.3, 2));
        apply(&mut ix, &mut reports, full(8, 10.0, 12.0, 0.9, 4));
        apply(&mut ix, &mut reports, full(9, 100.0, 100.0, 0.1, 1));
        apply(&mut ix, &mut reports, full(100, 100.0, 100.0, 0.1, 1));
        apply(&mut ix, &mut reports, full(1000, -5.0, -5.0, 0.95, 6));
        assert_eq!(ix.by_freeness.leaves(), 1024);
        assert_eq!(ix.freest(false), Some(InstanceId(9)));
        assert_eq!(
            ix.pair(MigrationThresholds::default()),
            vec![
                (InstanceId(1000), InstanceId(9)),
                (InstanceId(8), InstanceId(100)),
            ]
        );
        // The winner of every tree leaves; its tie partner takes over.
        ix.remove(InstanceId(9));
        reports.remove(&9);
        assert_matches_rescan(&ix, &reports);
        assert_eq!(ix.freest(false), Some(InstanceId(100)));
        // A terminating instance leads the sources; a starting one is in no
        // ordering.
        let mut terminating = full(5, f64::NEG_INFINITY, f64::NEG_INFINITY, 0.3, 2);
        terminating.terminating = true;
        apply(&mut ix, &mut reports, terminating);
        let mut starting = full(8, 100.0, 100.0, 0.9, 0);
        starting.starting = true;
        apply(&mut ix, &mut reports, starting);
        assert_eq!(ix.drain_victim(), Some(InstanceId(100)));
        apply(&mut ix, &mut reports, full(2, 70.0, 75.0, 0.3, 1));
        // Online again, it ties 100 and wins on its smaller id.
        starting.starting = false;
        apply(&mut ix, &mut reports, starting);
        assert_eq!(ix.freest(false), Some(InstanceId(8)));
        apply(&mut ix, &mut reports, full(100, 20.0, 20.0, 0.5, 3));
        ix.remove(InstanceId(1000));
        reports.remove(&1000);
        assert_matches_rescan(&ix, &reports);
        assert_eq!(
            ix.pair(MigrationThresholds::default()),
            vec![
                (InstanceId(5), InstanceId(8)),
                (InstanceId(100), InstanceId(0)),
            ]
        );
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
