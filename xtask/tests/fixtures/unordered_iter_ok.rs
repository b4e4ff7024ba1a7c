// Fixture: what a deterministic crate may hold — BTree containers, and a
// hash container whose declaration and iterating sites each carry an
// `#[expect]` with a reason. lint_rules.rs compiles it under the
// repository's workspace lints and crates/clippy.toml; a `fires:` comment
// names each lint expected on its line.
use std::collections::BTreeMap;

#[expect(clippy::disallowed_types, reason = "fixture: the justified container")]
pub type Loads = std::collections::HashMap<u64, u64>;

pub struct Fleet {
    pub members: BTreeMap<u64, String>,
    pub loads: Loads,
}

pub fn names(f: &Fleet) -> Vec<&String> {
    f.members.values().collect()
}

pub fn load_of(f: &Fleet, id: u64) -> u64 {
    f.loads.get(&id).copied().unwrap_or(0)
}

#[expect(clippy::disallowed_methods, reason = "sorted before returning")]
pub fn sorted_ids(f: &Fleet) -> Vec<u64> {
    let mut ids: Vec<u64> = f.loads.keys().copied().collect();
    ids.sort_unstable();
    ids
}

#[expect(clippy::disallowed_methods, reason = "a sum does not depend on visit order")]
pub fn total_expected(f: &Fleet) -> u64 {
    f.loads.values().copied().sum()
}

// Stricter than the type-approximating rule this replaced, which let
// order-insensitive sinks and collect-then-sort through bare: each now
// needs the `#[expect]` above.

pub fn total(f: &Fleet) -> u64 {
    f.loads.values().copied().sum() // fires: clippy::disallowed_methods
}

pub fn busiest(f: &Fleet) -> Option<u64> {
    f.loads.values().copied().max() // fires: clippy::disallowed_methods
}

pub fn any_idle(f: &Fleet) -> bool {
    f.loads.values().any(|&l| l == 0) // fires: clippy::disallowed_methods
}

pub fn sorted_without_annotation(f: &Fleet) -> Vec<u64> {
    let mut ids: Vec<u64> = f.loads.keys().copied().collect(); // fires: clippy::disallowed_methods
    ids.sort_unstable();
    ids
}
