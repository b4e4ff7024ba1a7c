// Fixture: every construct here must fail the audit in a deterministic
// crate. lint_rules.rs compiles it under the repository's workspace lints
// and crates/clippy.toml; a `fires:` comment names each lint expected on
// its line.
use std::collections::{HashMap, HashSet}; // fires: clippy::disallowed_types

pub type Counts = HashMap<u64, u32>; // fires: clippy::disallowed_types

pub struct Fleet {
    pub members: HashMap<u64, String>, // fires: clippy::disallowed_types
    pub tags: HashSet<u64>, // fires: clippy::disallowed_types
    pub counts: Counts,
}

pub fn report(f: &Fleet) -> Vec<u64> {
    let mut out = Vec::new();
    for id in &f.tags { // fires: clippy::iter_over_hash_type
        out.push(*id);
    }
    for (id, _) in f.members.iter() { // fires: clippy::iter_over_hash_type, clippy::disallowed_methods
        out.push(*id);
    }
    let ids: Vec<u64> = f.counts.keys().copied().collect(); // fires: clippy::disallowed_methods
    out.extend(ids);
    out
}

pub fn prune(f: &mut Fleet) {
    f.members.retain(|id, _| *id != 0); // fires: clippy::disallowed_methods
}
