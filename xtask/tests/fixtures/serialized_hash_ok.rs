// Fixture: ordered data in serialized types, and hash containers in types
// that do not serialize, compile in a crate outside the simulation.
// lint_rules.rs compiles it under crates/bench's configuration; a `fires:`
// comment names each error expected on its line.
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureRecord {
    pub latencies_by_instance: Vec<(u64, f64)>,
}

#[derive(Debug, Default)]
pub struct ScratchState {
    pub cache: HashMap<u64, f64>,
    pub index: BTreeMap<u64, f64>,
}

// Stricter than the token rule this replaced, which passed a BTreeMap in a
// serialized type: the vendored serde serializes no map type at all, so
// this fails to build too.
#[derive(Debug, Clone, Serialize, Deserialize)] // fires: E0277
pub struct ByInstance {
    pub latencies: BTreeMap<u64, f64>,
}
