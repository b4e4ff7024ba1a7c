// Fixture: a hash container inside a `#[derive(Serialize)]` type must fail
// to compile in any crate: the vendored serde implements `Serialize` for no
// map or set type. lint_rules.rs compiles it under crates/bench's
// configuration, which bans no hash container; a `fires:` comment names
// each error expected on its line.
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone, Serialize, Deserialize)] // fires: E0277
pub struct FigureRecord {
    pub latencies_by_instance: HashMap<u64, f64>,
}

#[derive(Serialize)] // fires: E0277
pub enum Sample {
    Ids(HashSet<u64>),
}
