// Fixture: wall-clock time sources must fail the audit in a deterministic
// crate. lint_rules.rs compiles it under the repository's workspace lints
// and crates/clippy.toml; a `fires:` comment names each lint expected on
// its line.
use std::time::{Instant, SystemTime}; // fires: clippy::disallowed_types

pub fn elapsed_ms(start: Instant) -> u128 { // fires: clippy::disallowed_types
    start.elapsed().as_millis()
}

pub fn stamp() -> SystemTime { // fires: clippy::disallowed_types
    SystemTime::now() // fires: clippy::disallowed_types
}
