// Fixture: virtual time, and wall-clock names in comments and strings,
// pass the audit. lint_rules.rs compiles it under the repository's
// workspace lints and crates/clippy.toml.

// Instant::now() in a comment is fine.

pub struct SimTime(pub u64);

pub fn advance(t: SimTime, dt: u64) -> SimTime {
    SimTime(t.0 + dt)
}

pub fn describe() -> &'static str {
    "never calls Instant::now() or SystemTime::now()"
}
