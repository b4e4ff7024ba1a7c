// Fixture: unjustified panic sites must fail the audit in deterministic
// code — a bare unwrap (clippy), a vacuous expect message and computed
// indexes into a Vec (the token pass). lint_rules.rs runs both; a `fires:`
// comment names each lint or rule expected on its line.

pub struct Calendar {
    pub buckets: Vec<u64>,
}

pub fn head(c: &Calendar) -> u64 {
    *c.buckets.first().unwrap() // fires: clippy::unwrap_used
}

pub fn tail(c: &Calendar) -> u64 {
    *c.buckets.last().expect("ok") // fires: panic-path
}

pub fn neighbor(c: &Calendar, i: usize) -> u64 {
    c.buckets[i + 1] // fires: panic-path
}

pub fn scaled(c: &Calendar, i: usize) -> u64 {
    let stride: usize = 4;
    c.buckets[i * stride] // fires: panic-path
}
