// Fixture: a hand-written `impl Clone` in a deterministic crate must trip
// `clone-exhaustive`, whether or not it skips a field. Not compiled —
// lint_rules.rs runs the token pass over it; a `fires:` comment names each
// rule expected on its line.

#[derive(Default)]
struct Snapshot {
    now: u64,
    queue: Vec<u64>,
    rng_state: u128,
}

impl Clone for Snapshot { // fires: clone-exhaustive
    fn clone(&self) -> Self {
        // `rng_state` is never mentioned: the rest-filler defaults it, so a
        // fork through this clone silently diverges from its donor.
        Snapshot {
            now: self.now,
            queue: self.queue.clone(),
            ..Default::default()
        }
    }
}

struct Reset {
    epoch: u64,
    seen: Vec<u64>,
}

impl Clone for Reset { // fires: clone-exhaustive
    fn clone(&self) -> Self {
        // Neither field is mentioned.
        Reset::fresh()
    }
}

impl Reset {
    fn fresh() -> Self {
        Reset {
            epoch: 0,
            seen: Vec::new(),
        }
    }
}

struct Pair<T> {
    a: T,
    b: T,
}

impl<T: Clone> Clone for Pair<T> { // fires: clone-exhaustive
    fn clone(&self) -> Self {
        Pair {
            a: self.a.clone(),
            b: self.b.clone(),
        }
    }
}
