// Fixture: a derived Clone and test-only code pass `clone-exhaustive`. Not
// compiled — lint_rules.rs runs the token pass over it; a `fires:` comment
// names each rule expected on its line.

#[derive(Clone)]
struct Derived {
    a: u64,
    b: Vec<u64>,
}

#[cfg(test)]
mod tests {
    struct Probe {
        hits: u64,
        misses: u64,
    }

    impl Clone for Probe {
        fn clone(&self) -> Self {
            // Test-only code is out of audit scope even when sloppy:
            // `misses` is never mentioned here.
            Probe {
                hits: self.hits,
                ..zeroed()
            }
        }
    }

    fn zeroed() -> Probe {
        Probe { hits: 0, misses: 0 }
    }
}

// Stricter than the rule this replaced, which passed a hand-written clone
// that mentions every field, and one of a fieldless struct: any
// hand-written clone now fires.

struct Snapshot {
    now: u64,
    queue: Vec<u64>,
    pool: Option<u32>,
}

impl Clone for Snapshot { // fires: clone-exhaustive
    fn clone(&self) -> Self {
        Snapshot {
            now: self.now,
            queue: self.queue.clone(),
            pool: None,
        }
    }
}

struct Marker;

impl Clone for Marker { // fires: clone-exhaustive
    fn clone(&self) -> Self {
        Marker
    }
}
