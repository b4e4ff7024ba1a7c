// Fixture: ordering through the `order_key` encoding, a trait *definition*
// of partial_cmp, test code and a justified annotation pass `float-ord`.
// Not compiled — lint_rules.rs runs the token pass over it; a `fires:`
// comment names each rule expected on its line.

fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

fn argmax(xs: &[f64]) -> Option<usize> {
    (0..xs.len()).max_by_key(|&i| order_key(xs[i]))
}

struct Score(f64);

impl PartialOrd for Score {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(order_key(self.0).cmp(&order_key(other.0)))
    }
}

fn sort_for_display(xs: &mut [f64]) {
    // lint: allow(float-ord) — display-only ordering, inputs are finite
    xs.sort_by(|a, b| a.partial_cmp(b).expect("display values are finite"));
}

#[cfg(test)]
mod tests {
    fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs
    }
}

struct Lamport {
    tick: u64,
}

impl Lamport {
    fn cmp_to(&self, other: &Lamport) -> Option<std::cmp::Ordering> {
        // Stricter than the type-approximating rule this replaced, which
        // knew `tick` is a u64: without types every call fires. Write
        // `Some(self.tick.cmp(&other.tick))` instead.
        self.tick.partial_cmp(&other.tick) // fires: float-ord
    }
}
