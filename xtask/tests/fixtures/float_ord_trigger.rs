// Fixture: raw float ordering in a deterministic crate must trip
// `float-ord`. Not compiled — lint_rules.rs runs the token pass over it; a
// `fires:` comment names each rule expected on its line.

fn argmax(xs: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, x) in xs.iter().enumerate() {
        if x.partial_cmp(&xs[best]).map_or(false, |o| o.is_gt()) { // fires: float-ord
            best = i;
        }
    }
    best
}

fn sort_totally(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.total_cmp(b)); // fires: float-ord
}

struct Load {
    freeness: f64,
}

impl Load {
    fn beats(&self, other: &Load) -> bool {
        self.freeness
            .partial_cmp(&other.freeness) // fires: float-ord
            .map_or(false, |o| o.is_gt())
    }
}
