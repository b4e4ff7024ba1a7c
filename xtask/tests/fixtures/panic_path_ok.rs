// Fixture: justified panic handling passes the audit — expect with a real
// message, plain indexing, get-based access, the modulo-length idiom, test
// code and an unwrap under `#[expect]`. lint_rules.rs runs clippy and the
// token pass; a `fires:` comment names each lint expected on its line.
use std::collections::BTreeMap;

pub struct Calendar {
    pub buckets: Vec<u64>,
    pub labels: BTreeMap<u64, String>,
}

pub fn head(c: &Calendar) -> u64 {
    // The expect message is the in-language proof obligation.
    *c.buckets.first().expect("calendar is never empty after init")
}

pub fn nth(c: &Calendar, i: usize) -> u64 {
    // Plain indexing: the bound is adjacent to the use.
    c.buckets[i]
}

pub fn neighbor(c: &Calendar, i: usize) -> u64 {
    *c.buckets
        .get(i + 1)
        .expect("caller checked i against len - 1")
}

pub fn wrapped(c: &Calendar, seed: u64) -> u64 {
    // Modulo-of-length is in range by construction.
    c.buckets[seed as usize % c.buckets.len()]
}

pub fn check(c: &Calendar) {
    // The token pass skips debug_assert operands, which run in no release
    // build; clippy's unwrap_used does not (stricter than the old rule).
    debug_assert_eq!(c.buckets.first().unwrap(), &0, "calendar must start at 0"); // fires: clippy::unwrap_used
}

#[expect(clippy::unwrap_used, reason = "fixture demonstrating the escape hatch")]
pub fn blessed(c: &Calendar) -> u64 {
    *c.buckets.first().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe() {
        // Test code unwraps and indexes freely.
        let c = Calendar {
            buckets: vec![0, 1],
            labels: BTreeMap::new(),
        };
        assert_eq!(c.labels.get(&0).map(String::len), None);
        assert_eq!(*c.buckets.first().unwrap() + c.buckets[0 + 1], 1);
    }
}
