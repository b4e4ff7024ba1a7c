// Fixture: an escape hatch without a reason fails the audit and leaves the
// original violation standing, and one that silences nothing fails too —
// for the token pass's `// lint: allow` comments and the compiler's
// `#[expect]` attributes alike. lint_rules.rs runs both; a `fires:`
// comment names each lint or rule expected on its line.
use std::collections::BTreeMap;

#[expect(clippy::disallowed_types, reason = "fixture: the justified container")]
pub type Ids = std::collections::HashMap<u64, u64>;

pub struct S {
    pub m: Ids,
}

pub fn ids(s: &S) -> Vec<u64> {
    /* fires: bare-allow */ // lint: allow(unordered-iter)
    s.m.keys().copied().collect() // fires: clippy::disallowed_methods
}

#[expect(clippy::disallowed_methods)] // fires: clippy::allow_attributes_without_reason
pub fn keys_without_reason(s: &S) -> Vec<u64> {
    s.m.keys().copied().collect()
}

#[allow(clippy::disallowed_methods, reason = "an allow cannot go stale")] // fires: clippy::allow_attributes
pub fn keys_allowed(s: &S) -> Vec<u64> {
    s.m.keys().copied().collect()
}

#[expect(clippy::disallowed_methods, reason = "nothing below iterates")] // fires: unfulfilled_lint_expectations
pub fn size(s: &S) -> usize {
    s.m.len()
}

pub fn ordered(m: &BTreeMap<u64, u64>) -> Vec<u64> {
    /* fires: unused-allow */ // lint: allow(float-ord) — nothing below compares floats
    m.values().copied().collect()
}
