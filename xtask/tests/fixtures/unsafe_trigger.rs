// Fixture: `unsafe` must fail to compile in any crate, and nothing may
// allow it. lint_rules.rs compiles it under the repository's workspace
// lints; a `fires:` comment names each lint, error or rule expected on its
// line.

pub fn first(v: &[u8]) -> u8 {
    /* fires: bare-allow */ // lint: allow(unsafe-code) — this annotation must be rejected
    unsafe { *v.get_unchecked(0) } // fires: unsafe_code
}

#[expect(unsafe_code, reason = "a forbidden lint cannot be expected")] // fires: E0453
pub fn second(v: &[u8]) -> u8 {
    unsafe { *v.get_unchecked(1) } // fires: unsafe_code
}
