//! Fixture: broken allow directives (four malformed-allow flags, and the
//! unjustified allow must NOT suppress the violation under it).

// tg-lint: allow(unsigned-sub)
fn unjustified(a: u64, b: u64) -> u64 {
    a - b
}

// tg-lint: allow(no-such-rule) -- the rule name does not exist
fn unknown_rule() {}

// tg-lint: allow(lossy-cast) -- a rule that moved to clippy is unknown too
fn moved_rule() {}

// tg-lint: allow(hot-alloc) -- stale: nothing on the next line matches
fn stale() {}
