//! Fixture: a justified unsigned-subtraction exemption (must NOT flag).

fn width(lo: u64, hi: u64) -> u64 {
    // tg-lint: allow(panic-surface) -- fixture: caller contract guarantees `hi >= lo`
    hi - lo
}

/// Slice patterns destructure; they never index (no allow needed).
fn first_of_many(xs: &[u64]) -> Option<u64> {
    let [first, _, ..] = xs else {
        return None;
    };
    if let [_, second, ..] = xs {
        return Some(*first + *second);
    }
    match xs {
        [only] => Some(*only),
        _ => None,
    }
}
