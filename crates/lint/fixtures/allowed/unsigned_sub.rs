//! Fixture: a justified unsigned-subtraction exemption (must NOT flag).

fn width(lo: u64, hi: u64) -> u64 {
    // tg-lint: allow(unsigned-sub) -- fixture: caller contract guarantees `hi >= lo`
    hi - lo
}

/// Signed and float subtraction never flag (no allow needed).
fn deltas(a: i64, b: i64, x: f64, y: f64) -> (i64, f64) {
    (a - b, x - y)
}
