//! A table of rows addressed by dense, monotonic ids that holds only the
//! ids still in use.

use std::collections::VecDeque;

/// A table addressed by dense, monotonic `u32` ids that keeps a sliding
/// window of them: [`IdRing::push`] mints the next id at the back,
/// [`IdRing::pop_front`] retires the oldest row at the front, and a row is
/// found at `id − base`. An id therefore never changes meaning and is never
/// reused — a retired id simply stops resolving — while memory follows the
/// rows in use, not the ids ever minted.
#[derive(Debug)]
pub struct IdRing<T> {
    rows: VecDeque<T>,
    /// The id of `rows[0]`: every id below it has retired.
    base: u32,
}

impl<T> Default for IdRing<T> {
    fn default() -> Self {
        IdRing::new()
    }
}

impl<T> IdRing<T> {
    /// An empty ring whose first id is 0.
    pub fn new() -> Self {
        IdRing {
            rows: VecDeque::new(),
            base: 0,
        }
    }

    /// An empty ring whose first id is `base`, to reach the end of the id
    /// space in a test.
    #[cfg(test)]
    pub(crate) fn starting_at(base: u32) -> Self {
        IdRing {
            rows: VecDeque::new(),
            base,
        }
    }

    // tg-lint: hot(retire)
    /// The first id that has not retired (equals [`IdRing::end`] when no
    /// row is held).
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The id the next [`IdRing::push`] mints — the number of ids minted
    /// so far by a ring that started at 0.
    pub fn end(&self) -> u32 {
        // `push` keeps this sum below `u32::MAX`; it saturates only so
        // that an impossible length runs into the same check.
        let held = u32::try_from(self.rows.len()).unwrap_or(u32::MAX);
        self.base.saturating_add(held)
    }

    /// Appends `row` and returns the id minted for it.
    ///
    /// # Panics
    ///
    /// Panics with "ids exhausted" rather than wrap: ids stay below
    /// `u32::MAX`, so `id + 1` is always representable and a live row is
    /// never aliased.
    pub fn push(&mut self, row: T) -> u32 {
        let id = self.end();
        assert!(id < u32::MAX, "ids exhausted");
        self.rows.push_back(row);
        id
    }

    /// Where `id`'s row sits in `rows`: a retired id wraps to an offset no
    /// ring can hold, an unminted one lies past the back.
    fn offset(&self, id: u32) -> usize {
        id.wrapping_sub(self.base) as usize
    }

    /// The row of a held id.
    ///
    /// # Panics
    ///
    /// Panics when `id` has retired or was never minted.
    #[expect(
        clippy::expect_used,
        reason = "ids are minted by `push` and handed out by the owning table only; a foreign or retired id here is a bookkeeping bug where the documented panic is the designed failure mode"
    )]
    pub fn row(&self, id: u32) -> &T {
        self.rows.get(self.offset(id)).expect("id is not held")
    }

    /// Mutable access to the row of a held id.
    ///
    /// # Panics
    ///
    /// Panics when `id` has retired or was never minted.
    #[expect(
        clippy::expect_used,
        reason = "ids are minted by `push` and handed out by the owning table only; a foreign or retired id here is a bookkeeping bug where the documented panic is the designed failure mode"
    )]
    pub fn row_mut(&mut self, id: u32) -> &mut T {
        let at = self.offset(id);
        self.rows.get_mut(at).expect("id is not held")
    }

    /// The oldest held row (the row of [`IdRing::base`]).
    pub fn front(&self) -> Option<&T> {
        self.rows.front()
    }

    /// Retires the oldest held row; a no-op on an empty ring.
    pub fn pop_front(&mut self) {
        if self.rows.pop_front().is_some() {
            self.base += 1;
        }
    }

    /// Retires every row below `bound` — how a table kept in lockstep with
    /// another ring follows that ring's [`IdRing::base`].
    pub fn retire_to(&mut self, bound: u32) {
        while self.base < bound && self.rows.pop_front().is_some() {
            self.base += 1;
        }
    }
    // tg-lint: endhot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_stay_dense_and_fixed_across_retirement() {
        let mut ring = IdRing::new();
        assert_eq!((ring.push('a'), ring.push('b'), ring.push('c')), (0, 1, 2));
        ring.pop_front();
        assert_eq!((ring.base(), ring.end()), (1, 3));
        assert_eq!((ring.row(1), ring.row(2)), (&'b', &'c'));
        assert_eq!(ring.push('d'), 3, "ids are never reused");
        *ring.row_mut(3) = 'e';
        ring.retire_to(3);
        assert_eq!((ring.base(), ring.front()), (3, Some(&'e')));
        ring.retire_to(9);
        assert_eq!(ring.front(), None);
        assert_eq!((ring.base(), ring.end()), (4, 4), "only held rows retire");
    }

    #[test]
    #[should_panic(expected = "id is not held")]
    fn a_retired_id_stops_resolving() {
        let mut ring = IdRing::new();
        ring.push('a');
        ring.push('b');
        ring.pop_front();
        ring.row(0);
    }

    #[test]
    #[should_panic(expected = "ids exhausted")]
    fn minting_panics_instead_of_wrapping() {
        let mut ring = IdRing::starting_at(u32::MAX - 2);
        assert_eq!(ring.push(()), u32::MAX - 2);
        ring.pop_front(); // retiring does not give ids back
        assert_eq!(ring.push(()), u32::MAX - 1);
        assert_eq!(ring.end(), u32::MAX);
        ring.push(());
    }
}
