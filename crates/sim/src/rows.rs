//! Shared, immutable, freshness-stamped rows — the storage behind the
//! per-node tables that routers gossip row by row.
//!
//! Row gossip (EER/CR's meeting-interval matrix, MaxProp's likelihood
//! vectors) only ever adopts *whole rows that are fresher*, so every row a
//! node holds but does not own is an exact copy of its owner's row at some
//! stamp. [`StampedRows`] stores each row as an `Arc<[f64]>` handle: adopting
//! a row is a pointer clone, one allocation serves every holder of the same
//! (owner, stamp) version, and a table costs `n` handles instead of `n²`
//! floats.
//!
//! Rows are never written through a shared handle. A write goes to a fresh
//! allocation unless this table holds the only handle to the row
//! (`Arc::get_mut`), so a row another table has adopted never changes under
//! it.

use std::sync::Arc;

/// `n` rows of `n` values, each with a freshness stamp (`-1` = never
/// updated).
#[derive(Clone, Debug)]
pub struct StampedRows {
    rows: Vec<Arc<[f64]>>,
    stamps: Vec<f64>,
}

impl StampedRows {
    /// Creates `n` never-updated rows, all sharing one row of `fill`.
    pub fn new(n: usize, fill: f64) -> Self {
        let unknown: Arc<[f64]> = vec![fill; n].into();
        StampedRows {
            rows: vec![unknown; n],
            stamps: vec![-1.0; n],
        }
    }

    /// Number of rows (and of values per row).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i]
    }

    /// Freshness stamp of row `i` (`-1` = never updated).
    #[inline]
    pub fn stamp(&self, i: usize) -> f64 {
        self.stamps[i]
    }

    /// Replaces row `i` with `values` and stamps it `stamp`.
    ///
    /// # Panics
    /// Panics if `values.len() != n`.
    pub fn set_row(&mut self, i: usize, values: &[f64], stamp: f64) {
        assert_eq!(values.len(), self.len());
        match Arc::get_mut(&mut self.rows[i]) {
            Some(own) => own.copy_from_slice(values),
            None => self.rows[i] = values.into(),
        }
        self.stamps[i] = stamp;
    }

    /// Edits row `i` in place through `edit`, which sees its current
    /// values, and stamps it `stamp`. A row shared with another holder is
    /// copied first.
    pub fn edit_row(&mut self, i: usize, stamp: f64, edit: impl FnOnce(&mut [f64])) {
        if Arc::get_mut(&mut self.rows[i]).is_none() {
            self.rows[i] = self.rows[i].to_vec().into();
        }
        edit(Arc::get_mut(&mut self.rows[i]).expect("row handle made unique above"));
        self.stamps[i] = stamp;
    }

    /// Adopts `other`'s row `i` (handle and stamp) if it is strictly
    /// fresher. Returns whether it did.
    #[inline]
    pub fn adopt_row(&mut self, other: &StampedRows, i: usize) -> bool {
        if other.stamps[i] > self.stamps[i] {
            self.rows[i] = other.rows[i].clone();
            self.stamps[i] = other.stamps[i];
            true
        } else {
            false
        }
    }

    /// Adopts every row `other` has fresher. Returns the number of rows
    /// adopted (for control-overhead accounting).
    ///
    /// # Panics
    /// Panics if the tables differ in size.
    pub fn merge_from(&mut self, other: &StampedRows) -> usize {
        assert_eq!(self.len(), other.len());
        (0..self.len())
            .filter(|&i| self.adopt_row(other, i))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether two rows are one allocation.
    fn same(a: &[f64], b: &[f64]) -> bool {
        std::ptr::eq(a, b)
    }

    #[test]
    fn never_updated_rows_share_one_allocation() {
        let t = StampedRows::new(3, f64::INFINITY);
        assert!((0..3).all(|i| same(t.row(i), t.row(0)) && t.stamp(i) == -1.0));
        assert!(t.row(1).iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn merge_shares_fresher_rows_and_counts_them() {
        let mut a = StampedRows::new(3, 0.0);
        let mut b = StampedRows::new(3, 0.0);
        a.set_row(0, &[1.0, 2.0, 3.0], 5.0);
        b.set_row(0, &[4.0, 5.0, 6.0], 9.0);
        b.set_row(2, &[7.0, 8.0, 9.0], 1.0);
        assert_eq!(a.merge_from(&b), 2);
        assert!(same(a.row(0), b.row(0)) && same(a.row(2), b.row(2)));
        assert_eq!(a.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(a.stamp(2), 1.0);
        assert!(!same(a.row(1), b.row(1)), "an unknown row is never adopted");
        assert_eq!(a.merge_from(&b), 0, "equal stamps are not fresher");
    }

    #[test]
    fn writes_never_reach_an_adopted_row() {
        let mut owner = StampedRows::new(2, 0.0);
        let mut peer = StampedRows::new(2, 0.0);
        owner.set_row(0, &[1.0, 2.0], 1.0);
        peer.merge_from(&owner);
        owner.set_row(0, &[3.0, 4.0], 2.0);
        owner.edit_row(0, 3.0, |r| r[1] = 5.0);
        assert_eq!(peer.row(0), &[1.0, 2.0]);
        assert_eq!(peer.stamp(0), 1.0);
        assert_eq!(owner.row(0), &[3.0, 5.0]);
    }

    #[test]
    fn editing_an_unknown_row_leaves_the_others_alone() {
        let mut t = StampedRows::new(3, 0.0);
        t.edit_row(1, 1.0, |r| r[0] = 9.0);
        assert_eq!(t.row(1), &[9.0, 0.0, 0.0]);
        assert_eq!(t.row(0), &[0.0; 3]);
        assert!(same(t.row(0), t.row(2)));
    }
}
