//! The meeting-interval matrix `MI` and its freshness-based gossip.
//!
//! Every EER node maintains an `n × n` matrix whose entry `I_ij` is the
//! average meeting interval between nodes `i` and `j`, together with a
//! last-update time per row. Row `i` is authoritative at node `i` (computed
//! from its own history); all other rows arrive by gossip: when two nodes
//! meet they exchange rows, each adopting the rows the other has fresher —
//! the paper's footnote 1 ("only the rows with the fresher update time need
//! to be exchanged ... which can reduce the routing information exchange
//! overhead greatly").
//!
//! Because gossip adopts whole rows, a node's copy of row `i` is always
//! node `i`'s own row at some stamp. The matrix therefore holds no `n × n`
//! block of its own: each row is a shared, immutable handle
//! ([`dtn_sim::StampedRows`]), adopting a row clones a pointer, and every
//! node that knows one version of a row shares one allocation of it.
//!
//! Unknown entries are `f64::INFINITY`; the diagonal is 0.

use dtn_sim::{NodeId, StampedRows};

/// Meeting-interval matrix with per-row freshness stamps.
#[derive(Clone, Debug)]
pub struct MiMatrix {
    /// `INFINITY` = unknown; never-updated rows share one all-unknown row.
    rows: StampedRows,
}

impl MiMatrix {
    /// Creates an all-unknown matrix for `n` nodes.
    pub fn new(n: u32) -> Self {
        MiMatrix {
            rows: StampedRows::new(n as usize, f64::INFINITY),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.rows.len()
    }

    /// Entry `I_ij` (0 on the diagonal).
    #[inline]
    pub fn get(&self, i: NodeId, j: NodeId) -> f64 {
        if i == j {
            0.0
        } else {
            self.rows.row(i.idx())[j.idx()]
        }
    }

    /// Row `i` as a slice. Its diagonal entry is not meaningful (rows are
    /// shared, and never-updated rows share one all-unknown row); use
    /// [`MiMatrix::get`], which is 0 there.
    #[inline]
    pub fn row(&self, i: NodeId) -> &[f64] {
        self.rows.row(i.idx())
    }

    /// Freshness stamp of row `i` (`-1` = never updated).
    #[inline]
    pub fn row_time(&self, i: NodeId) -> f64 {
        self.rows.stamp(i.idx())
    }

    /// Overwrites row `i` with `values` and stamps it with `time`.
    ///
    /// # Panics
    /// Panics if `values.len() != n`.
    pub fn set_row(&mut self, i: NodeId, values: &[f64], time: f64) {
        self.rows.set_row(i.idx(), values, time);
    }

    /// Updates a single entry of row `i` (stamping the row with `time`, or
    /// keeping its stamp if that is fresher). A row other matrices share
    /// is copied first, so their copies never change.
    pub fn set_entry(&mut self, i: NodeId, j: NodeId, value: f64, time: f64) {
        let stamp = self.row_time(i).max(time);
        self.rows
            .edit_row(i.idx(), stamp, |row| row[j.idx()] = value);
    }

    /// Adopts every row the `other` matrix has fresher. Returns the number
    /// of rows copied (for control-overhead accounting).
    pub fn merge_from(&mut self, other: &MiMatrix) -> usize {
        self.rows.merge_from(&other.rows)
    }

    /// Whether two matrices hold identical data (for convergence tests).
    pub fn same_data(&self, other: &MiMatrix) -> bool {
        let ids = || (0..self.n() as u32).map(NodeId);
        self.n() == other.n()
            && ids().all(|i| {
                ids().all(|j| {
                    let (a, b) = (self.get(i, j), other.get(i, j));
                    a == b || (a.is_infinite() && b.is_infinite())
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unknown_with_zero_diagonal() {
        let m = MiMatrix::new(3);
        assert_eq!(m.get(NodeId(0), NodeId(0)), 0.0);
        assert!(m.get(NodeId(0), NodeId(1)).is_infinite());
        assert_eq!(m.row_time(NodeId(2)), -1.0);
    }

    #[test]
    fn set_row_stamps_and_zeroes_diagonal() {
        let mut m = MiMatrix::new(3);
        m.set_row(NodeId(1), &[5.0, 99.0, 7.0], 10.0);
        assert_eq!(m.get(NodeId(1), NodeId(0)), 5.0);
        assert_eq!(m.get(NodeId(1), NodeId(1)), 0.0, "diagonal forced to 0");
        assert_eq!(m.get(NodeId(1), NodeId(2)), 7.0);
        assert_eq!(m.row_time(NodeId(1)), 10.0);
    }

    #[test]
    fn merge_adopts_only_fresher_rows() {
        let mut a = MiMatrix::new(3);
        let mut b = MiMatrix::new(3);
        a.set_row(NodeId(0), &[0.0, 10.0, 20.0], 5.0);
        a.set_row(NodeId(2), &[1.0, 2.0, 0.0], 50.0);
        b.set_row(NodeId(0), &[0.0, 11.0, 21.0], 9.0); // fresher
        b.set_row(NodeId(2), &[9.0, 9.0, 0.0], 3.0); // staler
        let copied = a.merge_from(&b);
        assert_eq!(copied, 1);
        assert_eq!(a.get(NodeId(0), NodeId(1)), 11.0, "fresher row adopted");
        assert_eq!(a.get(NodeId(2), NodeId(0)), 1.0, "staler row kept");
    }

    #[test]
    fn bidirectional_merge_converges() {
        let mut a = MiMatrix::new(3);
        let mut b = MiMatrix::new(3);
        a.set_row(NodeId(0), &[0.0, 10.0, 20.0], 5.0);
        b.set_row(NodeId(1), &[30.0, 0.0, 40.0], 7.0);
        let a2 = a.clone();
        a.merge_from(&b);
        b.merge_from(&a2);
        // After a second sync in either direction they are identical.
        b.merge_from(&a);
        assert!(a.same_data(&b));
        assert_eq!(a.get(NodeId(1), NodeId(0)), 30.0);
        assert_eq!(b.get(NodeId(0), NodeId(2)), 20.0);
    }

    /// Rows are shared after a merge; the owner's later writes to its own
    /// row must leave the adopted copy untouched.
    #[test]
    fn adopted_row_survives_owner_writes() {
        let mut owner = MiMatrix::new(3);
        let mut peer = MiMatrix::new(3);
        owner.set_row(NodeId(0), &[0.0, 10.0, 20.0], 5.0);
        assert_eq!(peer.merge_from(&owner), 1);
        owner.set_row(NodeId(0), &[0.0, 11.0, 21.0], 6.0);
        owner.set_entry(NodeId(0), NodeId(2), 99.0, 7.0);
        assert_eq!(owner.get(NodeId(0), NodeId(1)), 11.0);
        assert_eq!(owner.get(NodeId(0), NodeId(2)), 99.0);
        assert_eq!(peer.row(NodeId(0)), &[0.0, 10.0, 20.0]);
        assert_eq!(peer.row_time(NodeId(0)), 5.0);
        // An entry write to a row the owner adopted copies it first, too.
        peer.set_entry(NodeId(0), NodeId(1), 1.0, 8.0);
        owner.merge_from(&peer);
        peer.set_entry(NodeId(0), NodeId(1), 2.0, 9.0);
        assert_eq!(owner.get(NodeId(0), NodeId(1)), 1.0);
        assert_eq!(owner.row_time(NodeId(0)), 8.0);
    }

    #[test]
    fn set_entry_bumps_row_time_monotonically() {
        let mut m = MiMatrix::new(2);
        m.set_entry(NodeId(0), NodeId(1), 42.0, 10.0);
        assert_eq!(m.row_time(NodeId(0)), 10.0);
        m.set_entry(NodeId(0), NodeId(1), 43.0, 5.0);
        assert_eq!(m.row_time(NodeId(0)), 10.0, "older stamp must not regress");
    }
}
