//! Minimum expected meeting delay (Theorem 3).
//!
//! The `MD` matrix of §III-B2 is the `MI` matrix with the *source node's own
//! row* replaced by its expected meeting delays (Theorem 2), which account
//! for the elapsed time since each last contact. The MEMD from the source to
//! every destination is the shortest-path distance over `MD` — computed here
//! with a dense O(n²) Dijkstra that never materialises the matrix copy: edge
//! weights are read row by row from `MI`'s shared row handles (see
//! [`crate::mi`]), except for the source row, which the caller overrides.
//!
//! One solver instance owns its scratch buffers so repeated per-contact
//! computations don't allocate.

use crate::history::ContactHistory;
use crate::mi::MiMatrix;
use dtn_sim::{NodeId, SimTime};

/// Reusable dense-Dijkstra solver for MEMD queries.
#[derive(Clone, Debug, Default)]
pub struct MemdSolver {
    dist: Vec<f64>,
    done: Vec<bool>,
    /// The source node's EMD row (Theorem 2 values).
    emd_row: Vec<f64>,
}

impl MemdSolver {
    /// Creates a solver (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the source's `MD` row: `EMD(t)` towards every peer, with the
    /// paper-unspecified corner cases resolved as:
    ///
    /// * never met / no intervals → unknown (`INFINITY`);
    /// * "overdue" (elapsed exceeds all recorded intervals, conditional set
    ///   empty) → unknown (`INFINITY`): the estimator has no admissible
    ///   evidence left, and treating overdue links as attractive was measured
    ///   to cause single-copy thrashing (see `ablation_emd`).
    pub fn build_emd_row(&mut self, history: &ContactHistory, now: SimTime) -> &[f64] {
        let n = history.n_nodes();
        self.emd_row.clear();
        self.emd_row.resize(n, f64::INFINITY);
        for j in 0..n {
            let jid = NodeId(j as u32);
            if jid == history.me() {
                self.emd_row[j] = 0.0;
                continue;
            }
            let pair = history.pair(jid);
            self.emd_row[j] = match pair.expected_meeting_delay(now) {
                Some(d) => d.max(0.0),
                None => f64::INFINITY,
            };
        }
        &self.emd_row
    }

    /// Builds an own-row of plain mean intervals (no Theorem-2 elapsed-time
    /// correction) — the Jones et al. MEED-style baseline used by
    /// `ablation_emd` to quantify what the correction buys.
    pub fn build_mean_row(&mut self, history: &ContactHistory) -> &[f64] {
        let n = history.n_nodes();
        self.emd_row.clear();
        self.emd_row.resize(n, f64::INFINITY);
        for j in 0..n {
            let jid = NodeId(j as u32);
            if jid == history.me() {
                self.emd_row[j] = 0.0;
                continue;
            }
            if let Some(mean) = history.pair(jid).mean_interval() {
                self.emd_row[j] = mean;
            }
        }
        &self.emd_row
    }

    /// MEMD from `src` to all nodes, over `mi` with `src`'s row overridden by
    /// `emd_row` (use [`MemdSolver::build_emd_row`] first, or pass any
    /// custom override). Returns the distance vector; unreachable = ∞.
    ///
    /// Optionally `restrict` limits the graph to a subset of nodes (the
    /// intra-community MEMD′ of §IV); `None` means all nodes.
    pub fn memd_from(
        &mut self,
        src: NodeId,
        mi: &MiMatrix,
        emd_row: &[f64],
        restrict: Option<&[NodeId]>,
    ) -> &[f64] {
        let n = mi.n();
        debug_assert_eq!(emd_row.len(), n);
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.done.clear();
        self.done.resize(n, true);
        match restrict {
            Some(nodes) => {
                for v in nodes {
                    self.done[v.idx()] = false;
                }
                self.done[src.idx()] = false;
            }
            None => self.done.iter_mut().for_each(|d| *d = false),
        }
        // `done[v] = true` marks nodes outside the restricted set as already
        // finalised (at ∞), so they are never relaxed through.
        self.dist[src.idx()] = 0.0;
        loop {
            // Dense extraction of the closest unfinished node.
            let mut u = usize::MAX;
            let mut best = f64::INFINITY;
            for v in 0..n {
                if !self.done[v] && self.dist[v] < best {
                    best = self.dist[v];
                    u = v;
                }
            }
            if u == usize::MAX {
                break;
            }
            self.done[u] = true;
            let row: &[f64] = if u == src.idx() {
                emd_row
            } else {
                mi.row(NodeId(u as u32))
            };
            for (v, &w) in row.iter().enumerate().take(n) {
                if self.done[v] {
                    continue;
                }
                if w.is_finite() {
                    let nd = best + w;
                    if nd < self.dist[v] {
                        self.dist[v] = nd;
                    }
                }
            }
        }
        &self.dist
    }

    /// Convenience: full MEMD vector for `history.me()` at `now`.
    pub fn memd_all(
        &mut self,
        history: &ContactHistory,
        mi: &MiMatrix,
        now: SimTime,
        restrict: Option<&[NodeId]>,
    ) -> &[f64] {
        let me = history.me();
        self.build_emd_row(history, now);
        let row = std::mem::take(&mut self.emd_row);
        let _ = self.memd_from(me, mi, &row, restrict);
        self.emd_row = row;
        &self.dist
    }

    /// As [`MemdSolver::memd_all`] but with the mean-interval own-row (no
    /// Theorem-2 correction).
    pub fn memd_all_mean(
        &mut self,
        history: &ContactHistory,
        mi: &MiMatrix,
        restrict: Option<&[NodeId]>,
    ) -> &[f64] {
        let me = history.me();
        self.build_mean_row(history);
        let row = std::mem::take(&mut self.emd_row);
        let _ = self.memd_from(me, mi, &row, restrict);
        self.emd_row = row;
        &self.dist
    }

    /// The last computed distance vector.
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mi_from(n: u32, entries: &[(u32, u32, f64)]) -> MiMatrix {
        let mut mi = MiMatrix::new(n);
        for &(i, j, v) in entries {
            mi.set_entry(NodeId(i), NodeId(j), v, 1.0);
            mi.set_entry(NodeId(j), NodeId(i), v, 1.0);
        }
        mi
    }

    #[test]
    fn memd_is_shortest_path_over_md() {
        // 0 -10- 1 -10- 2, and a slow direct edge 0 -50- 2.
        let mi = mi_from(3, &[(0, 1, 10.0), (1, 2, 10.0), (0, 2, 50.0)]);
        let mut s = MemdSolver::new();
        let emd_row = vec![0.0, 10.0, 50.0]; // same as MI row here
        let d = s.memd_from(NodeId(0), &mi, &emd_row, None);
        assert_eq!(d[0], 0.0);
        assert_eq!(d[1], 10.0);
        assert_eq!(d[2], 20.0, "two-hop path beats direct");
    }

    #[test]
    fn emd_row_override_changes_first_hop() {
        let mi = mi_from(3, &[(0, 1, 10.0), (1, 2, 10.0), (0, 2, 50.0)]);
        let mut s = MemdSolver::new();
        // Node 0 just met 1 recently: its *current* expected delay to 1 is
        // only 2 (Theorem 2), so MEMD(0→2) drops to 12.
        let emd_row = vec![0.0, 2.0, 50.0];
        let d = s.memd_from(NodeId(0), &mi, &emd_row, None);
        assert_eq!(d[2], 12.0);
    }

    #[test]
    fn unreachable_stays_infinite() {
        let mi = mi_from(4, &[(0, 1, 5.0)]);
        let mut s = MemdSolver::new();
        let emd_row = vec![0.0, 5.0, f64::INFINITY, f64::INFINITY];
        let d = s.memd_from(NodeId(0), &mi, &emd_row, None);
        assert!(d[2].is_infinite());
        assert!(d[3].is_infinite());
    }

    #[test]
    fn restriction_blocks_outside_relays() {
        // Path 0-1-2 exists, but 1 is outside the allowed subset.
        let mi = mi_from(3, &[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)]);
        let mut s = MemdSolver::new();
        let emd_row = vec![0.0, 1.0, 10.0];
        let d = s.memd_from(NodeId(0), &mi, &emd_row, Some(&[NodeId(0), NodeId(2)]));
        assert_eq!(d[2], 10.0, "must use the direct intra-subset edge");
    }

    #[test]
    fn build_emd_row_fallbacks() {
        use dtn_sim::SimTime;
        let mut h = ContactHistory::new(NodeId(0), 3, 8);
        // Peer 1: periodic 100s, last met at 200.
        for t in [0.0, 100.0, 200.0] {
            h.record_meeting(NodeId(1), SimTime::secs(t));
        }
        let mut s = MemdSolver::new();
        // At t=250 (elapsed 50): EMD = 100 - 50 = 50.
        let row = s.build_emd_row(&h, SimTime::secs(250.0));
        assert!((row[1] - 50.0).abs() < 1e-12);
        assert!(row[2].is_infinite(), "never met → unknown");
        assert_eq!(row[0], 0.0);
        // Overdue (elapsed 150 > all intervals): no admissible evidence.
        let row = s.build_emd_row(&h, SimTime::secs(350.0));
        assert!(row[1].is_infinite());
    }

    #[test]
    fn memd_all_composes() {
        use dtn_sim::SimTime;
        let mut h = ContactHistory::new(NodeId(0), 3, 8);
        for t in [0.0, 100.0, 200.0] {
            h.record_meeting(NodeId(1), SimTime::secs(t));
        }
        // MI knows 1-2 meet every 30 on average.
        let mut mi = MiMatrix::new(3);
        mi.set_entry(NodeId(1), NodeId(2), 30.0, 5.0);
        let mut s = MemdSolver::new();
        let d = s.memd_all(&h, &mi, SimTime::secs(250.0), None);
        assert!((d[1] - 50.0).abs() < 1e-12);
        assert!((d[2] - 80.0).abs() < 1e-12, "50 to reach 1 + 30 onwards");
    }
}
