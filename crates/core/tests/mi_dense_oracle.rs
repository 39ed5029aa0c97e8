//! Differential test of [`MiMatrix`] (shared, stamped row handles) against
//! `DenseMi`, a plain row-major `n × n` matrix with the same gossip rules.
//! Every sequence of writes and merges must leave both with equal entries,
//! equal row stamps and equal adoption counts.

use ce_core::MiMatrix;
use dtn_sim::NodeId;
use proptest::prelude::*;

/// The reference: every node owns a dense copy of every row.
#[derive(Clone, Debug)]
struct DenseMi {
    n: usize,
    /// Row-major `n × n`; `INFINITY` = unknown, diagonal = 0.
    data: Vec<f64>,
    /// Last update time per row; `-1` = never updated.
    row_time: Vec<f64>,
}

impl DenseMi {
    fn new(n: u32) -> Self {
        let n = n as usize;
        let mut data = vec![f64::INFINITY; n * n];
        for i in 0..n {
            data[i * n + i] = 0.0;
        }
        DenseMi {
            n,
            data,
            row_time: vec![-1.0; n],
        }
    }

    fn get(&self, i: NodeId, j: NodeId) -> f64 {
        self.data[i.idx() * self.n + j.idx()]
    }

    fn row_time(&self, i: NodeId) -> f64 {
        self.row_time[i.idx()]
    }

    fn set_row(&mut self, i: NodeId, values: &[f64], time: f64) {
        assert_eq!(values.len(), self.n);
        self.data[i.idx() * self.n..(i.idx() + 1) * self.n].copy_from_slice(values);
        self.data[i.idx() * self.n + i.idx()] = 0.0;
        self.row_time[i.idx()] = time;
    }

    fn set_entry(&mut self, i: NodeId, j: NodeId, value: f64, time: f64) {
        self.data[i.idx() * self.n + j.idx()] = value;
        self.row_time[i.idx()] = self.row_time[i.idx()].max(time);
    }

    fn merge_from(&mut self, other: &DenseMi) -> usize {
        assert_eq!(self.n, other.n);
        let mut copied = 0;
        for i in 0..self.n {
            if other.row_time[i] > self.row_time[i] {
                let lo = i * self.n;
                let hi = lo + self.n;
                self.data[lo..hi].copy_from_slice(&other.data[lo..hi]);
                self.row_time[i] = other.row_time[i];
                copied += 1;
            }
        }
        copied
    }
}

/// `(&mut v[a], &v[b])` for `a != b`.
fn split<T>(v: &mut [T], a: usize, b: usize) -> (&mut T, &T) {
    assert_ne!(a, b);
    if a < b {
        let (lo, hi) = v.split_at_mut(b);
        (&mut lo[a], &hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(a);
        (&mut hi[0], &lo[b])
    }
}

/// One drawn operation: `(kind, target, source, i, j, (stamp, value))`.
type Op = (u8, usize, usize, u32, u32, (i32, f64));

fn ops() -> impl Strategy<Value = (u32, Vec<Op>)> {
    (1u32..9).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(
                (
                    0u8..3,
                    0usize..3,
                    0usize..3,
                    0..n,
                    0..n,
                    (-2i32..8, 1.0f64..1e4),
                ),
                1..60,
            ),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random `set_row` / `set_entry` / `merge_from` sequences over three
    /// matrices, merges in both directions. Stamps are drawn from a small
    /// range so that ties, stale writes and stamps below "never updated"
    /// (`-1`) all occur.
    #[test]
    fn shared_rows_match_the_dense_matrix((n, ops) in ops()) {
        let mut shared: Vec<MiMatrix> = (0..3).map(|_| MiMatrix::new(n)).collect();
        let mut dense: Vec<DenseMi> = (0..3).map(|_| DenseMi::new(n)).collect();
        for (step, &(kind, t, s, i, j, (stamp, value))) in ops.iter().enumerate() {
            let (i, stamp) = (NodeId(i), f64::from(stamp));
            match kind {
                0 => {
                    // Every third column unknown, the rest distinct values.
                    let values: Vec<f64> = (0..n)
                        .map(|c| if (c + j) % 3 == 0 { f64::INFINITY } else { value + f64::from(c) })
                        .collect();
                    shared[t].set_row(i, &values, stamp);
                    dense[t].set_row(i, &values, stamp);
                }
                1 => {
                    // The diagonal is 0 by contract and `DenseMi` would
                    // store a write to it, so entries are drawn off it.
                    if n == 1 {
                        continue;
                    }
                    let j = if j == i.0 { NodeId((j + 1) % n) } else { NodeId(j) };
                    let value = if value < 1000.0 { f64::INFINITY } else { value };
                    shared[t].set_entry(i, j, value, stamp);
                    dense[t].set_entry(i, j, value, stamp);
                }
                _ => {
                    let s = if s == t { (t + 1) % 3 } else { s };
                    let (to, from) = split(&mut shared, t, s);
                    let copied = to.merge_from(from);
                    let (to, from) = split(&mut dense, t, s);
                    prop_assert_eq!(copied, to.merge_from(from), "copied count, step {}", step);
                }
            }
            for (m, (a, b)) in shared.iter().zip(&dense).enumerate() {
                for r in (0..n).map(NodeId) {
                    prop_assert_eq!(a.row_time(r), b.row_time(r), "matrix {} row {} stamp, step {}", m, r.0, step);
                    for c in (0..n).map(NodeId) {
                        prop_assert_eq!(
                            a.get(r, c).to_bits(),
                            b.get(r, c).to_bits(),
                            "matrix {} entry ({}, {}), step {}", m, r.0, c.0, step
                        );
                    }
                }
            }
        }
    }
}
