//! The lock-free sweep fabric: a work-stealing executor for `(spec, seed)`
//! cell jobs.
//!
//! The matrix runner ([`run_matrix_records_stored`](crate::run_matrix_records_stored))
//! used to hand cells to workers through a single `AtomicUsize` ticket
//! counter and collect results into per-spec `Mutex<Vec<_>>` slots. Both are
//! coordinator bottlenecks at million-cell scale: every worker contends on
//! one cache line for the ticket, and every completion takes a lock. The
//! fabric replaces them with the classic work-stealing shape:
//!
//! * The job list is an **immutable, pre-filled array** — jobs are never
//!   produced mid-run, only consumed. This is the property that makes the
//!   deque protocol below sufficient: emptiness is monotone, so a thief
//!   that sweeps every deque once and finds them all empty can retire.
//! * Each worker owns a **bounded deque over a contiguous block** of job
//!   indices (a Chase–Lev deque degenerated to a fixed array — no growth,
//!   no wrap). The owner pops from the bottom; thieves steal from the top.
//!   Owner and thief only meet on the last element, where a single CAS on
//!   `top` arbitrates.
//! * Results come back as worker-local `Vec<(job_index, T)>`s, merged and
//!   sorted by job index after the scope joins — **no shared result
//!   collection at all**, and the caller sees deterministic job order no
//!   matter which worker ran which cell.
//!
//! Determinism: each job is a pure function of its index (a cell run is a
//! pure function of `(spec, seed)`), so stealing reorders *execution* but
//! not *results*. A worker panic propagates after the scope joins (the
//! original payload is resumed), so no record is silently lost.

use std::sync::atomic::{AtomicIsize, Ordering};

/// One worker's deque: a window `[top, bottom)` over the shared job-index
/// space. The owner treats `bottom` as private-ish (it is atomic only so
/// thieves can read it); `top` is the contended end.
struct CellDeque {
    /// Next index a thief would take. Only ever increased, by CAS.
    top: AtomicIsize,
    /// One past the next index the owner would take. Decreased by the
    /// owner, restored on conflict.
    bottom: AtomicIsize,
}

impl CellDeque {
    fn new(start: usize, end: usize) -> Self {
        CellDeque {
            top: AtomicIsize::new(start as isize),
            bottom: AtomicIsize::new(end as isize),
        }
    }

    /// Owner-side take from the bottom. `None` once the block is exhausted.
    ///
    /// This is the Chase–Lev owner protocol on a fixed array: reserve by
    /// decrementing `bottom`, then check whether a thief got there first.
    /// On the last element, owner and thief race — a CAS on `top` decides,
    /// and `bottom` is restored either way so the deque ends canonical
    /// (`top == bottom`).
    fn pop(&self) -> Option<usize> {
        let b = self.bottom.fetch_sub(1, Ordering::SeqCst) - 1;
        let t = self.top.load(Ordering::SeqCst);
        if t < b {
            // More than one element remained: the reservation is safely ours.
            return Some(b as usize);
        }
        let won = t == b
            && self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
        // Empty or contended-last-element: restore bottom to its value
        // before the reservation (on the last element `b + 1 == t + 1`, so
        // the deque ends canonical either way).
        self.bottom.store(b + 1, Ordering::SeqCst);
        won.then_some(b as usize)
    }

    /// Thief-side take from the top. `None` if the deque looks empty or the
    /// steal loses a race (the caller just moves on to the next victim).
    fn steal(&self) -> Option<usize> {
        let t = self.top.load(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::SeqCst);
        if t >= b {
            return None;
        }
        self.top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
            .then_some(t as usize)
    }

    /// Whether a thief sweeping for termination can skip this deque.
    fn is_empty(&self) -> bool {
        self.top.load(Ordering::SeqCst) >= self.bottom.load(Ordering::SeqCst)
    }
}

/// Runs `f(0), f(1), …, f(n_jobs - 1)` across `workers` threads with
/// work stealing, and returns the results **in job order** — exactly what a
/// sequential `(0..n_jobs).map(f).collect()` returns, whatever the thread
/// count.
///
/// The job space is split into `workers` contiguous blocks (front-loaded
/// remainder, so blocks differ by at most one job); each worker drains its
/// own block bottom-up, then steals from the top of the others. With
/// `workers <= 1` the fabric is bypassed entirely and the jobs run inline
/// on the calling thread.
///
/// # Panics
/// If any job panics, the panic payload is re-raised on the calling thread
/// after all workers have joined — results are never partially returned.
pub fn run_indexed<T, F>(n_jobs: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n_jobs <= 1 {
        return (0..n_jobs).map(f).collect();
    }
    let workers = workers.min(n_jobs);

    // Contiguous blocks: the first `extra` workers get one more job.
    let base = n_jobs / workers;
    let extra = n_jobs % workers;
    let mut deques = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        deques.push(CellDeque::new(start, start + len));
        start += len;
    }

    let mut out: Vec<(usize, T)> = Vec::with_capacity(n_jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|me| {
                let deques = &deques;
                let f = &f;
                scope.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    // Phase 1: drain the own block.
                    while let Some(j) = deques[me].pop() {
                        local.push((j, f(j)));
                    }
                    // Phase 2: steal until a full sweep finds every deque
                    // empty. Jobs are never added, so emptiness is monotone
                    // and one clean sweep proves termination.
                    loop {
                        let mut all_empty = true;
                        for k in 1..deques.len() {
                            let victim = &deques[(me + k) % deques.len()];
                            while let Some(j) = victim.steal() {
                                all_empty = false;
                                local.push((j, f(j)));
                            }
                            if !victim.is_empty() {
                                all_empty = false;
                            }
                        }
                        if all_empty {
                            break;
                        }
                    }
                    local
                })
            })
            .collect();
        let mut panic = None;
        for h in handles {
            match h.join() {
                Ok(local) => out.extend(local),
                Err(p) => panic = Some(p),
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    });
    debug_assert_eq!(out.len(), n_jobs);
    out.sort_unstable_by_key(|&(j, _)| j);
    out.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn matches_sequential_map_for_every_worker_count() {
        for n_jobs in [0usize, 1, 2, 7, 64, 1000] {
            let expect: Vec<usize> = (0..n_jobs).map(|j| j * 3 + 1).collect();
            for workers in [1usize, 2, 4, 8, 13] {
                let got = run_indexed(n_jobs, workers, |j| j * 3 + 1);
                assert_eq!(got, expect, "n_jobs={n_jobs} workers={workers}");
            }
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        const N: usize = 500;
        let counts: Vec<AtomicUsize> = (0..N).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(N, 8, |j| {
            counts[j].fetch_add(1, Ordering::SeqCst);
        });
        for (j, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "job {j}");
        }
    }

    #[test]
    fn stealing_is_exercised_under_skewed_load() {
        // Make the first block's jobs slow: the other workers must steal to
        // finish in any reasonable time, and results must still be ordered.
        const N: usize = 64;
        let got = run_indexed(N, 8, |j| {
            if j < N / 8 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            j
        });
        assert_eq!(got, (0..N).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(32, 4, |j| {
                if j == 17 {
                    panic!("job 17 exploded");
                }
                j
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job 17 exploded");
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        assert_eq!(run_indexed(3, 16, |j| j), vec![0, 1, 2]);
    }
}
