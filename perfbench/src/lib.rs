//! End-to-end and per-layer benchmark of the cen-dtn workspace.
//!
//! Three workloads drive the workspace crates through their public
//! functions from one process. An untraced run gives the end-to-end
//! metrics; a traced run rebuilds the runner's pipeline from the same public
//! pieces with timing decorators at each layer boundary and gives the
//! per-layer metrics. Every cell's output is checked against pinned
//! digests. See `README.md` in this directory.

pub mod digest;
pub mod sys;
pub mod trace;
pub mod traced;
pub mod workloads;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// The unit of a metric, read off its name as `BENCHMARK.json` declares it.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_us_p50") || name.ends_with("_us_p99") {
        "us"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.ends_with("_frac") {
        "ratio"
    } else {
        "count"
    }
}
