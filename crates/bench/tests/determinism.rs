//! Sweep determinism: the worker-thread count is a pure throughput knob and
//! must never change simulation results. The runner keys results by
//! `(spec, seed)` instead of racing them, so `threads = 1` and `threads = 8`
//! must produce bit-identical [`MetricPoint`]s for the same matrix.

use dtn_bench::{
    run_matrix_records_stored, ProtocolKind, ProtocolSpec, ReportSpec, RunSpec, ScenarioCache,
    SweepConfig,
};
use dtn_sim::MetricPoint;

/// A small but non-trivial matrix: four protocol families (including CR,
/// which resolves a community map per scenario) over two node counts, on a
/// shortened horizon to keep the test quick.
fn matrix() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (label, proto) in [
        ("Epidemic", ProtocolSpec::paper(ProtocolKind::Epidemic)),
        (
            "SprayAndWait",
            ProtocolSpec::paper(ProtocolKind::SprayAndWait).with_lambda(4),
        ),
        ("EER", ProtocolSpec::paper(ProtocolKind::Eer).with_lambda(6)),
        ("CR", ProtocolSpec::paper(ProtocolKind::Cr).with_lambda(6)),
    ] {
        for n in [8u32, 12] {
            specs.push(RunSpec::new(label, n, proto.clone()).with_duration(1_500.0));
        }
    }
    specs
}

fn run_with_threads(threads: usize) -> Vec<MetricPoint> {
    ReportSpec {
        title: String::new(),
        records: run_matrix_records_stored(
            &ScenarioCache::new(),
            &matrix(),
            SweepConfig {
                seeds: 2,
                threads,
                verbose: false,
            },
            None,
        ),
    }
    .points(2)
}

#[test]
fn thread_count_does_not_change_results() {
    let single = run_with_threads(1);
    let multi = run_with_threads(8);
    assert_eq!(single.len(), multi.len());
    for (i, (a, b)) in single.iter().zip(&multi).enumerate() {
        assert_eq!(a.runs, b.runs, "spec {i}: run count differs");
        // Bitwise equality: identical (spec, seed) cells must reduce to
        // identical floats, not merely close ones.
        assert_eq!(
            a.delivery_ratio.to_bits(),
            b.delivery_ratio.to_bits(),
            "spec {i}: delivery ratio differs across thread counts"
        );
        assert_eq!(
            a.latency.to_bits(),
            b.latency.to_bits(),
            "spec {i}: latency differs across thread counts"
        );
        assert_eq!(
            a.goodput.to_bits(),
            b.goodput.to_bits(),
            "spec {i}: goodput differs across thread counts"
        );
        assert_eq!(
            a.relayed.to_bits(),
            b.relayed.to_bits(),
            "spec {i}: relay count differs across thread counts"
        );
        assert_eq!(
            a.control_mb.to_bits(),
            b.control_mb.to_bits(),
            "spec {i}: control traffic differs across thread counts"
        );
    }
}
