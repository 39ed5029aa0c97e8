//! The streaming contact supply is an *optimization*, not a semantic
//! change: for every generated scenario family, a streamed run
//! ([`dtn_bench::run_stream`]) must reproduce the materialized run
//! ([`dtn_bench::run_spec_observed`]) bit for bit — statistics,
//! time-series curves and latency histograms alike.
//! This pins the whole chain: windowed contact generation, the engine's
//! source pump, and the calendar queue's contact sequence band.

use dtn_bench::{
    run_cell, run_spec_observed, run_stream, CommunitySource, ProbeSpec, ProtocolKind,
    ProtocolSpec, RunRecord, RunSpec, ScenarioCache, ScenarioSpec,
};

/// The cells under test: every generated family (paper bus-city, explicit
/// city, RWP) under a flooding and a community-routed protocol.
fn cells() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (label, scenario) in [
        ("paper", ScenarioSpec::paper(24)),
        ("city", ScenarioSpec::city(60, 5)),
        ("rwp", ScenarioSpec::rwp(30)),
    ] {
        specs.push(
            RunSpec::on(
                format!("epidemic @ {label}"),
                scenario.clone(),
                ProtocolSpec::paper(ProtocolKind::Epidemic),
            )
            .with_duration(900.0)
            .with_probes(vec![
                ProbeSpec::TimeSeries { dt: 120.0 },
                ProbeSpec::LatencyHist,
            ]),
        );
        specs.push(
            RunSpec::on(
                format!("cr @ {label}"),
                scenario,
                ProtocolSpec::paper(ProtocolKind::Cr),
            )
            .with_duration(900.0)
            .with_communities(CommunitySource::GroundTruth),
        );
    }
    specs
}

#[test]
fn streamed_runs_match_materialized_runs_bitwise() {
    let cache = ScenarioCache::new();
    for spec in cells() {
        for seed in [1u64, 7] {
            let (_, materialized) = run_spec_observed(&cache, &spec, seed);
            let streamed = run_stream(&spec, seed).expect("streamable cell");
            assert_eq!(
                materialized.stats.snapshot(),
                streamed.output.stats.snapshot(),
                "{} seed {seed}: streamed stats diverge from materialized",
                spec.series
            );
            // The sharded scan sits on the same equivalence chain: a
            // worker-pool run must match the materialized trace bit for bit
            // too, not merely match the single-threaded stream.
            let sharded =
                run_stream(&spec.clone().with_run_threads(3), seed).expect("shardable cell");
            assert_eq!(
                materialized.stats.snapshot(),
                sharded.output.stats.snapshot(),
                "{} seed {seed}: sharded stats diverge from materialized",
                spec.series
            );
            assert_eq!(
                materialized.stats.delivered_at, sharded.output.stats.delivered_at,
                "{} seed {seed}: sharded delivery time lists diverge",
                spec.series
            );
            assert_eq!(
                materialized.stats.delivered_at, streamed.output.stats.delivered_at,
                "{} seed {seed}: delivery time lists diverge",
                spec.series
            );
            match (&materialized.timeseries, &streamed.output.timeseries) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(
                        a.samples, b.samples,
                        "{} seed {seed}: time-series curves diverge",
                        spec.series
                    );
                }
                _ => panic!("{} seed {seed}: probe presence diverges", spec.series),
            }
            assert_eq!(
                materialized.latency.is_some(),
                streamed.output.latency.is_some(),
                "{} seed {seed}: latency probe presence diverges",
                spec.series
            );
            if let (Some(a), Some(b)) = (&materialized.latency, &streamed.output.latency) {
                assert_eq!(
                    a, b,
                    "{} seed {seed}: latency histograms diverge",
                    spec.series
                );
            }
        }
    }
}

/// Detected communities need a materialized trace; the streaming path must
/// refuse them loudly instead of silently running with different routing.
#[test]
fn streaming_rejects_detected_communities() {
    let spec = RunSpec::on(
        "cr @ paper",
        ScenarioSpec::paper(24),
        ProtocolSpec::paper(ProtocolKind::Cr),
    )
    .with_duration(600.0)
    .with_communities(CommunitySource::Detected);
    let err = run_stream(&spec, 1).expect_err("detected communities cannot stream");
    assert!(
        err.contains("materialized"),
        "error should point at the materialized path: {err}"
    );
}

/// Protocols that ignore communities stream fine even with `Detected` set
/// (the map is never resolved).
#[test]
fn streaming_ignores_communities_for_flooding_protocols() {
    let spec = RunSpec::on(
        "epidemic @ paper",
        ScenarioSpec::paper(24),
        ProtocolSpec::paper(ProtocolKind::Epidemic),
    )
    .with_duration(600.0)
    .with_communities(CommunitySource::Detected);
    let run = run_stream(&spec, 1).expect("epidemic never resolves communities");
    assert!(run.output.stats.created > 0);
}

/// The stream-or-materialize rule `run_cell` follows: a generated scenario
/// streams at n ≥ 2000 and materializes below; trace replay always
/// materializes; CR with detected communities materializes because online
/// detection replays the trace.
#[test]
fn cells_stream_exactly_at_city_scale() {
    let epidemic = ProtocolSpec::paper(ProtocolKind::Epidemic);
    let cr = ProtocolSpec::paper(ProtocolKind::Cr);
    let cell = |scenario: ScenarioSpec, protocol: &ProtocolSpec| {
        RunSpec::on("rule", scenario, protocol.clone())
    };

    for scenario in [
        ScenarioSpec::paper(2000),
        ScenarioSpec::city(2000, 6),
        ScenarioSpec::rwp(2000),
        ScenarioSpec::parse("paper:n=100000", 40).unwrap(),
    ] {
        assert!(cell(scenario.clone(), &epidemic).streams(), "{scenario}");
        assert!(cell(scenario, &cr).streams(), "ground-truth CR streams");
    }
    for scenario in [
        ScenarioSpec::paper(1999),
        ScenarioSpec::city(1999, 6),
        ScenarioSpec::rwp(24),
        ScenarioSpec::trace_path("contacts.trace"),
    ] {
        assert!(!cell(scenario.clone(), &epidemic).streams(), "{scenario}");
    }
    let detected = |protocol| {
        cell(ScenarioSpec::paper(2000), protocol).with_communities(CommunitySource::Detected)
    };
    assert!(!detected(&cr).streams(), "detected CR needs the trace");
    assert!(
        detected(&epidemic).streams(),
        "epidemic never resolves communities"
    );
}

/// `run_cell` on both sides of the rule yields the record a materialized
/// run captures: streaming changes how contacts are supplied, never the
/// record.
#[test]
fn run_cell_records_match_materialized_runs() {
    let cache = ScenarioCache::new();
    for spec in [
        RunSpec::on(
            "epidemic @ city",
            ScenarioSpec::city(2000, 6),
            ProtocolSpec::paper(ProtocolKind::Epidemic),
        )
        .with_duration(60.0)
        .with_probe(ProbeSpec::LatencyHist),
        RunSpec::on(
            "cr @ paper",
            ScenarioSpec::paper(24),
            ProtocolSpec::paper(ProtocolKind::Cr),
        )
        .with_duration(600.0)
        .with_communities(CommunitySource::Detected),
    ] {
        let (ps, reference) = run_spec_observed(&cache, &spec, 3);
        let materialized = RunRecord::capture_output(&spec, &ps, 3, &reference, 0.0);
        let (record, out) = run_cell(&cache, &spec, 3, None).expect("cell runs");
        let out = out.expect("no store, so the cell is computed");
        assert_eq!(
            RunRecord {
                wall_s: 0.0,
                ..record
            },
            materialized,
            "{}: run_cell record diverges from the materialized run",
            spec.series
        );
        assert_eq!(
            out.stats.delivered_at, reference.stats.delivered_at,
            "{}: delivery time lists diverge",
            spec.series
        );
    }
}
