//! The traced run must observe the program, not change it: runs through the
//! timing decorators are bitwise identical to unwrapped runs, and every
//! workload's traced repetition reproduces the pinned digests.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use ce_core::{Eer, EerConfig};
use dtn_bench::report::json::Json;
use dtn_bench::{
    run_spec_observed, run_stream, ProbeSpec, ProtocolSpec, RunRecord, RunSpec, ScenarioCache,
    ScenarioSpec,
};
use dtn_sim::Router;
use perfbench::digest::{cell_name, digest, Pins};
use perfbench::trace::{RouterTotals, TimedRouter, Tracer};
use perfbench::traced::{run_traced, traced_matrix, traced_stream_cell, CacheProbe};
use perfbench::workloads::{
    jobs, protocol_cell_seeds, sweep_published_seeds, Workload, DEFAULT_SEED, FAMILIES,
};
use std::path::{Path, PathBuf};

fn probes() -> Vec<ProbeSpec> {
    vec![
        ProbeSpec::parse("timeseries:dt=100").unwrap(),
        ProbeSpec::parse("latency").unwrap(),
    ]
}

/// Small cells of every family on both generated scenario kinds.
fn small_specs() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for family in FAMILIES {
        for scenario in ["paper", "paper:n=40", "rwp"] {
            specs.push(
                RunSpec::on(
                    family,
                    ScenarioSpec::parse(scenario, 12).unwrap(),
                    ProtocolSpec::parse(family).unwrap(),
                )
                .with_duration(1500.0)
                .with_probes(probes()),
            );
        }
    }
    specs
}

/// Everything a record carries except host timing.
fn assert_same_output(a: &RunRecord, b: &RunRecord) {
    let what = cell_name(a);
    assert_eq!(a.cell, b.cell, "{what}: cell key");
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.timeseries, b.timeseries, "{what}: time series");
    assert_eq!(a.latency, b.latency, "{what}: latency histogram");
    assert_eq!(digest(a), digest(b), "{what}: digest");
}

fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn timed_router_hands_out_the_inner_router_for_peer_downcasts() {
    let mut wrapped = TimedRouter::new(
        Box::new(Eer::with_config(
            dtn_sim::NodeId(0),
            4,
            EerConfig::default(),
        )),
        RouterTotals::default(),
    );
    assert!(wrapped.as_any_mut().downcast_mut::<Eer>().is_some());
    assert!(wrapped.as_any_mut().downcast_mut::<TimedRouter>().is_none());
}

#[test]
fn traced_cells_are_bitwise_identical_to_untraced_ones_for_every_family() {
    let specs = small_specs();
    let seeds = [1, 2];
    let jobs = jobs(specs.len(), &seeds);
    let tr = Tracer::new();
    let cache = ScenarioCache::new();
    let probe = CacheProbe::new(&cache);
    let root = tr.open("test", None, None);
    let (traced, totals) = traced_matrix(&tr, root.id(), &probe, &specs, &jobs, None);
    tr.close(root);
    let plain_cache = ScenarioCache::new();
    for (&(i, seed), t) in jobs.iter().zip(&traced) {
        let (ps, out) = run_spec_observed(&plain_cache, &specs[i], seed);
        let plain = RunRecord::capture_output(&specs[i], &ps, seed, &out, 0.0);
        assert_same_output(&plain, t);
    }
    // The decorators saw the work they wrap.
    assert!(totals.windows > 0 && totals.contact_up_calls > 0 && totals.pick_calls > 0);
    assert!(totals.batches > 0 && totals.events > 0);
    // Families share scenarios, and nothing is evicted: each of the 6
    // scenarios is built once, or once per worker when both miss it at the
    // same time.
    let (misses, _) = probe.misses();
    let scenarios = 3 * seeds.len() as u64;
    assert!(
        (scenarios..=2 * scenarios).contains(&misses),
        "{misses} misses"
    );
}

#[test]
fn traced_stream_cell_is_bitwise_identical_to_run_stream() {
    let spec = RunSpec::on(
        "epidemic",
        ScenarioSpec::parse("paper:n=300", 300).unwrap(),
        ProtocolSpec::parse("epidemic").unwrap(),
    )
    .with_duration(600.0)
    .with_probes(probes())
    .with_run_threads(2);
    let run = run_stream(&spec, 3).unwrap();
    let plain = RunRecord::capture_stream(&spec, run.n_nodes, run.duration, 3, &run.output, 0.0);
    let tr = Tracer::new();
    let root = tr.open("test", None, None);
    let (traced, totals) = traced_stream_cell(&tr, root.id(), &spec, 3).unwrap();
    tr.close(root);
    assert_same_output(&plain, &traced);
    assert!(totals.windows > 1 && totals.contact_events > 0);
}

#[test]
fn workload_seeds_are_a_function_of_the_workload_seed() {
    assert_eq!(protocol_cell_seeds(1), vec![1, 2, 3, 4]);
    assert_eq!(protocol_cell_seeds(7), vec![25, 26, 27, 28]);
    assert_eq!(sweep_published_seeds(1), (1..=7).collect::<Vec<_>>());
    let other = sweep_published_seeds(7);
    assert_eq!(other.len(), 7);
    assert_ne!(other, sweep_published_seeds(1));
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn end_to_end_units_match_benchmark_json() {
    for (name, unit) in declared("end_to_end") {
        assert_eq!(perfbench::unit_of(&name), unit, "{name}");
    }
}

/// Each workload's traced repetition at the default seed reproduces the
/// pinned digests of the untraced program, cell for cell, and reports
/// exactly the per-layer metrics `BENCHMARK.json` declares.
#[test]
fn traced_runs_reproduce_the_pinned_digests() {
    let per_layer = declared("per_layer");
    for (name, unit) in &per_layer {
        assert_eq!(perfbench::unit_of(name), unit, "{name}");
    }
    for w in Workload::ALL {
        let pins = Pins::load(
            &Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("pins")
                .join(format!("{}.txt", w.name())),
        )
        .unwrap();
        let traced = run_traced(w, DEFAULT_SEED, &work_dir(w.name())).unwrap();
        assert_eq!(traced.rep.records.len(), w.cells(), "{}", w.name());
        for r in &traced.rep.records {
            let name = cell_name(r);
            assert_eq!(pins.get(&name), Some(digest(r)), "{}: {name}", w.name());
        }
        assert!(traced.layers.iter().all(|(_, v)| v.is_finite()));
        let mut reported: Vec<&str> = traced.layers.iter().map(|(n, _)| *n).collect();
        reported.push("trace.overhead_s");
        let declared: Vec<&str> = per_layer.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(reported, declared, "{}", w.name());
    }
}
