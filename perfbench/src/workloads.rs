//! The benchmark's workloads: the `RunSpec`s each one hands the program,
//! generated from the workload seed, and one untraced repetition of each
//! through the program's own public entry points.
//!
//! Every scenario is spelled as the exact string `ScenarioSpec::parse`
//! receives: `paper:n=N` is the city family, while plain `paper` with a
//! node count is the bus-city.

use dtn_bench::report::validate_document;
use dtn_bench::{
    run_indexed, run_matrix_records_stored, run_spec_observed, run_stream, CellStore, ProbeSpec,
    ProtocolSpec, ReportSpec, RunRecord, RunSpec, ScenarioCache, ScenarioSpec, SweepConfig,
};
use std::path::Path;
use std::time::Instant;

/// The seed the committed baseline and pins use.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming later claims; pinned too.
pub const HELD_OUT_SEED: u64 = 7;

/// The eight protocol families the paper compares.
pub const FAMILIES: [&str; 8] = [
    "eer",
    "cr",
    "maxprop",
    "prophet",
    "ebr",
    "spraywait",
    "sprayfocus",
    "epidemic",
];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// All eight families on `paper:n=300` for 1800 s, four cell seeds.
    ProtocolsN300,
    /// Epidemic on `paper:n=30000` for 120 s through the streaming path,
    /// with a time-series and a latency probe.
    CityStreamN30k,
    /// 768 cheap cells through the stored matrix runner, 224 of them
    /// already in the store.
    SweepMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ProtocolsN300,
        Workload::CityStreamN30k,
        Workload::SweepMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProtocolsN300 => "protocols-n300",
            Workload::CityStreamN30k => "city-stream-n30k",
            Workload::SweepMixed => "sweep-mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cells one repetition runs.
    pub fn cells(self) -> usize {
        match self {
            Workload::ProtocolsN300 => FAMILIES.len() * PROTOCOL_CELL_SEEDS,
            Workload::CityStreamN30k => 1,
            Workload::SweepMixed => sweep_specs().len() * SWEEP_SEEDS as usize,
        }
    }
}

/// Sweep threads: two, or fewer on a host with fewer cores.
pub fn sweep_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(2)
}

fn spec(family: &str, scenario: &str, n: u32, duration: f64) -> RunSpec {
    RunSpec::on(
        family,
        ScenarioSpec::parse(scenario, n).expect("workload scenario spec parses"),
        ProtocolSpec::parse(family).expect("workload protocol spec parses"),
    )
    .with_duration(duration)
}

/// Cell seeds per family in `protocols-n300`.
pub const PROTOCOL_CELL_SEEDS: usize = 4;

/// `protocols-n300`: one spec per family.
pub fn protocol_specs() -> Vec<RunSpec> {
    FAMILIES
        .iter()
        .map(|f| spec(f, "paper:n=300", 300, 1800.0))
        .collect()
}

/// `protocols-n300`'s cell seeds for workload seed `seed`: 1–4 for seed 1,
/// 5–8 for seed 2, and so on.
pub fn protocol_cell_seeds(seed: u64) -> Vec<u64> {
    let first = (seed - 1) * PROTOCOL_CELL_SEEDS as u64 + 1;
    (first..first + PROTOCOL_CELL_SEEDS as u64).collect()
}

/// `(spec index, cell seed)` jobs in the runner's spec-major order.
pub fn jobs(n_specs: usize, seeds: &[u64]) -> Vec<(usize, u64)> {
    (0..n_specs)
        .flat_map(|i| seeds.iter().map(move |&s| (i, s)))
        .collect()
}

/// `city-stream-n30k`'s single cell; its run seed is the workload seed.
pub fn city_spec() -> RunSpec {
    spec("epidemic", "paper:n=30000", 30_000, 120.0).with_probes(vec![
        ProbeSpec::parse("timeseries:dt=10").expect("probe spec parses"),
        ProbeSpec::parse("latency").expect("probe spec parses"),
    ])
}

/// Seeds per spec in `sweep-mixed`.
pub const SWEEP_SEEDS: u32 = 24;
/// Seeds per spec `sweep-mixed` publishes to the store during set-up.
pub const SWEEP_PUBLISHED: u32 = 7;

/// `sweep-mixed`: 8 families × {bus-city `paper`, `rwp`} × n ∈ {12, 24} at
/// 2000 s, family-major, so consecutive cells of one family walk through
/// every scenario before the next family reuses them.
pub fn sweep_specs() -> Vec<RunSpec> {
    let mut out = Vec::new();
    for family in FAMILIES {
        for scenario in ["paper", "rwp"] {
            for n in [12, 24] {
                out.push(spec(family, scenario, n, 2000.0));
            }
        }
    }
    out
}

/// The cell seeds `sweep-mixed` publishes to the store during set-up: a
/// cyclic window of 7 of the seeds 1..=24 whose start the workload seed
/// picks (seeds 1–7 for seed 1). The timed sweep serves these and computes
/// the other 17 per spec, which need 4 × 17 = 68 distinct scenarios: more
/// than the 64 the default `ScenarioCache` holds.
pub fn sweep_published_seeds(seed: u64) -> Vec<u64> {
    let n = u64::from(SWEEP_SEEDS);
    let start = (seed - 1) * 5 % n;
    (0..u64::from(SWEEP_PUBLISHED))
        .map(|i| (start + i) % n + 1)
        .collect()
}

/// Host time and outputs of one repetition.
pub struct Rep {
    /// Seconds of set-up before the first timed cell.
    pub setup_s: f64,
    /// Seconds of the timed phase.
    pub wall_s: f64,
    /// Process CPU seconds of the timed phase.
    pub cpu_s: f64,
    /// Every cell's record, in job order.
    pub records: Vec<RunRecord>,
}

/// Runs `f` as the timed phase, returning its result, wall and CPU time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let cpu0 = crate::sys::process_cpu_s();
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    (out, wall, crate::sys::process_cpu_s() - cpu0)
}

/// Computes `jobs` over the sweep fabric, one record per job in job order:
/// the miss pass of `run_matrix_records_stored`, with no store.
pub fn compute_records(
    cache: &ScenarioCache,
    specs: &[RunSpec],
    jobs: &[(usize, u64)],
) -> Vec<RunRecord> {
    run_indexed(jobs.len(), sweep_threads(), |j| {
        let (i, seed) = jobs[j];
        let t = Instant::now();
        let (ps, out) = run_spec_observed(cache, &specs[i], seed);
        RunRecord::capture_output(&specs[i], &ps, seed, &out, t.elapsed().as_secs_f64())
    })
}

/// `sweep-mixed`'s reports: one per scenario (family and node count),
/// each holding that scenario's records in job order.
pub fn sweep_reports(records: &[RunRecord]) -> Vec<ReportSpec> {
    let mut reports: Vec<ReportSpec> = Vec::new();
    for r in records {
        let title = format!("sweep-mixed {}", r.scenario);
        match reports.iter_mut().find(|rep| rep.title == title) {
            Some(rep) => rep.push(r.clone()),
            None => {
                let mut rep = ReportSpec::new(title);
                rep.push(r.clone());
                reports.push(rep);
            }
        }
    }
    reports
}

/// Emits `report` and validates the text as `reportcheck` does.
pub fn emit_and_validate(report: &ReportSpec) -> Result<(), String> {
    validate_document(&report.to_json_string())
        .map(drop)
        .map_err(|e| format!("report `{}` rejected: {e}", report.title))
}

/// Opens a fresh, empty store at `dir`.
pub fn fresh_store(dir: &Path) -> Result<CellStore, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    CellStore::open(dir)
}

/// Set-up of `sweep-mixed`: computes the published cells and publishes
/// them.
pub fn seed_store(store: &CellStore, specs: &[RunSpec], seed: u64) -> Result<(), String> {
    let jobs = jobs(specs.len(), &sweep_published_seeds(seed));
    for record in compute_records(&ScenarioCache::new(), specs, &jobs) {
        store.publish(&record)?;
    }
    Ok(())
}

/// What a workload's set-up leaves for its timed phase.
enum Prepared {
    /// `protocols-n300`: a cache holding the four scenarios.
    Cache(ScenarioCache),
    /// `city-stream-n30k`: nothing; the stream build was measured alone.
    Nothing,
    /// `sweep-mixed`: a store holding the published cells.
    Store(CellStore),
}

/// Runs `w`'s set-up at workload seed `seed`, returning what it prepared
/// and its seconds. `work` is a scratch directory for the store.
fn setup(w: Workload, seed: u64, work: &Path) -> Result<(Prepared, f64), String> {
    let t = Instant::now();
    let prepared = match w {
        Workload::ProtocolsN300 => {
            let cache = ScenarioCache::new();
            let s0 = &protocol_specs()[0];
            for s in protocol_cell_seeds(seed) {
                cache.get_spec(&s0.scenario, &s0.workload, s, s0.duration);
            }
            Prepared::Cache(cache)
        }
        Workload::CityStreamN30k => {
            // The stream build, alone: what the run pays before its first
            // contact window.
            let spec = city_spec();
            spec.scenario.build_stream_threads(
                seed,
                spec.duration,
                spec.effective_run_threads(),
            )?;
            Prepared::Nothing
        }
        Workload::SweepMixed => {
            let store = fresh_store(&work.join("store"))?;
            seed_store(&store, &sweep_specs(), seed)?;
            Prepared::Store(store)
        }
    };
    Ok((prepared, t.elapsed().as_secs_f64()))
}

/// One untraced repetition of `w` at workload seed `seed`, through the
/// program's own entry points: the sweep fabric over `run_spec_observed`
/// cells, `run_stream`, and `run_matrix_records_stored`.
pub fn run_untraced(w: Workload, seed: u64, work: &Path) -> Result<Rep, String> {
    let (prepared, setup_s) = setup(w, seed, work)?;
    let (records, wall_s, cpu_s) = match prepared {
        Prepared::Cache(cache) => {
            let specs = protocol_specs();
            let jobs = jobs(specs.len(), &protocol_cell_seeds(seed));
            let (records, wall_s, cpu_s) = timed(|| compute_records(&cache, &specs, &jobs));
            (Ok(records), wall_s, cpu_s)
        }
        Prepared::Nothing => {
            let spec = city_spec();
            timed(|| {
                let t = Instant::now();
                run_stream(&spec, seed).map(|r| {
                    let wall_s = t.elapsed().as_secs_f64();
                    vec![RunRecord::capture_stream(
                        &spec, r.n_nodes, r.duration, seed, &r.output, wall_s,
                    )]
                })
            })
        }
        Prepared::Store(store) => {
            let specs = sweep_specs();
            let cfg = SweepConfig {
                seeds: SWEEP_SEEDS,
                threads: sweep_threads(),
                verbose: false,
            };
            let out = timed(|| {
                let records =
                    run_matrix_records_stored(&ScenarioCache::new(), &specs, cfg, Some(&store));
                sweep_reports(&records)
                    .iter()
                    .try_for_each(emit_and_validate)
                    .map(|()| records)
            });
            let _ = std::fs::remove_dir_all(store.root());
            out
        }
    };
    Ok(Rep {
        setup_s,
        wall_s,
        cpu_s,
        records: records?,
    })
}

/// Every cell of `w` at workload seed `seed`, computed afresh without a
/// store: the outputs the pins record.
pub fn reference_records(w: Workload, seed: u64, work: &Path) -> Result<Vec<RunRecord>, String> {
    match w {
        Workload::ProtocolsN300 => {
            let specs = protocol_specs();
            let jobs = jobs(specs.len(), &protocol_cell_seeds(seed));
            Ok(compute_records(&ScenarioCache::new(), &specs, &jobs))
        }
        Workload::CityStreamN30k => run_untraced(w, seed, work).map(|rep| rep.records),
        Workload::SweepMixed => {
            let specs = sweep_specs();
            let seeds: Vec<u64> = (1..=u64::from(SWEEP_SEEDS)).collect();
            Ok(compute_records(
                &ScenarioCache::new(),
                &specs,
                &jobs(specs.len(), &seeds),
            ))
        }
    }
}
