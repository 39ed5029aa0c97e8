//! The traced run: the runner's pipeline rebuilt from the program's public
//! pieces, with a span at every layer boundary the benchmark crosses and
//! timing decorators on the `Router`, `ContactSource` and `SimObserver`
//! boundaries inside each cell.
//!
//! `run_matrix_records_stored` and `run_stream` expose no hooks, so this
//! module repeats what they do, step for step: serve pass, fabric over the
//! misses, one cell per job (scenario lookup, simulation build, run, probe
//! extraction, record capture), publish pass. The wrapper tests pin its
//! outputs bit for bit to the untraced run's.

use crate::sys;
use crate::trace::{
    BoundaryTotals, RouterTotals, SourceTotals, Span, TimedObserver, TimedRouter, TimedSource,
    Tracer,
};
use crate::workloads::{
    city_spec, fresh_store, jobs, protocol_cell_seeds, protocol_specs, seed_store, sweep_reports,
    sweep_specs, sweep_threads, timed, Rep, Workload, SWEEP_SEEDS,
};
use ce_core::CommunityMap;
use dtn_bench::report::validate_document;
use dtn_bench::{
    run_indexed, CellStore, CommunitySource, ProbeSpec, RunOutput, RunRecord, RunSpec,
    ScenarioCache, ScenarioKey,
};
use dtn_mobility::{Scenario, StreamScenario};
use dtn_sim::{
    ContactSource, DrainMode, LatencyHistogramProbe, MessageSpec, SimConfig, SimObserver,
    Simulation, TimeSeriesProbe, TraceReplaySource,
};
use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// Scenario lookups through a `ScenarioCache`, classified as hits or
/// misses.
///
/// The cache does not say which lookups built a scenario. A hit hands back
/// the `Arc` the cache already held, a build a fresh one; keeping a `Weak`
/// to the last `Arc` seen per key keeps its allocation alive, so pointer
/// identity tells the two apart. The comparison is against the `Arc` seen
/// *before* the lookup started: when two workers build one scenario at
/// once, both paid for the build, though the cache keeps only the first.
pub struct CacheProbe<'a> {
    cache: &'a ScenarioCache,
    seen: Mutex<HashMap<ScenarioKey, Weak<Scenario>>>,
    misses: Mutex<(u64, f64)>,
}

impl<'a> CacheProbe<'a> {
    /// Wraps `cache`.
    pub fn new(cache: &'a ScenarioCache) -> Self {
        CacheProbe {
            cache,
            seen: Mutex::new(HashMap::new()),
            misses: Mutex::new((0, 0.0)),
        }
    }

    /// `ScenarioCache::get_spec` for `spec` at `seed`, in a
    /// `bench.scenario.get` span.
    pub fn get(
        &self,
        tr: &Tracer,
        parent: u32,
        cell: Option<usize>,
        spec: &RunSpec,
        seed: u64,
    ) -> dtn_bench::BuiltScenario {
        let key = ScenarioKey::new(&spec.scenario, &spec.workload, seed, spec.duration);
        let before = self
            .seen
            .lock()
            .expect("lookup map poisoned")
            .get(&key)
            .map(Weak::as_ptr);
        let (ps, dt) = tr.span("bench.scenario.get", Some(parent), cell, |_| {
            self.cache
                .get_spec(&spec.scenario, &spec.workload, seed, spec.duration)
        });
        let hit = before.is_some_and(|p| std::ptr::eq(p, Arc::as_ptr(&ps.scenario)));
        self.seen
            .lock()
            .expect("lookup map poisoned")
            .insert(key, Arc::downgrade(&ps.scenario));
        if !hit {
            let mut m = self.misses.lock().expect("miss counter poisoned");
            m.0 += 1;
            m.1 += dt;
        }
        ps
    }

    /// Lookups that built a scenario, and their seconds.
    pub fn misses(&self) -> (u64, f64) {
        *self.misses.lock().expect("miss counter poisoned")
    }
}

/// The community map `spec` runs with, from the scenario's ground truth.
fn communities_for(spec: &RunSpec, ground_truth: &[u32]) -> Option<Arc<CommunityMap>> {
    spec.protocol
        .needs_communities()
        .then(|| match &spec.communities {
            CommunitySource::GroundTruth => Arc::new(CommunityMap::new(ground_truth.to_vec())),
            CommunitySource::Fixed(map) => Arc::clone(map),
            CommunitySource::Detected => {
                panic!("benchmark workloads use ground-truth communities")
            }
        })
}

/// The workload with the protocol's TTL override applied, as the runner
/// does.
fn with_ttl(spec: &RunSpec, mut workload: Vec<MessageSpec>) -> Vec<MessageSpec> {
    if let Some(ttl) = spec.protocol.ttl {
        for m in &mut workload {
            m.ttl = ttl;
        }
    }
    workload
}

/// What one simulation runs on.
struct SimInput {
    source: Box<dyn ContactSource>,
    workload: Vec<MessageSpec>,
    communities: Option<Arc<CommunityMap>>,
}

/// Builds and runs one simulation with every boundary decorated: the
/// engine build in a `sim.build` span, the run in a `sim.engine.run` span.
fn traced_sim(
    tr: &Tracer,
    parent: u32,
    cell: usize,
    spec: &RunSpec,
    seed: u64,
    input: SimInput,
) -> (RunOutput, BoundaryTotals) {
    let SimInput {
        source,
        workload,
        communities,
    } = input;
    let source_totals = SourceTotals::default();
    let router_totals = RouterTotals::default();
    let mut cfg = SimConfig::paper(seed);
    if let Some(bytes) = spec.buffer_capacity.or(spec.protocol.buffer) {
        cfg.buffer_capacity = bytes;
    }
    let (mut sim, _) = tr.span("sim.build", Some(parent), Some(cell), |_| {
        let source = Box::new(TimedSource::new(source, Arc::clone(&source_totals)));
        Simulation::from_source(source, workload, cfg, |id, n| {
            let before = sys::thread_live_bytes();
            let router = spec.protocol.make_router(id, n, communities.as_ref());
            router_totals.borrow_mut().state_bytes_max += sys::thread_live_bytes() - before;
            Box::new(TimedRouter::new(router, Rc::clone(&router_totals)))
        })
    });
    for probe in spec.effective_probes() {
        let probe: Box<dyn SimObserver> = match probe {
            ProbeSpec::TimeSeries { dt } => Box::new(TimeSeriesProbe::new(dt)),
            ProbeSpec::LatencyHist => Box::new(LatencyHistogramProbe::new()),
            ProbeSpec::EventLog { .. } => panic!("benchmark workloads record no event log"),
        };
        sim.add_observer(Box::new(TimedObserver::new(probe)));
    }
    if let Some(capacity) = spec.ring_drain {
        sim.set_drain_mode(DrainMode::Ring { capacity });
    }
    let ((stats, observers), _) = tr.span("sim.engine.run", Some(parent), Some(cell), |_| {
        sim.run_observed()
    });
    let mut totals = router_totals.borrow().clone();
    totals.add(&source_totals.lock().expect("source totals poisoned"));
    let mut out = RunOutput {
        stats,
        ..RunOutput::default()
    };
    for obs in &observers {
        let timed = obs
            .as_any()
            .downcast_ref::<TimedObserver>()
            .expect("every probe is wrapped");
        totals.dispatch_s += timed.dispatch_s;
        totals.batches += timed.batches;
        totals.events += timed.events;
        let probe = timed.inner().as_any();
        if let Some(p) = probe.downcast_ref::<TimeSeriesProbe>() {
            out.timeseries.get_or_insert_with(|| p.series().clone());
        } else if let Some(p) = probe.downcast_ref::<LatencyHistogramProbe>() {
            out.latency.get_or_insert_with(|| p.histogram().clone());
        }
    }
    (out, totals)
}

/// One materialized cell: `run_spec_observed` plus record capture.
fn traced_cell(
    tr: &Tracer,
    parent: u32,
    cell: usize,
    cache: &CacheProbe<'_>,
    spec: &RunSpec,
    seed: u64,
) -> (RunRecord, BoundaryTotals) {
    let t = Instant::now();
    let ps = cache.get(tr, parent, Some(cell), spec, seed);
    let input = SimInput {
        source: Box::new(TraceReplaySource::new(&ps.scenario.trace)),
        workload: with_ttl(spec, ps.workload.as_ref().clone()),
        communities: communities_for(spec, &ps.scenario.communities),
    };
    let (out, totals) = traced_sim(tr, parent, cell, spec, seed, input);
    let record = RunRecord::capture_output(spec, &ps, seed, &out, t.elapsed().as_secs_f64());
    (record, totals)
}

/// One streaming cell: `run_stream` plus record capture, the stream build
/// in a `mobility.build` span.
pub fn traced_stream_cell(
    tr: &Tracer,
    parent: u32,
    spec: &RunSpec,
    seed: u64,
) -> Result<(RunRecord, BoundaryTotals), String> {
    let t = Instant::now();
    let (built, _) = tr.span("mobility.build", Some(parent), Some(0), |_| {
        spec.scenario
            .build_stream_threads(seed, spec.duration, spec.effective_run_threads())
    });
    let StreamScenario {
        source,
        n_nodes,
        duration,
        communities,
        ..
    } = built?;
    let input = SimInput {
        source,
        workload: with_ttl(spec, spec.workload.generate(n_nodes, duration, seed)),
        communities: communities_for(spec, &communities),
    };
    let (out, totals) = traced_sim(tr, parent, 0, spec, seed, input);
    let wall_s = t.elapsed().as_secs_f64();
    let record = RunRecord::capture_stream(spec, n_nodes, duration, seed, &out, wall_s);
    Ok((record, totals))
}

/// `run_matrix_records_stored` over explicit `(spec, seed)` jobs: serve
/// pass, fabric over the misses, publish pass, merge by job index.
pub fn traced_matrix(
    tr: &Tracer,
    parent: u32,
    cache: &CacheProbe<'_>,
    specs: &[RunSpec],
    jobs: &[(usize, u64)],
    store: Option<&CellStore>,
) -> (Vec<RunRecord>, BoundaryTotals) {
    let storable = |i: usize| {
        !specs[i]
            .effective_probes()
            .iter()
            .any(|p| matches!(p, ProbeSpec::EventLog { .. }))
    };
    let mut slots: Vec<Option<RunRecord>> = vec![None; jobs.len()];
    if let Some(store) = store {
        for (j, &(i, seed)) in jobs.iter().enumerate() {
            if storable(i) {
                let cell = specs[i].cell_key(seed).encoded();
                slots[j] = tr
                    .span("bench.store.serve", Some(parent), Some(j), |_| {
                        store.serve(&cell, seed)
                    })
                    .0;
            }
        }
    }
    let misses: Vec<usize> = (0..jobs.len()).filter(|&j| slots[j].is_none()).collect();
    let (computed, _) = tr.span("bench.fabric", Some(parent), None, |fabric| {
        run_indexed(misses.len(), sweep_threads(), |m| {
            let j = misses[m];
            let (i, seed) = jobs[j];
            tr.span("bench.fabric.job", Some(fabric), Some(j), |job| {
                traced_cell(tr, job, j, cache, &specs[i], seed)
            })
            .0
        })
    });
    let mut totals = BoundaryTotals::default();
    for (m, (record, cell_totals)) in computed.into_iter().enumerate() {
        totals.add(&cell_totals);
        let j = misses[m];
        if let Some(store) = store {
            if storable(jobs[j].0) {
                let published = tr
                    .span("bench.store.publish", Some(parent), Some(j), |_| {
                        store.publish(&record)
                    })
                    .0;
                if let Err(e) = published {
                    eprintln!("warning: store publish failed: {e}");
                }
            }
        }
        slots[j] = Some(record);
    }
    let records = slots
        .into_iter()
        .map(|s| s.expect("every job slot filled by serve or compute"))
        .collect();
    (records, totals)
}

/// A traced repetition: its end-to-end figures, per-layer metrics and
/// spans.
pub struct TracedRep {
    /// Set-up, wall and CPU time plus every cell's record.
    pub rep: Rep,
    /// `(name, value)` of every per-layer metric except the overhead.
    pub layers: Vec<(&'static str, f64)>,
    /// The spans, as JSON lines.
    pub spans_jsonl: String,
}

/// One traced repetition of `w` at workload seed `seed`.
pub fn run_traced(w: Workload, seed: u64, work: &Path) -> Result<TracedRep, String> {
    let tr = Tracer::new();
    let scenario_cache = ScenarioCache::new();
    let cache = CacheProbe::new(&scenario_cache);
    let (rep, totals) = match w {
        Workload::ProtocolsN300 => {
            let specs = protocol_specs();
            let seeds = protocol_cell_seeds(seed);
            let (_, setup_s) = tr.span("setup", None, None, |setup| {
                for &s in &seeds {
                    cache.get(&tr, setup, None, &specs[0], s);
                }
            });
            let jobs = jobs(specs.len(), &seeds);
            let ((records, totals), wall_s, cpu_s) = timed(|| {
                tr.span("timed", None, None, |t| {
                    traced_matrix(&tr, t, &cache, &specs, &jobs, None)
                })
                .0
            });
            let rep = Rep {
                setup_s,
                wall_s,
                cpu_s,
                records,
            };
            (rep, totals)
        }
        Workload::CityStreamN30k => {
            let spec = city_spec();
            let (built, setup_s) = tr.span("setup", None, None, |setup| {
                tr.span("mobility.build", Some(setup), None, |_| {
                    spec.scenario
                        .build_stream_threads(seed, spec.duration, spec.effective_run_threads())
                        .map(drop)
                })
                .0
            });
            built?;
            let (cell, wall_s, cpu_s) = timed(|| {
                tr.span("timed", None, None, |t| {
                    traced_stream_cell(&tr, t, &spec, seed)
                })
                .0
            });
            let (record, totals) = cell?;
            let rep = Rep {
                setup_s,
                wall_s,
                cpu_s,
                records: vec![record],
            };
            (rep, totals)
        }
        Workload::SweepMixed => {
            let specs = sweep_specs();
            let dir = work.join("store");
            let (store, setup_s) = tr.span("setup", None, None, |_| {
                let store = fresh_store(&dir)?;
                seed_store(&store, &specs, seed)?;
                Ok::<_, String>(store)
            });
            let store = store?;
            let seeds: Vec<u64> = (1..=u64::from(SWEEP_SEEDS)).collect();
            let jobs = jobs(specs.len(), &seeds);
            let (out, wall_s, cpu_s) = timed(|| {
                tr.span("timed", None, None, |t| {
                    let (records, totals) =
                        traced_matrix(&tr, t, &cache, &specs, &jobs, Some(&store));
                    let mut valid = Ok(());
                    for report in sweep_reports(&records) {
                        let (text, _) = tr.span("bench.report.emit", Some(t), None, |_| {
                            report.to_json_string()
                        });
                        let (checked, _) = tr.span("bench.report.validate", Some(t), None, |_| {
                            validate_document(&text)
                        });
                        if let Err(e) = checked {
                            valid = Err(format!("report `{}` rejected: {e}", report.title));
                        }
                    }
                    valid.map(|()| (records, totals))
                })
                .0
            });
            let _ = std::fs::remove_dir_all(&dir);
            let (records, totals) = out?;
            let rep = Rep {
                setup_s,
                wall_s,
                cpu_s,
                records,
            };
            (rep, totals)
        }
    };
    let layers = layer_metrics(&tr.spans(), &totals, &rep.records, cache.misses());
    Ok(TracedRep {
        rep,
        layers,
        spans_jsonl: tr.to_jsonl(),
    })
}

/// Nearest-rank percentile `p` of `values`, or 0 when there are none.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced repetition.
fn layer_metrics(
    spans: &[Span],
    totals: &BoundaryTotals,
    records: &[RunRecord],
    (misses, miss_s): (u64, f64),
) -> Vec<(&'static str, f64)> {
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let sum = |name: &'static str| named(name).fold(0.0, |acc, s| acc + s.dur_s());
    let count = |name: &'static str| named(name).count() as f64;
    let durations_us =
        |name: &'static str| named(name).map(|s| s.dur_s() * 1e6).collect::<Vec<_>>();

    let computed: Vec<&RunRecord> = records.iter().filter(|r| !r.cached).collect();
    let relayed: u64 = computed.iter().map(|r| r.stats.relayed).sum();
    let aborted: u64 = computed.iter().map(|r| r.stats.aborted).sum();
    let control_mb: f64 = computed.iter().map(|r| r.stats.control_mb()).sum();
    let run_s = sum("sim.engine.run");

    let jobs: Vec<&Span> = named("bench.fabric.job").collect();
    let busy_s = jobs.iter().fold(0.0, |acc, s| acc + s.dur_s());
    let fabric_s = sum("bench.fabric");
    let workers = if jobs.len() > 1 {
        sweep_threads().min(jobs.len())
    } else {
        1
    };
    let last_job_s = jobs
        .iter()
        .max_by(|a, b| a.end_s.total_cmp(&b.end_s))
        .map_or(0.0, |s| s.dur_s());

    let serves = durations_us("bench.store.serve");
    let hits = records.iter().filter(|r| r.cached).count() as f64;
    let publishes = durations_us("bench.store.publish");
    let lookups = count("bench.scenario.get");

    vec![
        // Scenario builds happen inside cache misses or as stream builds.
        ("mobility.build_s", miss_s + sum("mobility.build")),
        ("mobility.window_s", totals.window_s),
        ("mobility.windows", totals.windows as f64),
        ("mobility.contact_events", totals.contact_events as f64),
        ("sim.engine.run_s", run_s),
        ("sim.engine.self_s", run_s - totals.below_engine_s()),
        ("sim.engine.relayed", relayed as f64),
        (
            "sim.engine.abort_frac",
            ratio(aborted as f64, (relayed + aborted) as f64),
        ),
        ("routing.contact_up_s", totals.contact_up_s),
        ("routing.contact_up_calls", totals.contact_up_calls as f64),
        ("routing.pick_s", totals.pick_s),
        ("routing.pick_calls", totals.pick_calls as f64),
        (
            "routing.pick_hit_frac",
            ratio(totals.pick_plans as f64, totals.pick_calls as f64),
        ),
        ("routing.tick_s", totals.tick_s),
        ("routing.other_s", totals.other_s),
        (
            "routing.state_mb",
            totals.state_bytes_max as f64 / (1024.0 * 1024.0),
        ),
        ("routing.control_mb", control_mb),
        ("sim.observe.dispatch_s", totals.dispatch_s),
        ("sim.observe.batches", totals.batches as f64),
        ("sim.observe.events", totals.events as f64),
        ("bench.scenario.get_s", sum("bench.scenario.get")),
        ("bench.scenario.lookups", lookups),
        ("bench.scenario.miss_frac", ratio(misses as f64, lookups)),
        ("bench.fabric.busy_s", busy_s),
        (
            "bench.fabric.idle_frac",
            if fabric_s > 0.0 {
                1.0 - busy_s / (fabric_s * workers as f64)
            } else {
                0.0
            },
        ),
        ("bench.fabric.last_job_s", last_job_s),
        ("bench.store.serve_s", sum("bench.store.serve")),
        ("bench.store.serve_us_p50", percentile(&serves, 50.0)),
        ("bench.store.serve_us_p99", percentile(&serves, 99.0)),
        ("bench.store.hit_frac", ratio(hits, serves.len() as f64)),
        ("bench.store.publish_s", sum("bench.store.publish")),
        ("bench.store.publish_us_p50", percentile(&publishes, 50.0)),
        ("bench.report.emit_s", sum("bench.report.emit")),
        ("bench.report.validate_s", sum("bench.report.validate")),
    ]
}
