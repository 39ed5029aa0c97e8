//! `dtnrun` — run any protocol on any scenario family (generated or a
//! replayed contact trace), with a full report (headline metrics, latency
//! percentiles, delivery-progress curve).
//!
//! See `dtnrun --help` (the [`USAGE`] string) for the flag reference.
//! `--protocol` takes the full spec grammar (`eer:lambda=8,ttl=3600`; see
//! `dtn_bench::protocols`), so any tuning the registry knows is one flag
//! away. `--trace file.trace` is shorthand for `--scenario trace:file.trace`;
//! either way the contact process is loaded from the plain-text trace format
//! (see `dtn_sim::trace`) instead of being generated — the path for
//! replaying real-world contact datasets. Every run goes through the shared
//! runner's one cell path (`run_cell`: store serve, streamed or
//! materialized compute, publish), and the run header prints the *resolved*
//! protocol spec so every log line is a reproducible command.

use dtn_bench::report::{CommonArgs, OutputSpec, ReportSpec, RunRecord};
use dtn_bench::{
    replay_artifact, resolve_store, run_cell, ProbeSpec, ProtocolSpec, RunSpec, ScenarioCache,
    ScenarioSpec, WorkloadSpec,
};
use dtn_sim::report::{delivery_progress, latencies, percentile};

const USAGE: &str = "usage: dtnrun [flags]

  --protocol SPEC      protocol under test, with optional parameters
                       (default eer); the grammar is
                         name[:key=value[,key=value...]]
                       e.g. eer:lambda=8,ttl=3600  prophet:beta=0.25
  --scenario FAMILY    paper | rwp | trace:<path>   (default paper)
  --workload KIND      paper | hotspot[:<k>] | bursty[:<on>:<off>]  (default paper)
  --nodes N            node count for generated scenarios (default 40);
                       from 2000 nodes on, contacts stream on demand instead
                       of materializing the whole trace (bit-identical)
  --seed S             mobility/traffic seed (default 1)
  --duration SECS      horizon override; invalid with trace replay
  --lambda K           copy quota shorthand (same as :lambda=K)
  --alpha A            EER/CR horizon shorthand (same as :alpha=A)
  --trace PATH         shorthand for --scenario trace:PATH
  --buffer BYTES       per-node buffer capacity (default 1 MB)
  --run-threads N      worker threads for the sharded contact scan on the
                       streaming path (default auto: up to 8 for generated
                       scenarios with >= 10000 nodes, else 1); results are
                       bit-identical for every value
  --drain MODE         observer dispatch: inline (default) or ring[:CAP] to
                       fold probes on a companion thread through a bounded
                       ring of CAP batches (default 16); results are
                       bit-identical either way
  --progress-step SECS delivery-progress bucket (default 1000)
  --probe SPEC         attach an observer to the run (repeatable):
                         timeseries[:dt=SECS]  delivery/overhead/occupancy
                                               curves sampled in-run
                         latency               log2 histogram, exact p50/p95/p99
                         eventlog[:path=PATH]  record every engine event to a
                                               TRACE/1.0 artifact
  --record PATH        sugar for --probe eventlog:path=PATH ({seed} in PATH
                       expands to the run's seed)
  --replay PATH        fold the report out of a recorded TRACE/1.0 artifact
                       instead of running the engine; stats and probe outputs
                       are bitwise identical to the recorded live run (only
                       --probe and --out apply alongside)
  --store DIR          persistent result store root (default results/store);
                       a previously computed run of the same cell is served
                       from disk instead of simulated, new runs are published
  --no-store           disable the result store (always run, never publish)
  --out FORMAT:PATH    emit the run through the report pipeline
                       (json:|csv:|md:, repeatable)
  --help, -h           print this help

examples:
  dtnrun --protocol eer:lambda=8 --scenario rwp --nodes 40
  dtnrun --protocol cr --workload hotspot --duration 2000
  dtnrun --protocol prophet:beta=0.25,gamma=0.99 --scenario trace:contacts.trace
  dtnrun --protocol eer --probe timeseries:dt=60 --out json:results/run.json
  dtnrun --protocol eer --record results/run.trace --out json:results/live.json
  dtnrun --replay results/run.trace --probe latency --out json:results/replay.json";

struct Args {
    protocol: ProtocolSpec,
    scenario: Option<String>,
    workload: WorkloadSpec,
    nodes: u32,
    seed: u64,
    /// `None` = the scenario's default horizon; invalid with trace replay.
    duration: Option<f64>,
    lambda: Option<u32>,
    alpha: Option<f64>,
    buffer: Option<u64>,
    /// `None` = auto (parallel scan at n >= 10^4 on the streaming path).
    run_threads: Option<u32>,
    /// `Some(capacity)` = off-thread observer drain through a bounded ring.
    ring_drain: Option<usize>,
    progress_step: f64,
    probes: Vec<ProbeSpec>,
    outs: Vec<OutputSpec>,
    /// Replay a recorded TRACE/1.0 artifact instead of running the engine.
    replay: Option<String>,
    /// Result-store root override; `None` = the default root.
    store: Option<String>,
    /// Disable the result store entirely.
    no_store: bool,
}

/// `Ok(None)` means `--help` was requested.
fn parse_args() -> Result<Option<Args>, String> {
    let mut out = Args {
        protocol: ProtocolSpec::parse("eer").expect("default spec"),
        scenario: None,
        workload: WorkloadSpec::PaperUniform,
        nodes: 40,
        seed: 1,
        duration: None,
        lambda: None,
        alpha: None,
        buffer: None,
        run_threads: None,
        ring_drain: None,
        progress_step: 1_000.0,
        probes: Vec::new(),
        outs: Vec::new(),
        replay: None,
        store: None,
        no_store: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--protocol" => out.protocol = ProtocolSpec::parse(&val("--protocol")?)?,
            "--scenario" => out.scenario = Some(val("--scenario")?),
            "--workload" => out.workload = WorkloadSpec::parse(&val("--workload")?)?,
            "--nodes" => out.nodes = val("--nodes")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => out.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--duration" => {
                out.duration = Some(val("--duration")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--lambda" => out.lambda = Some(val("--lambda")?.parse().map_err(|e| format!("{e}"))?),
            "--alpha" => out.alpha = Some(val("--alpha")?.parse().map_err(|e| format!("{e}"))?),
            "--trace" => out.scenario = Some(format!("trace:{}", val("--trace")?)),
            "--buffer" => out.buffer = Some(val("--buffer")?.parse().map_err(|e| format!("{e}"))?),
            "--run-threads" => {
                out.run_threads = Some(val("--run-threads")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--drain" => out.ring_drain = CommonArgs::parse_drain(&val("--drain")?)?,
            "--progress-step" => {
                out.progress_step = val("--progress-step")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--probe" => out.probes.push(ProbeSpec::parse(&val("--probe")?)?),
            "--record" => out.probes.push(ProbeSpec::parse(&format!(
                "eventlog:path={}",
                val("--record")?
            ))?),
            "--replay" => out.replay = Some(val("--replay")?),
            "--store" => out.store = Some(val("--store")?),
            "--no-store" => out.no_store = true,
            "--out" => out.outs.push(OutputSpec::parse(&val("--out")?)?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    // The shorthand flags fold into the spec *through the grammar*, so they
    // get the same parse-time validation as `--protocol` (a zero quota or a
    // quota on epidemic errors here, not deep in router construction), and
    // they only apply when given, so `--protocol eer:lambda=8` is never
    // silently reset to a default.
    let fold = |spec: &ProtocolSpec, key: &str, value: String| -> Result<ProtocolSpec, String> {
        let shown = spec.to_string();
        let sep = if shown.contains(':') { ',' } else { ':' };
        ProtocolSpec::parse(&format!("{shown}{sep}{key}={value}"))
    };
    if let Some(l) = out.lambda {
        out.protocol = fold(&out.protocol, "lambda", l.to_string())?;
    }
    if let Some(a) = out.alpha {
        out.protocol = fold(&out.protocol, "alpha", a.to_string())?;
    }
    Ok(Some(out))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    if let Some(path) = &args.replay {
        replay_report(path, &args);
        return;
    }

    let scenario =
        match ScenarioSpec::parse(args.scenario.as_deref().unwrap_or("paper"), args.nodes) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
    if args.duration.is_some() && scenario.default_duration().is_none() {
        eprintln!("--duration cannot be combined with trace replay: a replayed trace runs at its recorded horizon");
        std::process::exit(2);
    }

    let mut spec = RunSpec::on(
        args.protocol.kind().name(),
        scenario.clone(),
        args.protocol.clone(),
    )
    .with_workload(args.workload.clone())
    .with_probes(args.probes.clone());
    if let Some(b) = args.buffer {
        spec = spec.with_buffer(b);
    }
    if let Some(d) = args.duration {
        // Record the override in the spec so the report's cell key carries
        // the true horizon.
        spec = spec.with_duration(d);
    }
    if let Some(t) = args.run_threads {
        spec = spec.with_run_threads(t);
    }
    if let Some(c) = args.ring_drain {
        spec = spec.with_ring_drain(c);
    }

    let streams = spec.streams();
    let supply = if streams {
        let threads = spec.effective_run_threads();
        let scan = if threads > 1 {
            format!("sharded contact detection ({threads} threads)")
        } else {
            "single-threaded contact detection".to_string()
        };
        format!("streaming contact supply (the trace is never materialized), {scan}")
    } else {
        "materialized contact trace".to_string()
    };
    println!(
        "protocol {}, scenario {scenario}, workload {}: {supply}",
        args.protocol, args.workload
    );

    // One cell through the shared path: a run recording an event log is
    // never served from (or published to) the store, since the side-effect
    // artifact is the point of the run.
    let store = resolve_store(args.store.as_deref(), args.no_store);
    let cache = ScenarioCache::new();
    let (record, out) = match run_cell(&cache, &spec, args.seed, store.as_ref()) {
        Ok((record, Some(out))) => (record, out),
        Ok((record, None)) => {
            served_report(&spec, record, &args);
            return;
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let (n, duration) = (record.n_nodes, record.duration);
    let wall = std::time::Duration::from_secs_f64(record.wall_s);
    let stats = &out.stats;
    // Both paths generate the workload from the same spec and seed, so the
    // creation times for latency percentiles can be regenerated here without
    // holding onto either path's scenario.
    let created_at: Vec<f64> = spec
        .workload
        .generate(n, duration, args.seed)
        .iter()
        .map(|m| m.create_at.as_secs())
        .collect();
    if streams {
        println!("{n} nodes, {duration:.0} s, {} messages", created_at.len());
    } else {
        let ps = cache.get_spec(&scenario, &args.workload, args.seed, args.duration);
        let ts = ps.scenario.trace.stats();
        println!(
            "{n} nodes, {duration:.0} s, {} contacts (mean duration {:.2} s), {} messages",
            ts.contacts,
            ts.mean_duration,
            created_at.len()
        );
    }

    println!("\n=== {} ===", args.protocol);
    println!("delivery ratio   {:.4}", stats.delivery_ratio());
    println!("latency (mean)   {:.1} s", stats.avg_latency());
    let lats = latencies(stats, &created_at);
    for p in [50.0, 90.0, 99.0] {
        if let Some(v) = percentile(lats.clone(), p) {
            println!("latency (p{p:.0})    {v:.1} s");
        }
    }
    println!("goodput          {:.4}", stats.goodput());
    println!("overhead ratio   {:.2}", stats.overhead_ratio());
    println!("relayed          {}", stats.relayed);
    println!("aborted          {}", stats.aborted);
    println!(
        "drops            buffer {} / ttl {} / protocol {}",
        stats.drops_buffer, stats.drops_ttl, stats.drops_protocol
    );
    println!(
        "control traffic  {:.2} MB",
        stats.control_bytes as f64 / (1024.0 * 1024.0)
    );
    println!("wall time        {wall:.2?}");

    println!(
        "\ndelivery progress (cumulative, every {:.0} s):",
        args.progress_step
    );
    let prog = delivery_progress(stats, duration, args.progress_step);
    for (k, v) in prog.iter().enumerate() {
        if k % 2 == 0 {
            println!("  t={:>7.0}  delivered={v}", k as f64 * args.progress_step);
        }
    }

    // Probe outputs, sampled *during* the run by the observer pipeline.
    if let Some(ts) = &out.timeseries {
        println!("\ntime series (probe, dt = {:.0} s):", ts.dt);
        let stride = ts.samples.len().div_ceil(20).max(1);
        for s in ts.samples.iter().step_by(stride) {
            println!(
                "  t={:>7.0}  dr={:.4} overhead={:>7.2} buffered={:>6} KB ({} msgs)",
                s.t,
                s.delivery_ratio(),
                s.overhead_ratio(),
                s.buffered_bytes / 1024,
                s.buffered_msgs
            );
        }
    }
    if let Some(hist) = &out.latency {
        println!(
            "\nlatency histogram (probe): n={} p50={:.1} p95={:.1} p99={:.1} max={:.1}",
            hist.count, hist.p50, hist.p95, hist.p99, hist.max
        );
        for (i, &n) in hist.buckets.iter().enumerate() {
            if n > 0 {
                let lo = (1u64 << i) - 1;
                let hi = (1u64 << (i + 1)) - 1;
                println!("  [{lo:>5}, {hi:>5}) s  {n}");
            }
        }
    }

    // The machine-readable view of the same run: one record through the
    // shared report pipeline, carrying the probe outputs.
    let mut report = ReportSpec::new(format!("dtnrun: {} on {}", args.protocol, spec.scenario));
    report.push(record);
    if !report.write_all(&args.outs) {
        std::process::exit(1);
    }
}

/// The run was served from the persistent result store: print the
/// record-derived report (stats plus any probe sections that rode along —
/// exact per-message percentiles and the delivery-progress table need the
/// live engine, exactly as in `--replay`) and emit through the pipeline.
fn served_report(spec: &RunSpec, record: RunRecord, args: &Args) {
    println!(
        "protocol {}, scenario {}, workload {}: {} nodes, {:.0} s, seed {} — served from result \
         store in {:.4} s (no simulation; --no-store forces a cold run)",
        args.protocol,
        spec.scenario,
        args.workload,
        record.n_nodes,
        record.duration,
        record.seed,
        record.wall_s
    );

    let stats = &record.stats;
    println!("\n=== {} (served from store) ===", args.protocol);
    println!("delivery ratio   {:.4}", stats.delivery_ratio());
    println!("latency (mean)   {:.1} s", stats.avg_latency());
    println!("goodput          {:.4}", stats.goodput());
    println!("overhead ratio   {:.2}", stats.overhead_ratio());
    println!("relayed          {}", stats.relayed);
    println!("aborted          {}", stats.aborted);
    println!(
        "drops            buffer {} / ttl {} / protocol {}",
        stats.drops_buffer, stats.drops_ttl, stats.drops_protocol
    );
    println!("control traffic  {:.2} MB", stats.control_mb());

    if let Some(ts) = &record.timeseries {
        println!("\ntime series (stored probe, dt = {:.0} s):", ts.dt);
        let stride = ts.samples.len().div_ceil(20).max(1);
        for s in ts.samples.iter().step_by(stride) {
            println!(
                "  t={:>7.0}  dr={:.4} overhead={:>7.2} buffered={:>6} KB ({} msgs)",
                s.t,
                s.delivery_ratio(),
                s.overhead_ratio(),
                s.buffered_bytes / 1024,
                s.buffered_msgs
            );
        }
    }
    if let Some(hist) = &record.latency {
        println!(
            "\nlatency histogram (stored probe): n={} p50={:.1} p95={:.1} p99={:.1} max={:.1}",
            hist.count, hist.p50, hist.p95, hist.p99, hist.max
        );
    }

    let mut report = ReportSpec::new(format!("dtnrun: {} on {}", args.protocol, spec.scenario));
    report.push(record);
    if !report.write_all(&args.outs) {
        std::process::exit(1);
    }
}

/// `--replay PATH`: fold the report out of a recorded artifact — the engine
/// never runs. The workload is not regenerated here, so the sections that
/// need per-message creation times (exact percentiles from `latencies`,
/// the delivery-progress table) come from the probes instead: attach
/// `--probe latency` / `--probe timeseries` to get them, bitwise identical
/// to the recorded live run.
fn replay_report(path: &str, args: &Args) {
    let record = match replay_artifact(std::path::Path::new(path), &args.probes) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    println!(
        "replaying {path}: protocol {}, scenario {}, workload {}: {} nodes, {:.0} s, seed {}",
        record.protocol,
        record.scenario,
        record.workload,
        record.n_nodes,
        record.duration,
        record.seed
    );

    let stats = &record.stats;
    println!("\n=== {} (replayed) ===", record.protocol);
    println!("delivery ratio   {:.4}", stats.delivery_ratio());
    println!("latency (mean)   {:.1} s", stats.avg_latency());
    println!("goodput          {:.4}", stats.goodput());
    println!("overhead ratio   {:.2}", stats.overhead_ratio());
    println!("relayed          {}", stats.relayed);
    println!("aborted          {}", stats.aborted);
    println!(
        "drops            buffer {} / ttl {} / protocol {}",
        stats.drops_buffer, stats.drops_ttl, stats.drops_protocol
    );
    println!("control traffic  {:.2} MB", stats.control_mb());

    if let Some(ts) = &record.timeseries {
        println!("\ntime series (replayed probe, dt = {:.0} s):", ts.dt);
        let stride = ts.samples.len().div_ceil(20).max(1);
        for s in ts.samples.iter().step_by(stride) {
            println!(
                "  t={:>7.0}  dr={:.4} overhead={:>7.2} buffered={:>6} KB ({} msgs)",
                s.t,
                s.delivery_ratio(),
                s.overhead_ratio(),
                s.buffered_bytes / 1024,
                s.buffered_msgs
            );
        }
    }
    if let Some(hist) = &record.latency {
        println!(
            "\nlatency histogram (replayed probe): n={} p50={:.1} p95={:.1} p99={:.1} max={:.1}",
            hist.count, hist.p50, hist.p95, hist.p99, hist.max
        );
    }

    let mut report = ReportSpec::new(format!("dtnrun replay: {path}"));
    report.push(record);
    if !report.write_all(&args.outs) {
        std::process::exit(1);
    }
}
