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

use dtn_bench::report::{CommonArgs, ReportSpec, RunRecord};
use dtn_bench::{replay_artifact, run_cell, ProtocolSpec, RunSpec, ScenarioCache};
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
  --progress-step SECS delivery-progress bucket (default 1000; > 0)
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

The sweep-only flags --seeds, --threads, --full, --quick and
--print-settings are refused: dtnrun runs one cell.

examples:
  dtnrun --protocol eer:lambda=8 --scenario rwp --nodes 40
  dtnrun --protocol cr --workload hotspot --duration 2000
  dtnrun --protocol prophet:beta=0.25,gamma=0.99 --scenario trace:contacts.trace
  dtnrun --protocol eer --probe timeseries:dt=60 --out json:results/run.json
  dtnrun --protocol eer --record results/run.trace --out json:results/live.json
  dtnrun --replay results/run.trace --probe latency --out json:results/replay.json";

/// dtnrun's own flags; the shared ones (scenario, workload, nodes,
/// duration, probes, outputs, execution knobs, store) live in [`CommonArgs`].
struct Args {
    common: CommonArgs,
    protocol: ProtocolSpec,
    seed: u64,
    lambda: Option<u32>,
    alpha: Option<f64>,
    buffer: Option<u64>,
    progress_step: f64,
    /// Replay a recorded TRACE/1.0 artifact instead of running the engine.
    replay: Option<String>,
}

/// `Ok(None)` means `--help` was requested.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut out = Args {
        common: CommonArgs {
            node_counts: vec![40],
            ..CommonArgs::default()
        },
        protocol: ProtocolSpec::parse("eer").expect("default spec"),
        seed: 1,
        lambda: None,
        alpha: None,
        buffer: None,
        progress_step: 1_000.0,
        replay: None,
    };
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--protocol" => out.protocol = ProtocolSpec::parse(&val("--protocol")?)?,
            "--seed" => out.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--lambda" => out.lambda = Some(val("--lambda")?.parse().map_err(|e| format!("{e}"))?),
            "--alpha" => out.alpha = Some(val("--alpha")?.parse().map_err(|e| format!("{e}"))?),
            "--buffer" => out.buffer = Some(val("--buffer")?.parse().map_err(|e| format!("{e}"))?),
            "--progress-step" => {
                let step: f64 = val("--progress-step")?
                    .parse()
                    .map_err(|e| format!("--progress-step: {e}"))?;
                if !(step.is_finite() && step > 0.0) {
                    return Err(format!(
                        "--progress-step: need a positive bucket, got {step}"
                    ));
                }
                out.progress_step = step;
            }
            // Sugar over the shared flags, so their values are checked there.
            "--trace" => {
                let scenario = format!("trace:{}", val("--trace")?);
                out.common
                    .parse_flag("--scenario", &mut std::iter::once(scenario))?;
            }
            "--record" => {
                let probe = format!("eventlog:path={}", val("--record")?);
                out.common
                    .parse_flag("--probe", &mut std::iter::once(probe))?;
            }
            "--replay" => out.replay = Some(val("--replay")?),
            "--help" | "-h" => return Ok(None),
            "--seeds" | "--threads" | "--full" | "--quick" | "--print-settings" => {
                return Err(format!(
                    "dtnrun does not take {a}: it runs one cell (try --help)"
                ))
            }
            _ => {
                if !out.common.parse_flag(&a, &mut it)? {
                    return Err(format!("unknown flag {a} (try --help)"));
                }
            }
        }
    }
    out.common = out.common.finish()?;
    if out.common.node_counts.len() > 1 {
        return Err("dtnrun does not take a --nodes list: it runs one cell (try --help)".into());
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

/// Prints the sections every record carries — the headline stats, then
/// whichever probe sections rode along — identically for a live, a
/// store-served and a replayed run.
fn print_record(heading: &str, record: &RunRecord) {
    let stats = &record.stats;
    println!("\n=== {heading} ===");
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
    println!(
        "wall time        {:.2?}",
        std::time::Duration::from_secs_f64(record.wall_s)
    );

    if let Some(ts) = &record.timeseries {
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
    if let Some(hist) = &record.latency {
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
}

/// Emits one record through the shared report pipeline (`--out`).
fn write_report(title: String, record: RunRecord, args: &Args) {
    let mut report = ReportSpec::new(title);
    report.push(record);
    if !report.write_all(&args.common.outs) {
        std::process::exit(1);
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
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

    let common = &args.common;
    let scenario = common.scenario_for(common.node_counts[0]);
    let mut spec = common.configure(RunSpec::on(
        args.protocol.kind().name(),
        scenario.clone(),
        args.protocol.clone(),
    ));
    if let Some(b) = args.buffer {
        spec = spec.with_buffer(b);
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
        args.protocol, common.workload
    );

    // One cell through the shared path: a run recording an event log is
    // never served from (or published to) the store, since the side-effect
    // artifact is the point of the run.
    let store = common.open_store();
    let cache = ScenarioCache::new();
    let title = format!("dtnrun: {} on {}", args.protocol, spec.scenario);
    let (record, out) = match run_cell(&cache, &spec, args.seed, store.as_ref()) {
        Ok((record, Some(out))) => (record, out),
        Ok((record, None)) => {
            // Served from the persistent result store: the record-derived
            // report only — exact per-message percentiles and the
            // delivery-progress table need the live engine, as in --replay.
            println!(
                "protocol {}, scenario {}, workload {}: {} nodes, {:.0} s, seed {} — served \
                 from result store (no simulation; --no-store forces a cold run)",
                args.protocol,
                spec.scenario,
                common.workload,
                record.n_nodes,
                record.duration,
                record.seed
            );
            print_record(&format!("{} (served from store)", args.protocol), &record);
            write_report(title, record, &args);
            return;
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let (n, duration) = (record.n_nodes, record.duration);
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
        let ps = cache.get_spec(&scenario, &common.workload, args.seed, common.duration);
        let ts = ps.scenario.trace.stats();
        println!(
            "{n} nodes, {duration:.0} s, {} contacts (mean duration {:.2} s), {} messages",
            ts.contacts,
            ts.mean_duration,
            created_at.len()
        );
    }

    print_record(&args.protocol.to_string(), &record);

    // The live-only sections: exact per-message percentiles and the
    // delivery-progress table need the engine's per-message stats.
    println!();
    let lats = latencies(stats, &created_at);
    for p in [50.0, 90.0, 99.0] {
        if let Some(v) = percentile(lats.clone(), p) {
            println!("latency (p{p:.0})    {v:.1} s");
        }
    }
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

    // The machine-readable view of the same run: one record through the
    // shared report pipeline, carrying the probe outputs.
    write_report(title, record, &args);
}

/// `--replay PATH`: fold the report out of a recorded artifact — the engine
/// never runs. The workload is not regenerated here, so the sections that
/// need per-message creation times (exact percentiles from `latencies`,
/// the delivery-progress table) come from the probes instead: attach
/// `--probe latency` / `--probe timeseries` to get them, bitwise identical
/// to the recorded live run.
fn replay_report(path: &str, args: &Args) {
    let record = match replay_artifact(std::path::Path::new(path), &args.common.probes) {
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
    print_record(&format!("{} (replayed)", record.protocol), &record);
    write_report(format!("dtnrun replay: {path}"), record, args);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string())).map(|a| a.expect("not --help"))
    }

    fn refusal(args: &[&str]) -> String {
        match parse(args) {
            Ok(_) => panic!("{args:?} was accepted"),
            Err(e) => e,
        }
    }

    /// The sweep-only shared flags are refused by name, before anything runs.
    #[test]
    fn refuses_sweep_flags() {
        for args in [
            &["--seeds", "2"][..],
            &["--threads", "2"],
            &["--full"],
            &["--quick"],
            &["--print-settings"],
        ] {
            assert!(refusal(args).contains(args[0]), "{args:?}");
        }
        assert!(refusal(&["--nodes", "40,80"]).contains("--nodes"));
        assert_eq!(parse(&["--nodes", "80"]).unwrap().common.node_counts, [80]);
    }

    /// Horizons and progress buckets that are not finite and positive fail
    /// at parse time, before the run and its report.
    #[test]
    fn rejects_bad_horizons_and_buckets() {
        for bad in ["nan", "-100", "0", "inf"] {
            refusal(&["--duration", bad]);
            refusal(&["--progress-step", bad]);
        }
        assert_eq!(
            parse(&["--progress-step", "250"]).unwrap().progress_step,
            250.0
        );
    }

    /// `--trace` and `--record` are sugar over `--scenario` and `--probe`,
    /// checked by the shared parser.
    #[test]
    fn sugar_flags_use_the_shared_checks() {
        refusal(&["--trace", "/nonexistent/contacts.trace"]);
        refusal(&["--trace", "/dev/null", "--duration", "100"]);
        let a = parse(&["--trace", "/dev/null", "--record", "run.trace"]).unwrap();
        assert_eq!(a.common.scenario, "trace:/dev/null");
        assert_eq!(a.common.probes.len(), 1);
    }
}
