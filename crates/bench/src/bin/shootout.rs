//! `shootout` — every protocol across scenario families in one
//! deterministic sweep matrix.
//!
//! The paper's figures compare protocols on a single scenario (the bus-city);
//! the shootout puts scenario *families* side-by-side as series: paper
//! bus-city, random waypoint, and (optionally) a replayed trace, each crossed
//! with the selected protocols and node counts. One matrix call drives
//! the whole grid, so the thread count never changes the output and every
//! protocol sees the identical contact process per family.
//!
//! ```text
//! cargo run -p bench --release --bin shootout -- \
//!     [--seeds K] [--nodes a,b,c] [--duration SECS] \
//!     [--protocols eer,cr,...] [--workload paper|hotspot|bursty] \
//!     [--threads N] [--run-threads N] [--drain inline|ring[:CAP]] \
//!     [--trace <path>] [--out json:PATH|csv:PATH|md:PATH ...]
//! ```
//!
//! The shared flags are parsed by `CommonArgs`; the scenario axis is the
//! family list itself, so `--scenario` (and the figure-only `--full`,
//! `--quick`, `--print-settings`) are refused.
//!
//! `--protocols` takes full protocol specs in the `--protocol` grammar, so
//! tuned variants of one protocol can race each other:
//! `--protocols eer:lambda=4,eer:lambda=16,prophet:beta=0.25` (a comma
//! starts a new spec when it is followed by a protocol name; `key=value`
//! segments continue the previous spec). Unknown names list the registry.
//!
//! All output flows through the report pipeline: by default the report is
//! written as `results/shootout.json` + `results/shootout.csv` (`--out`
//! overrides), and a `BENCH_shootout.json` trajectory — per-cell headline
//! means plus runner wall-clock — is always emitted so performance is
//! comparable across code revisions (`reportcheck` validates both).
//!
//! Defaults stay laptop-sized: 2 node counts × 2 seeds on a 2 000 s horizon,
//! plus three *large-n supply cells* — epidemic on the city family at
//! n=1 000, 10 000 and 100 000 on short horizons, the two largest streamed
//! so the contact trace is never materialized — that pin contact-supply
//! throughput in the BENCH trajectory (`--no-large-n` skips them).

use dtn_bench::report::{write_text, CommonArgs, ReportSpec};
use dtn_bench::{
    run_matrix_records_stored, ProtocolKind, ProtocolSpec, RunSpec, ScenarioCache, ScenarioSpec,
};
use std::path::Path;

const USAGE: &str = "usage: shootout [--seeds K] [--nodes a,b,c] [--duration SECS] \
                     [--protocols eer,cr,...] [--workload paper|hotspot|bursty] [--trace <path>] \
                     [--probe timeseries[:dt=SECS]|latency ...] \
                     [--threads N] [--run-threads N] [--drain inline|ring[:CAP]] \
                     [--store DIR|--no-store] \
                     [--out json:PATH|csv:PATH|md:PATH ...] [--no-large-n]\n\
                     \n\
                     --protocols takes full specs (eer:lambda=4,eer:lambda=16,prophet:beta=0.25);\n\
                     a comma starts a new spec when followed by a protocol name.\n\
                     --out routes the report (default: json+csv under results/); the\n\
                     BENCH_shootout.json perf trajectory is always written.\n\
                     --no-large-n skips the city n=1000/10000/100000 supply cells.";

/// Shootout's own flags; everything shared lives in [`CommonArgs`].
struct Args {
    common: CommonArgs,
    protocols: Vec<ProtocolSpec>,
    trace: Option<String>,
    large_n: bool,
}

/// Splits a `--protocols` list into individual spec strings. The separator
/// is a comma, but a comma also separates `key=value` parameters *inside* a
/// spec — so a segment continues the previous spec when it is a parameter
/// (contains `=` with no `name:` prefix before it) and starts a new spec
/// otherwise: `eer:lambda=4,ttl=600,cr` is two specs.
fn split_spec_list(s: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for seg in s.split(',') {
        let is_param = match (seg.find('='), seg.find(':')) {
            (Some(eq), Some(colon)) => colon > eq,
            (Some(_), None) => true,
            _ => false,
        };
        match out.last_mut() {
            Some(prev) if is_param => {
                prev.push(',');
                prev.push_str(seg);
            }
            _ => out.push(seg.to_string()),
        }
    }
    out
}

/// `Ok(None)` means `--help` was requested.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut out = Args {
        common: CommonArgs {
            seeds: 2,
            node_counts: vec![40, 80],
            duration: Some(2_000.0),
            ..CommonArgs::default()
        },
        protocols: [
            ProtocolKind::Eer,
            ProtocolKind::Cr,
            ProtocolKind::Ebr,
            ProtocolKind::SprayAndWait,
            ProtocolKind::Epidemic,
            ProtocolKind::Prophet,
        ]
        .into_iter()
        .map(ProtocolSpec::paper)
        .collect(),
        trace: None,
        large_n: true,
    };
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--protocols" => {
                out.protocols = split_spec_list(&val("--protocols")?)
                    .iter()
                    .map(|s| ProtocolSpec::parse(s))
                    .collect::<Result<_, _>>()?
            }
            "--trace" => {
                let p = val("--trace")?;
                // Fail on typos here, not in a worker thread mid-matrix.
                std::fs::metadata(&p).map_err(|e| format!("cannot read {p}: {e}"))?;
                out.trace = Some(p);
            }
            "--no-large-n" => out.large_n = false,
            "--help" | "-h" => return Ok(None),
            "--scenario" | "--full" | "--quick" | "--print-settings" => {
                return Err(format!("shootout does not take {a} (try --help)"))
            }
            _ => {
                if !out.common.parse_flag(&a, &mut it)? {
                    return Err(format!("unknown flag {a}"));
                }
            }
        }
    }
    out.common = out.common.finish()?;
    if out.protocols.is_empty() {
        return Err("need at least one protocol".into());
    }
    Ok(Some(out))
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
    let common = &args.common;

    // Scenario families to cross with the protocols, each with the shared
    // flags its cells are configured by. A trace family runs at the
    // recording's native horizon and node count, so it contributes one
    // point per protocol rather than one per node count.
    let native = CommonArgs {
        duration: None,
        ..common.clone()
    };
    let generated = |f: fn(u32) -> ScenarioSpec| -> Vec<ScenarioSpec> {
        common.node_counts.iter().map(|&n| f(n)).collect()
    };
    let mut families: Vec<(&str, &CommonArgs, Vec<ScenarioSpec>)> = vec![
        ("paper", common, generated(ScenarioSpec::paper)),
        ("rwp", common, generated(ScenarioSpec::rwp)),
    ];
    if let Some(path) = &args.trace {
        families.push(("trace", &native, vec![ScenarioSpec::trace_path(path)]));
    }

    let mut specs = Vec::new();
    for proto in &args.protocols {
        for (family, shared, scenarios) in &families {
            for scenario in scenarios {
                // Labels carry the resolved spec, so two tuned variants of
                // one protocol fold into distinct series.
                let label = format!("{proto} @ {family}");
                specs.push(shared.configure(RunSpec::on(label, scenario.clone(), proto.clone())));
            }
        }
    }

    let cfg = common.sweep_config();
    eprintln!(
        "shootout: {} protocols x {} families over {:?} nodes x {} seeds ({} cells)",
        args.protocols.len(),
        families.len(),
        common.node_counts,
        cfg.effective_seeds(),
        specs.len()
    );
    // Large-n supply cells: one flooding protocol on the city family at
    // n=1 000, 10 000 and 100 000 on short horizons, so the default shootout
    // stays laptop-sized. They ride in the same matrix; the runner streams
    // the two city-scale cells (the contact trace is never materialized),
    // and the BENCH trajectory tracks contact-supply throughput across
    // revisions.
    if args.large_n {
        let epidemic = ProtocolSpec::paper(ProtocolKind::Epidemic);
        // The n=10⁵ cell runs the sharded scan (8 workers); the smaller
        // cells stay single-threaded, so the trajectory carries both modes.
        for (n, horizon, threads) in [
            (1_000u32, 600.0, 1u32),
            (10_000, 120.0, 1),
            (100_000, 60.0, 8),
        ] {
            let label = if threads > 1 {
                format!("{epidemic} @ city-large (sharded x{threads})")
            } else {
                format!("{epidemic} @ city-large")
            };
            specs.push(
                RunSpec::on(
                    label,
                    ScenarioSpec::city(n, ScenarioSpec::districts_for(n)),
                    epidemic.clone(),
                )
                .with_workload(common.workload.clone())
                .with_duration(horizon)
                .with_run_threads(threads),
            );
        }
    }
    let store = common.open_store();
    let records = run_matrix_records_stored(&ScenarioCache::new(), &specs, cfg, store.as_ref());

    let mut report = ReportSpec::new(format!(
        "Protocol shootout across scenario families ({} workload, {:.0} s horizon)",
        common.workload,
        common.duration.expect("shootout defaults the horizon")
    ));
    report.records = records;

    print!("{}", report.render_table());
    eprintln!();
    let all_written = report
        .write_all(&common.outs_or(&["json:results/shootout.json", "csv:results/shootout.csv"]));

    // The perf trajectory rides along unconditionally: cells + wall-clock,
    // comparable run-over-run.
    let bench_path = Path::new("BENCH_shootout.json");
    match write_text(bench_path, &report.to_bench_json_string("shootout")) {
        Ok(()) => eprintln!("wrote {}", bench_path.display()),
        Err(e) => {
            eprintln!("trajectory write failed: {e}");
            std::process::exit(1);
        }
    }
    if !all_written {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string())).map(|a| a.expect("not --help"))
    }

    #[test]
    fn defaults_stay_laptop_sized() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.common.seeds, 2);
        assert_eq!(a.common.node_counts, [40, 80]);
        assert_eq!(a.common.duration, Some(2000.0));
        assert!(a.large_n);
    }

    /// Figure-only flags are refused by name, and bad horizons fail before
    /// anything runs or `BENCH_shootout.json` is written.
    #[test]
    fn refuses_figure_flags_and_bad_horizons() {
        for args in [
            &["--scenario", "rwp"][..],
            &["--full"],
            &["--quick"],
            &["--print-settings"],
        ] {
            match parse(args) {
                Ok(_) => panic!("{args:?} was accepted"),
                Err(e) => assert!(e.contains(args[0]), "{args:?}: {e}"),
            }
        }
        for bad in ["-5", "nan", "0"] {
            assert!(
                parse(&["--duration", bad, "--no-large-n"]).is_err(),
                "{bad}"
            );
        }
    }
}
