//! Command-line entry of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --seed <n> --write-pins
//! ```
//!
//! With `--trace 0` the workload repeats until `--seconds` have passed, at
//! least three times, and the end-to-end metrics are the medians over
//! repetitions (the peak resident set is the first repetition's, as one
//! run of the workload in a fresh process would see it). With `--trace 1`
//! it runs twice untraced and once traced and prints the per-layer
//! metrics. Either way every cell's output digest is checked,
//! and the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is 0 only
//! when every cell passed.

use perfbench::digest::{cell_name, digest, Pins};
use perfbench::sys::peak_rss_mb;
use perfbench::traced::run_traced;
use perfbench::unit_of;
use perfbench::workloads::{
    reference_records, run_untraced, Rep, Workload, DEFAULT_SEED, HELD_OUT_SEED,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <protocols-n300|city-stream-n30k|sweep-mixed> \
                     --seed <n> [--seconds <s>] [--trace <0|1>] [--write-pins]";

/// Untraced repetitions per run at least: with three, the median is not
/// moved by one outlier, such as a first repetition in a cold process.
const MIN_REPS: usize = 3;
/// Untraced repetitions a traced run's overhead is measured against.
const TRACE_BASE_REPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 20.0;
    let mut trace = false;
    let mut write_pins = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                if seed == 0 {
                    return Err("--seed must be at least 1".into());
                }
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(format!(
                        "--seconds must be a finite count of seconds, got {seconds}"
                    ));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--write-pins" => write_pins = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        write_pins,
    })
}

/// Checks every repetition's cells against the pins and against the first
/// repetition, and counts cells attempted and failed.
struct Checker {
    workload: Workload,
    pins: Pins,
    /// Whether every cell must have a pin (the pinned seeds; `sweep-mixed`
    /// runs the same cells at every seed).
    must_pin: bool,
    reference: Option<Vec<u64>>,
    attempted: usize,
    failed: usize,
}

impl Checker {
    fn check(&mut self, what: &str, records: &[dtn_bench::RunRecord]) {
        let expected = self.workload.cells();
        self.attempted += expected;
        if records.len() != expected {
            eprintln!("{what}: {} cells, expected {expected}", records.len());
            self.failed += expected;
            return;
        }
        let digests: Vec<u64> = records.iter().map(digest).collect();
        let mut bad = 0;
        for (k, (r, &d)) in records.iter().zip(&digests).enumerate() {
            let name = cell_name(r);
            let pin_ok = match self.pins.get(&name) {
                Some(p) => p == d,
                None => !self.must_pin,
            };
            let repeat_ok = self.reference.as_ref().is_none_or(|first| first[k] == d);
            if !(pin_ok && repeat_ok) {
                if bad < 5 {
                    eprintln!(
                        "{what}: cell `{name}` digest {d:016x} (pinned {}, first repetition {})",
                        self.pins
                            .get(&name)
                            .map_or("none".to_string(), |p| format!("{p:016x}")),
                        self.reference
                            .as_ref()
                            .map_or("this one".to_string(), |f| format!("{:016x}", f[k]))
                    );
                }
                bad += 1;
            }
        }
        self.failed += bad;
        self.reference.get_or_insert(digests);
    }

    fn fail_all(&mut self, what: &str, why: &str) {
        eprintln!("{what} failed: {why}");
        self.attempted += self.workload.cells();
        self.failed += self.workload.cells();
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(out) => out,
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panicked".into())),
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn print_result(checker: &Checker, metrics: &[(&str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        body.join(", ")
    );
}

fn run(args: &Args) -> Result<i32, String> {
    let w = args.workload;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let pins_path = root.join("pins").join(format!("{}.txt", w.name()));
    let mut pins = Pins::load(&pins_path)?;
    let work_root: PathBuf = root.join("..").join(".bench_work");
    let work = work_root.join(format!("{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    if args.write_pins {
        let records = reference_records(w, args.seed, &work)?;
        pins.pin_and_save(&records)?;
        eprintln!("pinned {} cells in {}", records.len(), pins_path.display());
        let _ = std::fs::remove_dir_all(&work);
        return Ok(0);
    }

    let mut checker = Checker {
        workload: w,
        pins,
        must_pin: matches!(args.seed, DEFAULT_SEED | HELD_OUT_SEED) || w == Workload::SweepMixed,
        reference: None,
        attempted: 0,
        failed: 0,
    };
    let mut reps: Vec<Rep> = Vec::new();
    let mut first_peak_rss_mb = 0.0;
    let start = Instant::now();
    loop {
        let what = format!(
            "{} seed {} repetition {}",
            w.name(),
            args.seed,
            reps.len() + 1
        );
        match guarded(|| run_untraced(w, args.seed, &work)) {
            Ok(rep) => {
                checker.check(&what, &rep.records);
                eprintln!(
                    "{what}: setup {:.3} s, wall {:.3} s, cpu {:.3} s",
                    rep.setup_s, rep.wall_s, rep.cpu_s
                );
                if reps.is_empty() {
                    first_peak_rss_mb = peak_rss_mb();
                }
                reps.push(rep);
            }
            Err(e) => checker.fail_all(&what, &e),
        }
        let done = if args.trace {
            reps.len() >= TRACE_BASE_REPS
        } else {
            reps.len() >= MIN_REPS && start.elapsed().as_secs_f64() >= args.seconds
        };
        if checker.failed > 0 || done {
            break;
        }
    }

    let metrics: Vec<(&str, f64)> = if args.trace {
        let what = format!("{} seed {} traced", w.name(), args.seed);
        match guarded(|| run_traced(w, args.seed, &work)) {
            Ok(traced) => {
                checker.check(&what, &traced.rep.records);
                let spans = work_root.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
                std::fs::write(&spans, &traced.spans_jsonl)
                    .map_err(|e| format!("{}: {e}", spans.display()))?;
                eprintln!(
                    "{what}: wall {:.3} s; spans in {}",
                    traced.rep.wall_s,
                    spans.display()
                );
                let untraced = median(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>());
                let mut m = traced.layers;
                m.push(("trace.overhead_s", traced.rep.wall_s - untraced));
                m
            }
            Err(e) => {
                checker.fail_all(&what, &e);
                Vec::new()
            }
        }
    } else {
        let col = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        let passed = (checker.attempted - checker.failed) as f64 / checker.attempted as f64;
        vec![
            ("setup_s", col(|r| r.setup_s)),
            ("wall_s", col(|r| r.wall_s)),
            ("cpu_s", col(|r| r.cpu_s)),
            ("peak_rss_mb", first_peak_rss_mb),
            ("passed_frac", passed),
        ]
    };
    let _ = std::fs::remove_dir_all(&work);

    eprintln!(
        "{} seed {}: {} cells attempted, {} failed",
        w.name(),
        args.seed,
        checker.attempted,
        checker.failed
    );
    for (name, v) in &metrics {
        eprintln!("  {name:<28} {v:>14.6} {}", unit_of(name));
    }
    print_result(&checker, &metrics);
    Ok(if checker.failed == 0 { 0 } else { 1 })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
