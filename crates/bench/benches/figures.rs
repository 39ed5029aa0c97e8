//! Scaled-down figure regeneration as Criterion benches, so
//! `cargo bench --workspace` exercises the full experiment pipeline for
//! every figure of the paper (fig. 2: protocol comparison; figs. 3–4:
//! λ sweeps). The full-scale series are produced by the `fig2` binary and
//! the `ablation fig3` / `ablation fig4` presets; these benches use a
//! 1 500 s horizon at N = 40 to stay fast.

use criterion::{criterion_group, criterion_main, Criterion};
use dtn_bench::{BuiltScenario, ProtocolKind, ProtocolSpec, ScenarioSpec, WorkloadSpec};
use dtn_sim::{SimConfig, Simulation};
use std::hint::black_box;
use std::sync::Arc;

fn scaled() -> BuiltScenario {
    BuiltScenario::from_specs(
        &ScenarioSpec::paper(40),
        &WorkloadSpec::PaperUniform,
        1,
        Some(1500.0),
    )
    .expect("paper scenario build cannot fail")
}

fn run(
    ps: &BuiltScenario,
    proto: &ProtocolSpec,
    communities: Option<&Arc<ce_core::CommunityMap>>,
) -> u64 {
    let stats = Simulation::new(
        &ps.scenario.trace,
        ps.workload.as_ref().clone(),
        SimConfig::paper(ps.seed),
        |id, n| proto.make_router(id, n, communities),
    )
    .run();
    stats.delivered
}

/// Figure 2 (scaled): one bench per compared protocol.
fn fig2_comparison(c: &mut Criterion) {
    let ps = scaled();
    let communities = Arc::new(ce_core::CommunityMap::new(ps.scenario.communities.clone()));
    let mut g = c.benchmark_group("fig2_comparison_scaled");
    for kind in ProtocolKind::FIG2 {
        let proto = ProtocolSpec::paper(kind);
        g.bench_function(kind.name(), |b| {
            b.iter(|| black_box(run(&ps, &proto, Some(&communities))))
        });
    }
    g.finish();
}

/// Figure 3 (scaled): EER λ sweep.
fn fig3_eer_lambda(c: &mut Criterion) {
    let ps = scaled();
    let mut g = c.benchmark_group("fig3_eer_lambda_scaled");
    for lambda in [6u32, 8, 10, 12] {
        let proto = ProtocolSpec::paper(ProtocolKind::Eer).with_lambda(lambda);
        g.bench_function(format!("lambda_{lambda}"), |b| {
            b.iter(|| black_box(run(&ps, &proto, None)))
        });
    }
    g.finish();
}

/// Figure 4 (scaled): CR λ sweep.
fn fig4_cr_lambda(c: &mut Criterion) {
    let ps = scaled();
    let communities = Arc::new(ce_core::CommunityMap::new(ps.scenario.communities.clone()));
    let mut g = c.benchmark_group("fig4_cr_lambda_scaled");
    for lambda in [6u32, 8, 10, 12] {
        let proto = ProtocolSpec::paper(ProtocolKind::Cr).with_lambda(lambda);
        g.bench_function(format!("lambda_{lambda}"), |b| {
            b.iter(|| black_box(run(&ps, &proto, Some(&communities))))
        });
    }
    g.finish();
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = fig2_comparison, fig3_eer_lambda, fig4_cr_lambda
}
criterion_main!(figures);
