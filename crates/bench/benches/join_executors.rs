//! Criterion benchmark: end-to-end executor comparison on a small skewed
//! workload (a micro version of Figure 8's latency panels).
//!
//! The workload is deliberately small (2 K × 16 K records) so that
//! `cargo bench` completes quickly; the full-scale sweeps live in the
//! `exp_fig*` binaries.

use criterion::{criterion_group, criterion_main, Criterion};

use nocap::{NocapConfig, NocapJoin};
use nocap_joins::{DhhConfig, DhhJoin, GraceHashJoin, SortMergeJoin};
use nocap_model::JoinSpec;
use nocap_obs::Obs;
use nocap_storage::SimDevice;
use nocap_workload::{synthetic, Correlation, SyntheticConfig};

fn workload() -> (nocap_workload::GeneratedWorkload, JoinSpec) {
    let device = SimDevice::new_ref();
    let config = SyntheticConfig {
        n_r: 2_000,
        n_s: 16_000,
        record_bytes: 128,
        correlation: Correlation::Zipf { alpha: 1.0 },
        mcv_count: 100,
        seed: 99,
    };
    let wl = synthetic::generate(device, &config).expect("workload");
    let spec = JoinSpec::paper_synthetic(128, 64);
    (wl, spec)
}

fn bench_executors(c: &mut Criterion) {
    let (wl, spec) = workload();
    let mut group = c.benchmark_group("join_executors");
    group.sample_size(10);
    group.bench_function("nocap", |b| {
        b.iter(|| {
            wl.r.device().reset_stats();
            NocapJoin::new(spec, NocapConfig::default())
                .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
                .unwrap()
                .output_records
        })
    });
    group.bench_function("dhh", |b| {
        b.iter(|| {
            wl.r.device().reset_stats();
            DhhJoin::new(spec, DhhConfig::default())
                .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
                .unwrap()
                .output_records
        })
    });
    group.bench_function("ghj", |b| {
        b.iter(|| {
            wl.r.device().reset_stats();
            GraceHashJoin::new(spec)
                .run_parallel_obs(&wl.r, &wl.s, 1, &Obs::off())
                .unwrap()
                .output_records
        })
    });
    group.bench_function("smj", |b| {
        b.iter(|| {
            wl.r.device().reset_stats();
            SortMergeJoin::new(spec)
                .run_parallel_obs(&wl.r, &wl.s, 1, &Obs::off())
                .unwrap()
                .output_records
        })
    });
    group.finish();
}

criterion_group!(benches, bench_executors);
criterion_main!(benches);
