//! Cross-crate integration tests: every executor must produce the same join
//! output on the same workload, across correlations and memory budgets, and
//! the skew-aware executors must actually benefit from skew.

use nocap_suite::joins::{
    naive_join_count, DhhConfig, DhhJoin, GraceHashJoin, NestedBlockJoin, SortMergeJoin,
};
use nocap_suite::model::JoinSpec;
use nocap_suite::nocap::{NocapConfig, NocapJoin};
use nocap_suite::obs::Obs;
use nocap_suite::storage::SimDevice;
use nocap_suite::workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

fn workload(correlation: Correlation, n_r: usize, n_s: usize, seed: u64) -> GeneratedWorkload {
    let device = SimDevice::new_ref();
    synthetic::generate(
        device,
        &SyntheticConfig {
            n_r,
            n_s,
            record_bytes: 128,
            correlation,
            mcv_count: (n_r / 20).max(10),
            seed,
        },
    )
    .expect("workload generation")
}

fn all_outputs(wl: &GeneratedWorkload, spec: JoinSpec) -> Vec<(&'static str, u64)> {
    let device = wl.r.device().clone();
    let mut results = Vec::new();

    device.reset_stats();
    results.push((
        "NOCAP",
        NocapJoin::new(spec, NocapConfig::default())
            .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
            .unwrap()
            .output_records,
    ));
    device.reset_stats();
    results.push((
        "DHH",
        DhhJoin::new(spec, DhhConfig::default())
            .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
            .unwrap()
            .output_records,
    ));
    device.reset_stats();
    results.push((
        "Histojoin",
        DhhJoin::new(spec, DhhConfig::histojoin())
            .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
            .unwrap()
            .output_records,
    ));
    device.reset_stats();
    results.push((
        "GHJ",
        GraceHashJoin::new(spec)
            .run_parallel_obs(&wl.r, &wl.s, 1, &Obs::off())
            .unwrap()
            .output_records,
    ));
    device.reset_stats();
    results.push((
        "SMJ",
        SortMergeJoin::new(spec)
            .run_parallel_obs(&wl.r, &wl.s, 1, &Obs::off())
            .unwrap()
            .output_records,
    ));
    device.reset_stats();
    results.push((
        "NBJ",
        NestedBlockJoin::new(spec)
            .run_obs(&wl.r, &wl.s, &Obs::off())
            .unwrap()
            .output_records,
    ));
    results
}

#[test]
fn every_algorithm_agrees_with_the_naive_join_zipf() {
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, 3_000, 24_000, 1);
    let expected = naive_join_count(&wl.r, &wl.s).unwrap();
    for budget in [24usize, 64, 256] {
        let spec = JoinSpec::paper_synthetic(128, budget);
        for (name, output) in all_outputs(&wl, spec) {
            assert_eq!(output, expected, "{name} disagrees at B = {budget}");
        }
    }
}

#[test]
fn every_algorithm_agrees_with_the_naive_join_uniform() {
    let wl = workload(Correlation::Uniform, 3_000, 24_000, 2);
    let expected = naive_join_count(&wl.r, &wl.s).unwrap();
    let spec = JoinSpec::paper_synthetic(128, 48);
    for (name, output) in all_outputs(&wl, spec) {
        assert_eq!(output, expected, "{name} disagrees");
    }
}

#[test]
fn every_algorithm_agrees_under_extreme_skew() {
    // One key owns half of S.
    let device = SimDevice::new_ref();
    let n_r = 2_000usize;
    let mut counts = vec![4u64; n_r];
    counts[0] = 4 * n_r as u64;
    let wl = {
        let counts_clone = counts.clone();
        nocap_suite::workload::synthetic::materialize(device, &counts_clone, 128, 100, 3).unwrap()
    };
    let expected = naive_join_count(&wl.r, &wl.s).unwrap();
    let spec = JoinSpec::paper_synthetic(128, 32);
    for (name, output) in all_outputs(&wl, spec) {
        assert_eq!(output, expected, "{name} disagrees under extreme skew");
    }
}

#[test]
fn nocap_never_does_more_io_than_ghj() {
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, 4_000, 32_000, 4);
    let device = wl.r.device().clone();
    for budget in [32usize, 64, 128] {
        let spec = JoinSpec::paper_synthetic(128, budget);
        device.reset_stats();
        let nocap_ios = NocapJoin::new(spec, NocapConfig::default())
            .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
            .unwrap()
            .total_ios();
        device.reset_stats();
        let ghj_ios = GraceHashJoin::new(spec)
            .run_parallel_obs(&wl.r, &wl.s, 1, &Obs::off())
            .unwrap()
            .total_ios();
        assert!(
            nocap_ios <= ghj_ios,
            "NOCAP ({nocap_ios}) must not exceed GHJ ({ghj_ios}) at B = {budget}"
        );
    }
}

#[test]
fn nocap_beats_dhh_under_medium_skew_and_small_memory() {
    // The headline claim of the paper, scaled down: with a medium-skew
    // correlation and a limited budget NOCAP needs fewer I/Os than DHH with
    // its fixed 2 % thresholds.
    let wl = workload(Correlation::Zipf { alpha: 0.7 }, 6_000, 48_000, 5);
    let device = wl.r.device().clone();
    let spec = JoinSpec::paper_synthetic(128, 48);
    device.reset_stats();
    let nocap_ios = NocapJoin::new(spec, NocapConfig::default())
        .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
        .unwrap()
        .total_ios();
    device.reset_stats();
    let dhh_ios = DhhJoin::new(spec, DhhConfig::default())
        .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
        .unwrap()
        .total_ios();
    assert!(
        nocap_ios <= dhh_ios,
        "NOCAP ({nocap_ios}) should not lose to DHH ({dhh_ios}) under medium skew"
    );
}

#[test]
fn skew_makes_the_join_cheaper_for_correlation_aware_algorithms() {
    // Same data volume, different correlation: NOCAP should need fewer I/Os
    // on the skewed workload because the hot keys stay in memory.
    let uniform = workload(Correlation::Uniform, 4_000, 32_000, 6);
    let skewed = workload(Correlation::Zipf { alpha: 1.3 }, 4_000, 32_000, 6);
    let spec = JoinSpec::paper_synthetic(128, 64);

    uniform.r.device().reset_stats();
    let uniform_ios = NocapJoin::new(spec, NocapConfig::default())
        .run_parallel_obs(&uniform.r, &uniform.s, &uniform.mcvs, 1, &Obs::off())
        .unwrap()
        .total_ios();
    skewed.r.device().reset_stats();
    let skewed_ios = NocapJoin::new(spec, NocapConfig::default())
        .run_parallel_obs(&skewed.r, &skewed.s, &skewed.mcvs, 1, &Obs::off())
        .unwrap()
        .total_ios();
    assert!(
        skewed_ios < uniform_ios,
        "skew should reduce NOCAP's I/O ({skewed_ios} vs {uniform_ios})"
    );
}
