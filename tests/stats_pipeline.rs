//! End-to-end tests of the streaming-statistics path: scan S once through a
//! budgeted `StatsCollector`, plan NOCAP from the sketch summary alone (no
//! `CorrelationTable` oracle anywhere), execute, and compare against the
//! oracle-planned run. All seeds are fixed, so these tests are deterministic.

use nocap_suite::model::JoinSpec;
use nocap_suite::nocap::{NocapConfig, NocapJoin};
use nocap_suite::obs::Obs;
use nocap_suite::par::page_shards;
use nocap_suite::stats::{StatsCollector, StatsConfig};
use nocap_suite::storage::{BufferPool, SimDevice};
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

/// Collects a sketch summary over S with `pages` pages reserved from a pool
/// capped at the operator's own buffer budget.
fn collect(
    wl: &GeneratedWorkload,
    spec: &JoinSpec,
    pages: usize,
) -> nocap_suite::stats::StatsSummary {
    let pool = BufferPool::new(spec.buffer_pages);
    let mut collector = StatsCollector::with_budget(&pool, pages, spec.page_size).unwrap();
    collector.consume_keys(wl.stream_keys()).unwrap();
    collector.finish()
}

#[test]
fn sketch_planned_join_is_correct() {
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, 3_000, 24_000, 11);
    let spec = JoinSpec::paper_synthetic(128, 48);
    let summary = collect(&wl, &spec, 4);
    assert_eq!(summary.stream_len(), 24_000);

    let device = wl.r.device().clone();
    device.reset_stats();
    let join = NocapJoin::new(spec, NocapConfig::default());
    let sketch_run = join
        .run_parallel_with_collected_stats_obs(&wl.r, &wl.s, &summary, 1, &Obs::off())
        .unwrap();

    device.reset_stats();
    let oracle_run = join
        .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
        .unwrap();
    assert_eq!(
        sketch_run.output_records, oracle_run.output_records,
        "sketch-planned NOCAP must produce the same join output"
    );
}

#[test]
fn sketch_planned_io_is_within_bounded_factor_of_oracle_on_zipf() {
    // The acceptance bar: at a sketch budget of >= 1 % of ||R|| pages, the
    // sketch-planned join's I/O stays within 1.5x of the oracle-planned
    // join's on a Zipf(1.0) workload. Deterministic seed.
    let n_r = 6_000;
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, n_r, 48_000, 42);
    let spec = JoinSpec::paper_synthetic(128, 64);
    let pages_r = spec.pages_r(n_r);
    let budget = (pages_r / 100).max(2); // 1 % of ||R||, at least 2 pages

    let summary = collect(&wl, &spec, budget);
    let device = wl.r.device().clone();
    let join = NocapJoin::new(spec, NocapConfig::default());

    device.reset_stats();
    let sketch_ios = join
        .run_parallel_with_collected_stats_obs(&wl.r, &wl.s, &summary, 1, &Obs::off())
        .unwrap()
        .total_ios();
    device.reset_stats();
    let oracle_ios = join
        .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
        .unwrap()
        .total_ios();

    assert!(
        (sketch_ios as f64) <= 1.5 * oracle_ios as f64,
        "sketch-planned I/O ({sketch_ios}) must stay within 1.5x of \
         oracle-planned ({oracle_ios}) at a {budget}-page sketch budget"
    );
}

#[test]
fn more_sketch_budget_never_hurts_much() {
    // Plan quality should be (weakly) monotone in sketch budget: a larger
    // summary can only sharpen the MCV list. Allow 5 % slack for plan-grid
    // discretization.
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, 4_000, 32_000, 7);
    let spec = JoinSpec::paper_synthetic(128, 48);
    let device = wl.r.device().clone();
    let join = NocapJoin::new(spec, NocapConfig::default());
    let mut prev = u64::MAX;
    // Capped below B - 2 = 46: collection must fit the operator's budget.
    for budget in [1usize, 4, 16, 44] {
        let summary = collect(&wl, &spec, budget);
        device.reset_stats();
        let ios = join
            .run_parallel_with_collected_stats_obs(&wl.r, &wl.s, &summary, 1, &Obs::off())
            .unwrap()
            .total_ios();
        assert!(
            ios as f64 <= prev as f64 * 1.05,
            "I/O should not grow with sketch budget ({budget} pages: {ios} vs {prev})"
        );
        prev = ios.max(1);
    }
}

#[test]
fn collect_and_run_is_self_contained_and_accounts_the_stats_scan() {
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, 2_000, 16_000, 3);
    let spec = JoinSpec::paper_synthetic(128, 32);
    let device = wl.r.device().clone();
    let join = NocapJoin::new(spec, NocapConfig::default());

    device.reset_stats();
    let report = join
        .collect_and_run_parallel_obs(&wl.r, &wl.s, 4, 1, &Obs::off())
        .unwrap();
    let total_device_ios = device.stats().reads() + device.stats().writes();

    // Output correct...
    device.reset_stats();
    let oracle = join
        .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
        .unwrap();
    assert_eq!(report.output_records, oracle.output_records);
    // ...and the one-pass statistics scan of S is visible in the I/O trace:
    // at least ||S|| reads beyond what the join itself reports.
    assert!(
        total_device_ios >= report.total_ios() + wl.s.num_pages() as u64,
        "stats collection must be charged as I/O (device {total_device_ios}, \
         join {}, ||S|| {})",
        report.total_ios(),
        wl.s.num_pages()
    );
}

#[test]
fn sketch_planning_stays_within_the_pr1_bound_across_a_seeded_grid_under_collect_parallel() {
    // The seeded differential planner test: sketch-planned vs oracle-planned
    // NOCAP across a grid of zipf alphas and memory budgets, with the
    // summary produced by the *sharded parallel* collector. The acceptance
    // bar is PR 1's: at a ~2 % of ||R|| statistics budget the modeled-I/O
    // ratio stays within 1.2x of the oracle at every grid point. Seeds are
    // fixed and the sharded summary is thread-count invariant, so this is
    // fully deterministic.
    let n_r = 6_000;
    for alpha in [0.8f64, 0.9, 1.0, 1.1, 1.2, 1.3] {
        for buffer_pages in [48usize, 96] {
            let wl = workload(Correlation::Zipf { alpha }, n_r, 48_000, 42);
            let spec = JoinSpec::paper_synthetic(128, buffer_pages);
            let pages = (spec.pages_r(n_r) / 50).max(2);
            let pool = BufferPool::new(spec.buffer_pages);
            let summary = StatsCollector::collect_parallel_with_budget(
                &pool,
                pages,
                spec.page_size,
                &wl.s,
                4,
            )
            .expect("sharded collection");
            drop(pool);

            let device = wl.r.device().clone();
            let join = NocapJoin::new(spec, NocapConfig::default());
            device.reset_stats();
            let sketch = join
                .run_parallel_with_collected_stats_obs(&wl.r, &wl.s, &summary, 1, &Obs::off())
                .expect("sketch-planned run");
            device.reset_stats();
            let oracle = join
                .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
                .expect("oracle run");
            assert_eq!(
                sketch.output_records, oracle.output_records,
                "alpha={alpha}, B={buffer_pages}: output must match"
            );
            let ratio = sketch.total_ios() as f64 / oracle.total_ios().max(1) as f64;
            assert!(
                ratio <= 1.2,
                "alpha={alpha}, B={buffer_pages}: sketch-planned I/O ratio {ratio:.3} \
                 exceeds the 1.2x PR 1 bound ({} vs {})",
                sketch.total_ios(),
                oracle.total_ios()
            );
        }
    }
}

#[test]
fn parallel_and_sequential_collection_plan_identically() {
    // collect_parallel at any thread count and the (sharded, 1-thread)
    // collection inside collect_and_run_parallel_obs produce the same
    // summary, so the
    // downstream plan and modeled I/O must be identical too.
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, 4_000, 32_000, 9);
    let spec = JoinSpec::paper_synthetic(128, 48);
    let join = NocapJoin::new(spec, NocapConfig::default());
    let device = wl.r.device().clone();
    let run_with_threads = |threads: usize| {
        let pool = BufferPool::new(spec.buffer_pages);
        let summary =
            StatsCollector::collect_parallel_with_budget(&pool, 3, spec.page_size, &wl.s, threads)
                .expect("collection");
        drop(pool);
        device.reset_stats();
        join.run_parallel_with_collected_stats_obs(&wl.r, &wl.s, &summary, 1, &Obs::off())
            .expect("sketch run")
    };
    let baseline = run_with_threads(1);
    for threads in [2usize, 4, 8] {
        let run = run_with_threads(threads);
        assert_eq!(run.output_records, baseline.output_records);
        assert_eq!(
            run.total_ios(),
            baseline.total_ios(),
            "plan diverged at {threads} collection threads"
        );
    }
}

#[test]
fn shard_summaries_are_insensitive_to_record_and_morsel_order() {
    // The latent footgun this pins shut: `consume_keys` over a generator's
    // key stream and a page scan of the loaded relation can present the
    // same multiset in different orders, and the legacy (first-key
    // anchored, single-sketch) collector could summarize them differently.
    // Shard collectors make every component a function of the multiset in
    // the exact regime (distinct keys within the MCV capacity), so any
    // record order — and any morsel processing order — must produce the
    // identical summary.
    let wl = workload(Correlation::Zipf { alpha: 1.0 }, 800, 6_400, 13);
    let config = StatsConfig::default(); // 1024 counters >= 800 distinct keys
    let mut by_scan = StatsCollector::new_shard(config);
    by_scan.consume(wl.s.scan()).unwrap();
    let by_scan = by_scan.finish();

    // Same keys through `consume_keys`, in reversed order.
    let mut keys: Vec<u64> = wl.stream_keys().map(|k| k.unwrap()).collect();
    keys.reverse();
    let mut by_keys = StatsCollector::new_shard(config);
    by_keys.consume_keys(keys.into_iter().map(Ok)).unwrap();
    assert_eq!(
        by_keys.finish(),
        by_scan,
        "a reversed key stream must summarize identically to the page scan"
    );

    // Page morsels consumed in shuffled orders into one collector.
    let morsels = page_shards(wl.s.num_pages(), 8);
    for order in [
        [7usize, 3, 5, 1, 6, 0, 2, 4],
        [4, 2, 0, 6, 1, 5, 3, 7],
        [0, 1, 2, 3, 4, 5, 6, 7],
    ] {
        let mut collector = StatsCollector::new_shard(config);
        for &m in &order {
            collector
                .consume(wl.s.scan_range(morsels[m].clone()))
                .unwrap();
        }
        assert_eq!(
            collector.finish(),
            by_scan,
            "morsel order {order:?} must not change the summary"
        );
    }
}

#[test]
fn uniform_workloads_need_no_mcvs_to_plan_well() {
    // Under a uniform correlation the sketch finds no meaningful heavy
    // hitters; the plan should degrade gracefully to the residual-only path
    // and still match the oracle's output.
    let wl = workload(Correlation::Uniform, 2_000, 16_000, 5);
    let spec = JoinSpec::paper_synthetic(128, 32);
    let summary = collect(&wl, &spec, 4);
    let device = wl.r.device().clone();
    let join = NocapJoin::new(spec, NocapConfig::default());
    device.reset_stats();
    let sketch_run = join
        .run_parallel_with_collected_stats_obs(&wl.r, &wl.s, &summary, 1, &Obs::off())
        .unwrap();
    device.reset_stats();
    let oracle_run = join
        .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
        .unwrap();
    assert_eq!(sketch_run.output_records, oracle_run.output_records);
    assert!(
        (sketch_run.total_ios() as f64) <= 1.5 * oracle_run.total_ios() as f64,
        "uniform: sketch {} vs oracle {}",
        sketch_run.total_ios(),
        oracle_run.total_ios()
    );
}
