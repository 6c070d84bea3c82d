//! End-to-end guarantees of the execution engine, pinned by the shared
//! determinism harness
//! (`nocap_suite::joins::testutil::assert_parallel_equivalence`):
//!
//! 1. Every executor has one body for every thread count. For
//!    n ∈ {1, 2, 4, 8}, `NocapJoin`, `DhhJoin` and `SortMergeJoin` produce
//!    the join output and per-phase modeled I/O checked in below — the
//!    numbers the former sequential executors produced — across skewed
//!    (Zipf 1.1), uniform and JCC-H workloads and several memory budgets.
//! 2. The whole sketch-plan-execute pipeline is thread-count invariant:
//!    `collect_and_run_parallel_obs(n)` reproduces its pinned numbers
//!    exactly (same sharded summary → same plan → same I/O), and
//!    `StatsCollector::collect_parallel` yields a bit-identical summary for
//!    every n on generated workloads.
//! 3. The thread-safe `BufferPool` never over-commits its budget under a
//!    barrier-synchronized reserve/release storm, and per-worker quota
//!    carving conserves pages exactly.

use std::sync::Barrier;

use nocap_suite::joins::testutil::{assert_parallel_equivalence, pinned_report};
use nocap_suite::joins::{DhhJoin, GraceHashJoin, SortMergeJoin};
use nocap_suite::model::{JoinRunReport, JoinSpec, ProbeBloom};
use nocap_suite::nocap::{NocapConfig, NocapJoin};
use nocap_suite::obs::{IoAudit, Obs, Phase};
use nocap_suite::stats::{StatsCollector, StatsConfig};
use nocap_suite::storage::device::DeviceRef;
use nocap_suite::storage::{
    BlockDevice, BufferPool, CheckedDevice, DeviceProfile, FaultDevice, FaultPlan, FaultStats,
    RetryPolicy, RetryStats, SimDevice, TracedDevice,
};
use nocap_suite::workload::jcch::{self, JcchConfig, JcchSkew};
use nocap_suite::workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

/// The workload grid shared by every differential suite below.
enum Workload {
    Synthetic(Correlation),
    Jcch(JcchSkew),
}

/// Generates the workload fresh on its own device (same seed → identical
/// relations, clean I/O counters).
fn generate(workload: &Workload) -> GeneratedWorkload {
    generate_on(SimDevice::new_ref(), workload)
}

/// [`generate`] on a caller-supplied device, so the traced-device suites can
/// build the identical workload behind a `TracedDevice` wrapper.
fn generate_on(device: DeviceRef, workload: &Workload) -> GeneratedWorkload {
    let wl = match workload {
        Workload::Synthetic(correlation) => synthetic::generate(
            device.clone(),
            &SyntheticConfig {
                n_r: 6_000,
                n_s: 48_000,
                record_bytes: 128,
                correlation: *correlation,
                mcv_count: 300,
                seed: 0x9A5,
            },
        )
        .expect("synthetic workload"),
        Workload::Jcch(skew) => jcch::generate(
            device.clone(),
            &JcchConfig {
                n_orders: 6_000,
                n_lineitems: 48_000,
                skew: *skew,
                record_bytes: 128,
                mcv_count: 300,
                seed: 0x1CC4,
            },
        )
        .expect("jcch workload"),
    };
    device.reset_stats();
    wl
}

fn workload_grid() -> Vec<(&'static str, Workload)> {
    vec![
        (
            "zipf_1.1",
            Workload::Synthetic(Correlation::Zipf { alpha: 1.1 }),
        ),
        ("uniform", Workload::Synthetic(Correlation::Uniform)),
        ("jcch_tuned", Workload::Jcch(JcchSkew::Tuned)),
    ]
}

/// One pinned cell: `(workload, budget pages, output, partition I/O, probe
/// I/O)`, each I/O given as `[seq_reads, rand_reads, seq_writes,
/// rand_writes]`. The numbers were recorded from the sequential executors
/// (`run` / `collect_and_run` / `run_with_collected_stats`) before they were
/// folded into the single thread-count-parameterized body, so every thread
/// count below is pinned to what the removed code produced.
type Pin = (&'static str, usize, u64, [u64; 4], [u64; 4]);

/// NOCAP on the workload grid (B = 32, 96) and the bloom cells (B = 48).
const NOCAP_PINS: [Pin; 9] = [
    ("zipf_1.1", 32, 48_000, [1743, 0, 0, 532], [539, 0, 0, 7]),
    ("zipf_1.1", 96, 48_000, [1743, 0, 0, 532], [535, 0, 0, 3]),
    ("zipf_1.1", 48, 48_000, [1743, 0, 0, 532], [537, 0, 0, 5]),
    ("uniform", 32, 48_000, [1743, 0, 0, 1655], [1662, 0, 0, 7]),
    ("uniform", 96, 48_000, [1743, 0, 0, 1741], [1744, 0, 0, 3]),
    ("uniform", 48, 48_000, [1743, 0, 0, 1744], [1749, 0, 0, 5]),
    ("jcch_tuned", 32, 48_000, [1743, 0, 0, 770], [777, 0, 0, 7]),
    ("jcch_tuned", 96, 48_000, [1743, 0, 0, 772], [775, 0, 0, 3]),
    ("jcch_tuned", 48, 48_000, [1743, 0, 0, 771], [776, 0, 0, 5]),
];

/// DHH (default thresholds) on the same cells as [`NOCAP_PINS`].
const DHH_PINS: [Pin; 9] = [
    ("zipf_1.1", 32, 48_000, [1743, 0, 0, 1741], [1761, 0, 0, 20]),
    ("zipf_1.1", 96, 48_000, [1743, 0, 0, 897], [917, 0, 0, 20]),
    ("zipf_1.1", 48, 48_000, [1743, 0, 0, 1741], [1761, 0, 0, 20]),
    ("uniform", 32, 48_000, [1743, 0, 0, 1742], [1762, 0, 0, 20]),
    ("uniform", 96, 48_000, [1743, 0, 0, 1732], [1752, 0, 0, 20]),
    ("uniform", 48, 48_000, [1743, 0, 0, 1742], [1762, 0, 0, 20]),
    (
        "jcch_tuned",
        32,
        48_000,
        [1743, 0, 0, 1744],
        [1764, 0, 0, 20],
    ),
    (
        "jcch_tuned",
        96,
        48_000,
        [1743, 0, 0, 1403],
        [1423, 0, 0, 20],
    ),
    (
        "jcch_tuned",
        48,
        48_000,
        [1743, 0, 0, 1744],
        [1764, 0, 0, 20],
    ),
];

/// SMJ on the workload grid.
const SMJ_PINS: [Pin; 6] = [
    (
        "zipf_1.1",
        32,
        48_000,
        [1743, 1745, 3486, 0],
        [0, 1743, 0, 0],
    ),
    ("zipf_1.1", 96, 48_000, [1743, 0, 1743, 0], [0, 1743, 0, 0]),
    (
        "uniform",
        32,
        48_000,
        [1743, 1745, 3486, 0],
        [0, 1743, 0, 0],
    ),
    ("uniform", 96, 48_000, [1743, 0, 1743, 0], [0, 1743, 0, 0]),
    (
        "jcch_tuned",
        32,
        48_000,
        [1743, 1745, 3486, 0],
        [0, 1743, 0, 0],
    ),
    (
        "jcch_tuned",
        96,
        48_000,
        [1743, 0, 1743, 0],
        [0, 1743, 0, 0],
    ),
];

/// GHJ on the bloom cells.
const GHJ_PINS: [Pin; 3] = [
    ("zipf_1.1", 48, 48_000, [1743, 0, 0, 1785], [1785, 0, 0, 0]),
    ("uniform", 48, 48_000, [1743, 0, 0, 1790], [1790, 0, 0, 0]),
    (
        "jcch_tuned",
        48,
        48_000,
        [1743, 0, 0, 1788],
        [1788, 0, 0, 0],
    ),
];

/// The NOCAP sketch-plan-execute pipeline (4 stats pages per shard).
const NOCAP_PIPELINE_PINS: [Pin; 3] = [
    ("zipf_1.1", 64, 48_000, [1743, 0, 0, 674], [678, 0, 0, 4]),
    ("uniform", 64, 48_000, [1743, 0, 0, 1741], [1745, 0, 0, 4]),
    ("jcch_tuned", 64, 48_000, [1743, 0, 0, 904], [908, 0, 0, 4]),
];

/// Sketch-driven DHH (4 stats pages per shard).
const DHH_SKETCH_PIPELINE_PIN: Pin = ("zipf_1.1", 48, 48_000, [1743, 0, 0, 1741], [1761, 0, 0, 20]);

/// The pinned report of the `(workload, budget)` cell in `pins`.
fn pinned(pins: &[Pin], workload: &str, budget: usize) -> JoinRunReport {
    let &(_, _, output, partition_io, probe_io) = pins
        .iter()
        .find(|pin| pin.0 == workload && pin.1 == budget)
        .unwrap_or_else(|| panic!("no pinned cell for {workload}/B={budget}"));
    pinned_report(output, partition_io, probe_io)
}

#[test]
fn nocap_run_parallel_matches_run_across_workloads_threads_and_budgets() {
    for (name, workload) in &workload_grid() {
        for budget in [32usize, 96] {
            let spec = JoinSpec::paper_synthetic(128, budget);
            let join = NocapJoin::new(spec, NocapConfig::default());
            assert_parallel_equivalence(
                &format!("nocap/{name}/B={budget}"),
                &[1, 2, 4, 8],
                &pinned(&NOCAP_PINS, name, budget),
                |threads| {
                    let wl = generate(workload);
                    let report = join
                        .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, &Obs::off())
                        .expect("NOCAP run");
                    assert_eq!(
                        report.output_records,
                        wl.expected_join_output(),
                        "{name}: join output must match the correlation table"
                    );
                    report
                },
            );
        }
    }
}

#[test]
fn dhh_run_parallel_matches_run_across_workloads_threads_and_budgets() {
    for (name, workload) in &workload_grid() {
        for budget in [32usize, 96] {
            let spec = JoinSpec::paper_synthetic(128, budget);
            let dhh = DhhJoin::with_defaults(spec);
            assert_parallel_equivalence(
                &format!("dhh/{name}/B={budget}"),
                &[1, 2, 4, 8],
                &pinned(&DHH_PINS, name, budget),
                |threads| {
                    let wl = generate(workload);
                    let report = dhh
                        .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, &Obs::off())
                        .expect("DHH run");
                    assert_eq!(
                        report.output_records,
                        wl.expected_join_output(),
                        "{name}: DHH output must match the correlation table"
                    );
                    report
                },
            );
        }
    }
}

#[test]
fn smj_run_parallel_matches_run_across_workloads_threads_and_budgets() {
    // Parallel sort-run generation claims chunks of a page grid fixed by
    // the data and the budget, so every thread count must reproduce the
    // sequential external sort — and therefore the fused merge-join — bit
    // for bit, in output and in per-phase modeled I/O.
    for (name, workload) in &workload_grid() {
        for budget in [32usize, 96] {
            let spec = JoinSpec::paper_synthetic(128, budget);
            let smj = SortMergeJoin::new(spec);
            assert_parallel_equivalence(
                &format!("smj/{name}/B={budget}"),
                &[1, 2, 4, 8],
                &pinned(&SMJ_PINS, name, budget),
                |threads| {
                    let wl = generate(workload);
                    let report = smj
                        .run_parallel_obs(&wl.r, &wl.s, threads, &Obs::off())
                        .expect("SMJ run");
                    assert_eq!(
                        report.output_records,
                        wl.expected_join_output(),
                        "{name}: SMJ output must match the correlation table"
                    );
                    report
                },
            );
        }
    }
}

#[test]
fn probe_bloom_filter_changes_neither_output_nor_modeled_io() {
    // The probe-side Bloom pre-filter is a pure CPU optimization: a filter
    // miss takes exactly the `probe_count == 0` route, the reservation is
    // clamped after the partition geometry is fixed, and the bits depend
    // only on the build-side key multiset. So for every executor, workload
    // and thread count, bloom-on and bloom-off runs must reproduce the same
    // pinned output and per-phase modeled I/O.
    for (name, workload) in &workload_grid() {
        let spec = JoinSpec::paper_synthetic(128, 48);

        // NOCAP: knob on NocapConfig (default on).
        let expected = pinned(&NOCAP_PINS, name, 48);
        for (bloom, threads) in [("on", &[1usize, 2, 4][..]), ("off", &[1, 4])] {
            let config = NocapConfig {
                bloom: if bloom == "on" {
                    ProbeBloom::default()
                } else {
                    ProbeBloom::off()
                },
                ..NocapConfig::default()
            };
            let join = NocapJoin::new(spec, config);
            assert_parallel_equivalence(
                &format!("nocap/{name}/bloom-{bloom}"),
                threads,
                &expected,
                |threads| {
                    let wl = generate(workload);
                    join.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, &Obs::off())
                        .expect("NOCAP run")
                },
            );
        }

        // DHH: builder knob (default on).
        let expected = pinned(&DHH_PINS, name, 48);
        for (bloom, threads) in [("on", &[1usize, 4][..]), ("off", &[1])] {
            let dhh = DhhJoin::with_defaults(spec).with_bloom(if bloom == "on" {
                ProbeBloom::default()
            } else {
                ProbeBloom::off()
            });
            assert_parallel_equivalence(
                &format!("dhh/{name}/bloom-{bloom}"),
                threads,
                &expected,
                |threads| {
                    let wl = generate(workload);
                    dhh.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, &Obs::off())
                        .expect("DHH run")
                },
            );
        }

        // GHJ: per-chunk filters inside the partition-pair NBJs.
        let expected = pinned(&GHJ_PINS, name, 48);
        for (bloom, threads) in [("on", &[1usize, 4][..]), ("off", &[1])] {
            let ghj = GraceHashJoin::new(spec).with_bloom(if bloom == "on" {
                ProbeBloom::default()
            } else {
                ProbeBloom::off()
            });
            assert_parallel_equivalence(
                &format!("ghj/{name}/bloom-{bloom}"),
                threads,
                &expected,
                |threads| {
                    let wl = generate(workload);
                    ghj.run_parallel_obs(&wl.r, &wl.s, threads, &Obs::off())
                        .expect("GHJ run")
                },
            );
        }
    }
}

#[test]
fn run_parallel_honors_the_nocap_threads_default() {
    // threads = 0 routes through default_threads() (NOCAP_THREADS or the
    // machine's parallelism); the result must still match the pins.
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 48);
    let join = NocapJoin::new(spec, NocapConfig::default());
    let dhh = DhhJoin::with_defaults(spec);
    assert_parallel_equivalence(
        "nocap/default-threads",
        &[0],
        &pinned(&NOCAP_PINS, "zipf_1.1", 48),
        |threads| {
            let wl = generate(&workload);
            join.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, &Obs::off())
                .expect("NOCAP run")
        },
    );
    assert_parallel_equivalence(
        "dhh/default-threads",
        &[0],
        &pinned(&DHH_PINS, "zipf_1.1", 48),
        |threads| {
            let wl = generate(&workload);
            dhh.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, &Obs::off())
                .expect("DHH run")
        },
    );
}

#[test]
fn sketch_plan_execute_pipeline_is_thread_count_invariant() {
    // The whole deployable pipeline — sharded statistics collection,
    // planning from the summary, execution — must be identical at every
    // thread count, *including* on workloads where the SpaceSaving sketch
    // overflows (the fixed shard grid and canonical fold make the summary
    // n-invariant regardless).
    for (name, workload) in &workload_grid() {
        let spec = JoinSpec::paper_synthetic(128, 64);
        let join = NocapJoin::new(spec, NocapConfig::default());
        assert_parallel_equivalence(
            &format!("pipeline/{name}"),
            &[1, 2, 4, 8],
            &pinned(&NOCAP_PIPELINE_PINS, name, 64),
            |threads| {
                let wl = generate(workload);
                let report = join
                    .collect_and_run_parallel_obs(&wl.r, &wl.s, 4, threads, &Obs::off())
                    .expect("pipeline");
                assert_eq!(
                    report.output_records,
                    wl.expected_join_output(),
                    "{name}: sketch-planned output must match"
                );
                report
            },
        );
    }
}

#[test]
fn dhh_sketch_pipeline_is_thread_count_invariant() {
    // Sketch-driven DHH: collect_parallel's summary feeds
    // run_parallel_with_collected_stats_obs; every thread count must
    // reproduce the pinned sketch-driven run exactly.
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 48);
    let dhh = DhhJoin::with_defaults(spec);
    let (_, _, output, partition_io, probe_io) = DHH_SKETCH_PIPELINE_PIN;
    assert_parallel_equivalence(
        "dhh/sketch-pipeline",
        &[1, 2, 4, 8],
        &pinned_report(output, partition_io, probe_io),
        |threads| {
            let wl = generate(&workload);
            let summary = StatsCollector::collect_parallel(
                StatsConfig::for_budget_pages(4, spec.page_size),
                &wl.s,
                threads,
            )
            .expect("collection");
            wl.r.device().reset_stats();
            dhh.run_parallel_with_collected_stats_obs(&wl.r, &wl.s, &summary, threads, &Obs::off())
                .expect("sketch run")
        },
    );
}

#[test]
fn identical_runs_compare_equal() {
    // `JoinRunReport` equality covers the deterministic payload only, so two
    // runs of the same join on the same data are `==` although their wall
    // times differ.
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let join = NocapJoin::new(JoinSpec::paper_synthetic(128, 48), NocapConfig::default());
    let run = || {
        let wl = generate(&workload);
        join.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 2, &Obs::off())
            .expect("NOCAP run")
    };
    assert_eq!(run(), run());
}

#[test]
fn collect_parallel_summaries_are_bit_identical_on_generated_workloads() {
    // Statistics-level determinism on the same generated relations the
    // executors join: for every workload in the grid the sharded summary
    // is identical at 1, 2, 4 and 8 threads — even where the MCV sketch
    // overflows (zipf/jcch track thousands of distinct keys).
    for (name, workload) in &workload_grid() {
        let wl = generate(workload);
        let config = StatsConfig::for_budget_pages(4, 4096);
        let baseline =
            StatsCollector::collect_parallel(config, &wl.s, 1).expect("1-thread collection");
        assert_eq!(baseline.stream_len() as usize, wl.s.num_records(), "{name}");
        for threads in [2usize, 4, 8] {
            let summary = StatsCollector::collect_parallel(config, &wl.s, threads)
                .expect("parallel collection");
            assert_eq!(
                summary, baseline,
                "{name}: summary diverged at {threads} threads"
            );
        }
    }
}

/// The partition-census counters the shared NOCAP/DHH body records.
const HYBRID_COUNTERS: &[&str] = &[
    "designated_partitions",
    "rest_partitions",
    "spilled_rest_partitions",
    "staged_records",
];

/// Shared body of the recorder differential checks: a recorder-off run and
/// recorder-on runs at 1/2/4/8 workers against the pinned numbers.
/// Recording must not change the join output or the per-phase modeled I/O,
/// and every recorded trace must carry the expected main-thread phases, the
/// listed histograms, the listed counters (equal at every thread count) and
/// one timeline per worker.
fn assert_recording_is_invisible(
    label: &str,
    baseline: &JoinRunReport,
    expected_phases: &[Phase],
    expected_histograms: &[&str],
    expected_counters: &[&str],
    workers_exact: bool,
    run: impl Fn(usize, &Obs) -> JoinRunReport,
) {
    let mut first_counters: Option<Vec<u64>> = None;
    let blind = run(1, &Obs::off());
    assert!(
        blind.trace.is_none(),
        "{label}: Obs::off() must not attach a trace"
    );
    assert_eq!(blind.output_records, baseline.output_records, "{label}");
    assert_eq!(blind.partition_io, baseline.partition_io, "{label}");
    assert_eq!(blind.probe_io, baseline.probe_io, "{label}");
    for threads in [1usize, 2, 4, 8] {
        let obs = Obs::recording();
        let traced = run(threads, &obs);
        assert_eq!(
            traced.output_records, baseline.output_records,
            "{label}: recording changed the join output at {threads} threads"
        );
        assert_eq!(
            traced.partition_io, baseline.partition_io,
            "{label}: recording changed the partition-phase I/O at {threads} threads"
        );
        assert_eq!(
            traced.probe_io, baseline.probe_io,
            "{label}: recording changed the probe-phase I/O at {threads} threads"
        );
        let trace = traced
            .trace
            .as_ref()
            .expect("a recording run attaches its trace to the report");
        for &phase in expected_phases {
            assert!(
                trace.phase_secs(phase) > 0.0,
                "{label}: phase {phase} missing from the trace at {threads} threads"
            );
        }
        for &hist in expected_histograms {
            assert!(
                trace.histograms.contains_key(hist),
                "{label}: histogram {hist} missing at {threads} threads"
            );
        }
        // The partition census is a function of per-partition totals, so
        // every counter must read the same at every thread count.
        let counters: Vec<u64> = expected_counters
            .iter()
            .map(|&name| {
                *trace.counters.get(name).unwrap_or_else(|| {
                    panic!("{label}: counter {name} missing at {threads} threads")
                })
            })
            .collect();
        let first = first_counters.get_or_insert_with(|| counters.clone());
        assert_eq!(
            &counters, first,
            "{label}: counters {expected_counters:?} changed at {threads} threads"
        );
        let workers: std::collections::BTreeSet<usize> =
            trace.spans.iter().filter_map(|s| s.worker).collect();
        if workers_exact {
            // Algorithms whose worker closures are span-bracketed record one
            // timeline per worker no matter how the work is distributed.
            assert_eq!(
                workers,
                (0..threads).collect(),
                "{label}: every worker must contribute a timeline at {threads} threads"
            );
        } else {
            // Task-claiming algorithms only record workers that won at least
            // one task, so the set is a non-empty subset of the pool.
            assert!(
                !workers.is_empty() && workers.iter().all(|&w| w < threads),
                "{label}: worker ids {workers:?} out of range at {threads} threads"
            );
        }
    }
}

#[test]
fn nocap_trace_recording_changes_nothing_and_captures_the_execution_shape() {
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 48);
    let join = NocapJoin::new(spec, NocapConfig::default());
    assert_recording_is_invisible(
        "nocap",
        &pinned(&NOCAP_PINS, "zipf_1.1", 48),
        &[Phase::Partition, Phase::Probe, Phase::Total],
        &["partition_records", "partition_pages"],
        HYBRID_COUNTERS,
        true,
        |threads, obs| {
            let wl = generate(&workload);
            join.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, obs)
                .expect("recorded run")
        },
    );
}

#[test]
fn dhh_trace_recording_changes_nothing_and_captures_the_execution_shape() {
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 48);
    let dhh = DhhJoin::with_defaults(spec);
    assert_recording_is_invisible(
        "dhh",
        &pinned(&DHH_PINS, "zipf_1.1", 48),
        &[Phase::Partition, Phase::Probe, Phase::Total],
        &["partition_records", "partition_pages"],
        HYBRID_COUNTERS,
        true,
        |threads, obs| {
            let wl = generate(&workload);
            dhh.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, obs)
                .expect("recorded run")
        },
    );
}

#[test]
fn smj_trace_recording_changes_nothing_and_captures_the_execution_shape() {
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 32);
    let smj = SortMergeJoin::new(spec);
    assert_recording_is_invisible(
        "smj",
        &pinned(&SMJ_PINS, "zipf_1.1", 32),
        &[Phase::SortRunGen, Phase::Merge, Phase::Total],
        &["run_pages", "final_run_pages"],
        &[],
        false,
        |threads, obs| {
            let wl = generate(&workload);
            smj.run_parallel_obs(&wl.r, &wl.s, threads, obs)
                .expect("recorded run")
        },
    );
}

/// Shared body of the traced-device differential checks: the same join on a
/// `TracedDevice(SimDevice)` with I/O recording on must reproduce the
/// pinned bare-device numbers bit for bit at every thread count, and
/// the captured event stream must audit *exactly* against the engine's own
/// per-phase counter snapshots — zero model-audit mismatches, no events
/// outside the marker windows, and the two non-empty windows folding to
/// precisely `partition_io` and `probe_io`.
fn assert_traced_run_audits_exactly(
    label: &str,
    workload: &Workload,
    baseline: &JoinRunReport,
    run: impl Fn(&GeneratedWorkload, usize, &Obs) -> JoinRunReport,
) {
    for threads in [1usize, 2, 4, 8] {
        let device = TracedDevice::new_ref(SimDevice::new_ref());
        let wl = generate_on(device, workload);
        let obs = Obs::recording();
        let traced = run(&wl, threads, &obs);
        assert_eq!(
            traced.output_records, baseline.output_records,
            "{label}: the traced device changed the join output at {threads} threads"
        );
        assert_eq!(
            traced.partition_io, baseline.partition_io,
            "{label}: the traced device changed the partition-phase I/O at {threads} threads"
        );
        assert_eq!(
            traced.probe_io, baseline.probe_io,
            "{label}: the traced device changed the probe-phase I/O at {threads} threads"
        );
        let trace = traced
            .trace
            .as_ref()
            .expect("a recording run attaches its trace to the report");
        assert!(
            !trace.io_events.is_empty(),
            "{label}: no I/O events captured at {threads} threads"
        );
        let audit = IoAudit::from_trace(trace, DeviceProfile::default());
        assert!(
            audit.mismatches().is_empty(),
            "{label}: model audit mismatched at {threads} threads\n{}",
            audit.report_text()
        );
        assert_eq!(
            audit.leading_events, 0,
            "{label}: events before the first marker at {threads} threads"
        );
        assert_eq!(
            audit.trailing_events, 0,
            "{label}: events after the last marker at {threads} threads"
        );
        // Every observed page access folds into exactly one marker window,
        // and the two windows with any traffic are the engine's own
        // partition-pass and probe-pass deltas.
        let busy: Vec<_> = audit
            .windows
            .iter()
            .filter(|w| w.expected.total() > 0)
            .collect();
        assert_eq!(
            busy.len(),
            2,
            "{label}: expected exactly the partition and probe windows to \
             carry I/O at {threads} threads"
        );
        assert_eq!(
            busy[0].folded, traced.partition_io,
            "{label}: traced events disagree with the partition-phase \
             counters at {threads} threads"
        );
        assert_eq!(
            busy[1].folded, traced.probe_io,
            "{label}: traced events disagree with the probe-phase counters \
             at {threads} threads"
        );
        // The declaration audit cross-checks every access pattern the engine
        // declares; a flag here means some path lies about its `IoKind`.
        assert!(
            audit.flagged_declarations().is_empty(),
            "{label}: declared I/O kinds contradict observed access patterns \
             at {threads} threads\n{}",
            audit.report_text()
        );
    }
}

#[test]
fn nocap_traced_device_runs_are_identical_and_audit_exactly() {
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 48);
    let join = NocapJoin::new(spec, NocapConfig::default());
    let baseline = pinned(&NOCAP_PINS, "zipf_1.1", 48);
    assert_traced_run_audits_exactly("nocap", &workload, &baseline, |wl, threads, obs| {
        join.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, obs)
            .expect("traced run")
    });
}

#[test]
fn dhh_traced_device_runs_are_identical_and_audit_exactly() {
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 48);
    let dhh = DhhJoin::with_defaults(spec);
    let baseline = pinned(&DHH_PINS, "zipf_1.1", 48);
    assert_traced_run_audits_exactly("dhh", &workload, &baseline, |wl, threads, obs| {
        dhh.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, obs)
            .expect("traced run")
    });
}

#[test]
fn smj_traced_device_runs_are_identical_and_audit_exactly() {
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 32);
    let smj = SortMergeJoin::new(spec);
    let baseline = pinned(&SMJ_PINS, "zipf_1.1", 32);
    assert_traced_run_audits_exactly("smj", &workload, &baseline, |wl, threads, obs| {
        smj.run_parallel_obs(&wl.r, &wl.s, threads, obs)
            .expect("traced run")
    });
}

#[test]
fn disarmed_fault_and_checksum_layers_are_invisible_to_the_determinism_pins() {
    // The fault-tolerance stack compiled in but switched off must be free:
    // a disarmed FaultDevice plus a CheckedDevice produce bit-identical
    // output, per-phase modeled I/O and device counters at every thread
    // count, with zero fault or retry activity — so the rest of this file's
    // pins hold unchanged with the layers in place.
    let workload = Workload::Synthetic(Correlation::Zipf { alpha: 1.1 });
    let spec = JoinSpec::paper_synthetic(128, 48);
    let join = NocapJoin::new(spec, NocapConfig::default());
    let baseline = pinned(&NOCAP_PINS, "zipf_1.1", 48);
    let wl = generate(&workload);
    let bare = join
        .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 1, &Obs::off())
        .expect("bare-device run");
    assert_eq!(bare.output_records, baseline.output_records);
    assert_eq!(bare.partition_io, baseline.partition_io);
    assert_eq!(bare.probe_io, baseline.probe_io);
    let base_stats = wl.r.device().stats();
    for threads in [1usize, 2, 4, 8] {
        let sim = std::sync::Arc::new(SimDevice::new());
        let fault = FaultDevice::new_arc(sim.clone() as DeviceRef, FaultPlan::persistent(7, 200));
        let checked = CheckedDevice::new_arc(fault.clone() as DeviceRef, RetryPolicy::default());
        let wl = generate_on(checked.clone() as DeviceRef, &workload);
        let report = join
            .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, &Obs::off())
            .expect("run through the disarmed stack");
        assert_eq!(report.output_records, baseline.output_records);
        assert_eq!(report.partition_io, baseline.partition_io);
        assert_eq!(report.probe_io, baseline.probe_io);
        assert_eq!(
            checked.stats(),
            base_stats,
            "disarmed wrappers must not perturb the device counters"
        );
        assert_eq!(fault.fault_stats(), FaultStats::default());
        assert_eq!(checked.retry_stats(), RetryStats::default());
    }
}

#[test]
fn buffer_pool_quota_accounting_survives_a_barrier_stress_test() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 60;
    let pool = BufferPool::new(THREADS * 4);
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let pool = pool.clone();
            let barrier = &barrier;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Line everyone up so every round contends for real.
                    barrier.wait();
                    // Deterministic per-thread pattern; over-asking is part
                    // of the test — failures must not corrupt accounting.
                    let ask = (t * 7 + round * 3) % 9;
                    match pool.reserve(ask) {
                        Ok(mut r) => {
                            assert!(pool.in_use() <= pool.capacity());
                            if r.grow(2).is_ok() {
                                r.shrink(1);
                            }
                            assert!(pool.in_use() <= pool.capacity());
                            drop(r);
                        }
                        Err(_) => {
                            assert!(pool.in_use() <= pool.capacity());
                        }
                    }
                    barrier.wait();
                }
            });
        }
    });
    assert_eq!(pool.in_use(), 0, "all reservations must be released");
    assert!(pool.peak() <= pool.capacity(), "budget was over-committed");
}

#[test]
fn carved_worker_quotas_conserve_the_budget() {
    let pool = BufferPool::new(37);
    let _fixed = pool.reserve(5).unwrap();
    let quotas = pool.carve_remaining(6);
    assert_eq!(quotas.len(), 6);
    let total: usize = quotas.iter().map(|q| q.pages()).sum();
    assert_eq!(total, 32, "quotas must cover exactly the remaining budget");
    assert_eq!(pool.available(), 0);
    // Workers release their quotas independently.
    std::thread::scope(|scope| {
        for quota in quotas {
            scope.spawn(move || drop(quota));
        }
    });
    assert_eq!(pool.in_use(), 5, "only the fixed reservation remains");
}
