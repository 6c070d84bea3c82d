//! Wall-clock scaling of the execution engine: NOCAP, DHH, SMJ and sharded
//! statistics collection.
//!
//! Runs the Zipf(1.0) synthetic workload through
//! `NocapJoin::run_parallel_obs`, `DhhJoin::run_parallel_obs`,
//! `SortMergeJoin::run_parallel_obs` and `StatsCollector::collect_parallel`
//! at 1, 2, 4 and 8 workers. Each executor has one body for every thread
//! count, so the speedup baseline is that same body at `threads = 1` (the
//! sequential run): every row reports wall-clock speedup relative to one
//! worker and verifies that the modeled I/O trace and the join output (or
//! the statistics summary) are identical to the one-worker run — the
//! engine's core contract: parallelism changes *when* the work happens,
//! never *what* work happens.
//!
//! On `SimDevice` the partitioning passes are pure CPU (hashing, routing,
//! page packing), so the speedup measures the engine itself rather than a
//! disk. Run on a machine with ≥ 4 cores to see the scaling (the report
//! prints the detected parallelism — on a single-core CI runner the
//! speedups will hover around 1.0 by physics, not by design). Pass
//! `--quick` for a smaller sweep.

use std::time::Instant;

use nocap::{NocapConfig, NocapJoin};
use nocap_bench::harness::{
    base_device, device_mode, fault_stack, faults_seed, maybe_audit_io, print_fault_summary,
    report_trace,
};
use nocap_joins::{DhhJoin, SortMergeJoin};
use nocap_model::{JoinRunReport, JoinSpec};
use nocap_obs::Obs;
use nocap_stats::{StatsCollector, StatsConfig};
use nocap_storage::DeviceProfile;
use nocap_workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

/// The shared timing protocol of every table below: runs `run(threads)`
/// best-of-`repeats` at 1/2/4/8 workers and hands each thread count's best
/// wall-clock, speedup vs one worker and last artifact to `row`.
fn scaling_rows<T>(
    repeats: usize,
    run: impl Fn(usize) -> T,
    mut row: impl FnMut(usize, f64, f64, T),
) {
    let mut base_secs = None;
    for threads in [1usize, 2, 4, 8] {
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..repeats {
            let started = Instant::now();
            let r = run(threads);
            let secs = started.elapsed().as_secs_f64();
            if secs < best {
                best = secs;
            }
            result = Some(r);
        }
        let result = result.expect("at least one run");
        let base = *base_secs.get_or_insert(best);
        row(threads, best, base / best, result);
    }
}

/// Times `run(threads)` at 1/2/4/8 workers, printing one CSV row per
/// thread count, and checks every report against the one-worker run — the
/// speedup baseline, which it returns. The one-worker output must match
/// `expected_output`.
fn scaling_table(
    algo: &str,
    expected_output: u64,
    repeats: usize,
    device: &nocap_storage::device::DeviceRef,
    run: impl Fn(usize) -> JoinRunReport,
) -> JoinRunReport {
    println!("# {algo} scaling (baseline: threads = 1)");
    println!("threads,wall_secs,speedup_vs_1,total_ios,io_identical_to_1_thread");
    let mut baseline: Option<JoinRunReport> = None;
    scaling_rows(
        repeats,
        |threads| {
            device.reset_stats();
            run(threads)
        },
        |threads, best, speedup, report| {
            let one = baseline.get_or_insert_with(|| report.clone());
            assert_eq!(one.output_records, expected_output, "{algo}: wrong output");
            assert_eq!(report.output_records, one.output_records);
            let io_identical =
                report.partition_io == one.partition_io && report.probe_io == one.probe_io;
            assert!(
                io_identical,
                "{algo}: I/O at {threads} threads diverged from one thread"
            );
            println!(
                "{threads},{best:.4},{speedup:.2},{},{io_identical}",
                report.total_ios()
            );
        },
    );
    baseline.expect("the one-worker row")
}

/// Re-runs one algorithm at 4 workers with the trace recorder on, checks the
/// recording changed nothing about the modeled execution, and prints the
/// per-phase wall-time and skew breakdown (plus a chrome trace when
/// `NOCAP_TRACE` is set).
fn traced_breakdown(
    algo: &str,
    baseline: &JoinRunReport,
    device: &nocap_storage::device::DeviceRef,
    run: impl Fn(&Obs) -> JoinRunReport,
) {
    device.reset_stats();
    let obs = Obs::recording();
    let report = run(&obs);
    assert_eq!(report.output_records, baseline.output_records);
    assert_eq!(
        report.partition_io, baseline.partition_io,
        "{algo}: recording must not change the partition-phase I/O"
    );
    assert_eq!(
        report.probe_io, baseline.probe_io,
        "{algo}: recording must not change the probe-phase I/O"
    );
    report_trace(algo, &report);
    maybe_audit_io(algo, &report, &DeviceProfile::osync_off());
    println!();
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_r, n_s, repeats) = if quick {
        (10_000, 80_000, 1)
    } else {
        (40_000, 320_000, 3)
    };
    let record_bytes = 256;
    let buffer_pages = 96;
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    println!(
        "# exp_parallel_scaling: n_R = {n_r}, n_S = {n_s}, {record_bytes}-byte records, \
         B = {buffer_pages} pages, Zipf(1.0), best of {repeats} runs"
    );
    println!("# detected available parallelism: {cores} hardware thread(s)");
    println!("# device: {}", device_mode().label());

    // NOCAP_DEVICE selects the base device (SimDevice or the block-layer
    // FileDevice); NOCAP_IO_AUDIT additionally wraps it in a tracer so the
    // traced breakdowns capture device-level events. The wrappers are
    // pass-through for the timed runs (no recorder attached there).
    let base = base_device();
    // NOCAP_FAULTS layers checksums + retry over a seeded errors-only fault
    // schedule. Recovered faults leave the modeled I/O bit-identical, so
    // every cross-thread-count assertion below still holds — that
    // invariance under injection is exactly what the smoke run checks.
    let (device, faults) = match faults_seed() {
        Some(seed) => {
            let (device, rig) = fault_stack(base, seed, 2_000);
            (device, Some(rig))
        }
        None => (base, None),
    };
    let config = SyntheticConfig {
        n_r,
        n_s,
        record_bytes,
        correlation: Correlation::Zipf { alpha: 1.0 },
        mcv_count: n_r / 20,
        seed: 0x0CA9,
    };
    let wl: GeneratedWorkload =
        synthetic::generate(device.clone(), &config).expect("workload generation");
    if let Some(rig) = &faults {
        rig.arm();
    }
    let spec = JoinSpec::paper_synthetic(record_bytes, buffer_pages);

    // ---- NOCAP --------------------------------------------------------
    let expected = wl.expected_join_output();
    let join = NocapJoin::new(spec, NocapConfig::default());
    let baseline = scaling_table("NOCAP", expected, repeats, &device, |threads| {
        join.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, &Obs::off())
            .expect("NOCAP run")
    });
    traced_breakdown("NOCAP", &baseline, &device, |obs| {
        join.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 4, obs)
            .expect("traced run")
    });

    // ---- DHH (the strongest baseline) ---------------------------------
    let dhh = DhhJoin::with_defaults(spec);
    let baseline = scaling_table("DHH", expected, repeats, &device, |threads| {
        dhh.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, &Obs::off())
            .expect("DHH run")
    });
    traced_breakdown("DHH", &baseline, &device, |obs| {
        dhh.run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, 4, obs)
            .expect("traced DHH")
    });

    // ---- SMJ (parallel sort-run generation) ---------------------------
    let smj = SortMergeJoin::new(spec);
    let baseline = scaling_table("SMJ", expected, repeats, &device, |threads| {
        smj.run_parallel_obs(&wl.r, &wl.s, threads, &Obs::off())
            .expect("SMJ run")
    });
    traced_breakdown("SMJ", &baseline, &device, |obs| {
        smj.run_parallel_obs(&wl.r, &wl.s, 4, obs)
            .expect("traced SMJ")
    });

    // ---- Sharded statistics collection --------------------------------
    // The summary must be bit-identical at every thread count; the table
    // reports the wall-clock of the sharded S scan.
    let stats_config = StatsConfig::for_budget_pages(4, spec.page_size);
    let baseline_summary =
        StatsCollector::collect_parallel(stats_config, &wl.s, 1).expect("collection");
    println!("# stats collection scaling (sharded S scan, 4-page sketch budget)");
    println!("threads,wall_secs,speedup_vs_1,summary_identical_to_1_thread");
    scaling_rows(
        repeats,
        |threads| {
            StatsCollector::collect_parallel(stats_config, &wl.s, threads)
                .expect("parallel collection")
        },
        |threads, best, speedup, summary| {
            let identical = summary == baseline_summary;
            assert!(identical, "summary diverged at {threads} threads");
            println!("{threads},{best:.4},{speedup:.2},{identical}");
        },
    );

    if let Some(rig) = &faults {
        print_fault_summary("parallel_scaling", rig);
    }
}
