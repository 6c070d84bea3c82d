//! CPU-throughput trajectory of the record pipeline, recorded across PRs.
//!
//! Measures records/sec for four kernels on `SimDevice` (modeled I/O is
//! free, so this is pure CPU):
//!
//! * **build_probe** — load R into the in-memory hash table, probe it with
//!   every S record (throughput over `n_R + n_S` records);
//! * **partition_sweep** — one hash-route-and-copy pass over S into 64
//!   spill partitions (throughput over `n_S` records);
//! * **sort_run_gen** — external-sort run generation over S (chunk fill,
//!   sort, spill; throughput over `n_S` records);
//! * **smj_merge** — the fused SMJ merge-join over the pre-sorted runs of R
//!   and S (throughput over `n_R + n_S` records);
//!
//! plus the SIMD-era kernel rows, each measured against the same legacy
//! baseline as its unaccelerated sibling:
//!
//! * **build_probe_sealed** — build, `seal()` into the bucket-contiguous
//!   layout, then probe through the vectorized key compares;
//! * **partition_sweep_radix** — the partition sweep with the
//!   [`RadixRouter`](nocap_storage::RadixRouter) write buffers in front of
//!   the partition writers;
//! * **probe_bloom_skewed** — probe-only on a miss-heavy skewed S stream,
//!   bloom-filtered sealed probes vs the legacy hash-map probes.
//!
//! Each kernel runs both as the current zero-copy implementation and as a
//! faithful reproduction of the pre-refactor path (`Record::read_from` per
//! record + `HashMap<u64, Vec<Record>>` / owned-record pushes / stable
//! `Vec<Record>` chunk sorts / `BinaryHeap` merges — see
//! `nocap_bench::cpu`), so the printed speedups measure the arena refactors
//! directly. Results are written to `BENCH_cpu.json` in the working
//! directory so the perf trajectory is tracked across PRs. Pass `--quick`
//! for a smaller workload (CI smoke).

use std::time::Instant;

use nocap_bench::cpu;
use nocap_bench::harness::report_trace;
use nocap_joins::{merge_join_runs, GraceHashJoin, SortMergeJoin};
use nocap_model::JoinSpec;
use nocap_obs::Obs;
use nocap_storage::SimDevice;

/// Best-of-N wall-clock seconds for one kernel run.
fn best_secs(repeats: usize, mut f: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut result = 0u64;
    for _ in 0..repeats {
        let started = Instant::now();
        result = std::hint::black_box(f());
        best = best.min(started.elapsed().as_secs_f64());
    }
    (best, result)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n_r, n_s, repeats) = if quick {
        (10_000usize, 40_000usize, 2usize)
    } else {
        (100_000, 400_000, 5)
    };
    let record_bytes = 128;
    let partitions = 64;
    let sort_budget = 64;

    println!(
        "# exp_cpu_throughput: n_R = {n_r}, n_S = {n_s}, {record_bytes}-byte records, \
         {partitions} partitions, {sort_budget}-page sort budget, best of {repeats} runs"
    );

    let device = SimDevice::new_ref();
    let (r, s) =
        cpu::build_input(device, n_r, n_s, record_bytes, 4096).expect("workload generation");

    // ---- build + probe ---------------------------------------------------
    let bp_records = (n_r + n_s) as f64;
    let (legacy_secs, legacy_out) = best_secs(repeats, || cpu::build_probe_legacy(&r, &s).unwrap());
    let (fast_secs, fast_out) = best_secs(repeats, || cpu::build_probe_zero_copy(&r, &s).unwrap());
    assert_eq!(
        fast_out, legacy_out,
        "kernels must agree on the join output"
    );
    let bp_legacy = bp_records / legacy_secs;
    let bp_fast = bp_records / fast_secs;
    let bp_speedup = bp_fast / bp_legacy;

    // ---- sealed build + probe (SIMD key compares) ------------------------
    let (sealed_secs, sealed_out) = best_secs(repeats, || cpu::build_probe_sealed(&r, &s).unwrap());
    assert_eq!(
        sealed_out, legacy_out,
        "sealing must not change the join output"
    );
    let bp_sealed = bp_records / sealed_secs;
    let bp_sealed_speedup = bp_sealed / bp_legacy;

    // ---- partition sweep -------------------------------------------------
    let (sweep_legacy_secs, _) = best_secs(repeats, || {
        cpu::partition_sweep_legacy(&s, partitions).unwrap()
    });
    let (sweep_fast_secs, _) = best_secs(repeats, || {
        cpu::partition_sweep_zero_copy(&s, partitions).unwrap()
    });
    let sweep_legacy = n_s as f64 / sweep_legacy_secs;
    let sweep_fast = n_s as f64 / sweep_fast_secs;
    let sweep_speedup = sweep_fast / sweep_legacy;

    // ---- radix-buffered partition sweep ----------------------------------
    // The write buffers pay off at high fan-out, where the direct sweep's
    // open page buffers and writer metadata overflow the cache and every
    // route is a scattered miss; measured at 512-way against the legacy
    // sweep at the same fan-out.
    let radix_partitions = 8 * partitions;
    let (sweep_legacy_hi_secs, _) = best_secs(repeats, || {
        cpu::partition_sweep_legacy(&s, radix_partitions).unwrap()
    });
    let (sweep_radix_secs, radix_routed) = best_secs(repeats, || {
        cpu::partition_sweep_radix(&s, radix_partitions).unwrap()
    });
    assert_eq!(radix_routed, n_s as u64, "the radix sweep routes all of S");
    let sweep_legacy_hi = n_s as f64 / sweep_legacy_hi_secs;
    let sweep_radix = n_s as f64 / sweep_radix_secs;
    let sweep_radix_speedup = sweep_radix / sweep_legacy_hi;

    // ---- sort run generation ---------------------------------------------
    let (sort_legacy_secs, sort_legacy_out) =
        best_secs(repeats, || cpu::sort_runs_legacy(&s, sort_budget).unwrap());
    let (sort_fast_secs, sort_fast_out) = best_secs(repeats, || {
        cpu::sort_runs_zero_copy(&s, sort_budget).unwrap()
    });
    assert_eq!(sort_fast_out, sort_legacy_out, "both sweeps sort all of S");
    let sort_legacy = n_s as f64 / sort_legacy_secs;
    let sort_fast = n_s as f64 / sort_fast_secs;
    let sort_speedup = sort_fast / sort_legacy;

    // ---- fused SMJ merge-join --------------------------------------------
    // Run preparation is not part of the measured kernel: reading runs does
    // not consume them, so one sorted-run set serves every iteration. The
    // shares mirror the SMJ executor's size-proportional fan-in split at
    // this budget (fan-in 63, R:S ≈ 1:4).
    let r_runs = cpu::sorted_runs_for_merge(&r, sort_budget, 12).expect("R runs");
    let s_runs = cpu::sorted_runs_for_merge(&s, sort_budget, 51).expect("S runs");
    let merge_records = (n_r + n_s) as f64;
    let (merge_legacy_secs, merge_legacy_out) = best_secs(repeats, || {
        cpu::merge_join_legacy(&r_runs, &s_runs).unwrap()
    });
    let (merge_fast_secs, merge_fast_out) =
        best_secs(repeats, || merge_join_runs(&r_runs, &s_runs).unwrap());
    assert_eq!(
        merge_fast_out, merge_legacy_out,
        "merge kernels must agree on the join output"
    );
    let merge_legacy = merge_records / merge_legacy_secs;
    let merge_fast = merge_records / merge_fast_secs;
    let merge_speedup = merge_fast / merge_legacy;
    for run in r_runs.into_iter().chain(s_runs) {
        run.delete().expect("run cleanup");
    }

    // ---- bloom-filtered probes on a skewed, miss-heavy S -----------------
    // Table/bloom/legacy-map construction is prep, not kernel: only the
    // probe loop over S is timed, so the row isolates what the bloom
    // pre-filter buys when most probes would miss.
    let bloom_device = SimDevice::new_ref();
    let (br, bs) = cpu::build_skewed_probe_input(bloom_device, n_r, n_s, record_bytes, 4096)
        .expect("skewed probe workload");
    let legacy_table = cpu::build_legacy_table(&br).expect("legacy table");
    let (sealed_table, bloom) = cpu::sealed_table_and_bloom(&br).expect("sealed table + bloom");
    let (probe_legacy_secs, probe_legacy_out) = best_secs(repeats, || {
        cpu::probe_legacy_table(&legacy_table, &bs).unwrap()
    });
    let (probe_bloom_secs, probe_bloom_out) = best_secs(repeats, || {
        cpu::probe_bloom_filtered(&sealed_table, &bloom, &bs).unwrap()
    });
    assert_eq!(
        probe_bloom_out, probe_legacy_out,
        "the bloom filter must not change the join output"
    );
    let probe_legacy_rps = n_s as f64 / probe_legacy_secs;
    let probe_bloom_rps = n_s as f64 / probe_bloom_secs;
    let probe_bloom_speedup = probe_bloom_rps / probe_legacy_rps;

    println!("kernel,legacy_records_per_sec,zero_copy_records_per_sec,speedup");
    println!("build_probe,{bp_legacy:.0},{bp_fast:.0},{bp_speedup:.2}");
    println!("build_probe_sealed,{bp_legacy:.0},{bp_sealed:.0},{bp_sealed_speedup:.2}");
    println!("partition_sweep,{sweep_legacy:.0},{sweep_fast:.0},{sweep_speedup:.2}");
    println!(
        "partition_sweep_radix,{sweep_legacy_hi:.0},{sweep_radix:.0},{sweep_radix_speedup:.2}"
    );
    println!("sort_run_gen,{sort_legacy:.0},{sort_fast:.0},{sort_speedup:.2}");
    println!("smj_merge,{merge_legacy:.0},{merge_fast:.0},{merge_speedup:.2}");
    println!(
        "probe_bloom_skewed,{probe_legacy_rps:.0},{probe_bloom_rps:.0},{probe_bloom_speedup:.2}"
    );

    // ---- end-to-end phase breakdowns (recorder on vs off) ----------------
    // One full SMJ and GHJ run with the trace recorder enabled shows where
    // the kernels above sit inside a complete join; the recorder-off rerun
    // pins the no-op path's overhead (both runs are printed so regressions
    // are visible in the log next to BENCH_cpu.json's trajectory).
    let spec = JoinSpec::paper_synthetic(record_bytes, sort_budget);
    let smj = SortMergeJoin::new(spec);
    let ghj = GraceHashJoin::new(spec);
    type TracedRun<'a> = Box<dyn Fn(&Obs) -> nocap_model::JoinRunReport + 'a>;
    let runs: [(&str, TracedRun); 2] = [
        (
            "SMJ",
            Box::new(|obs| smj.run_parallel_obs(&r, &s, 1, obs).expect("SMJ run")),
        ),
        (
            "GHJ",
            Box::new(|obs| ghj.run_parallel_obs(&r, &s, 1, obs).expect("GHJ run")),
        ),
    ];
    for (label, run) in &runs {
        let (off_secs, off_out) = best_secs(repeats, || run(&Obs::off()).output_records);
        let obs = Obs::recording();
        let traced = run(&obs);
        assert_eq!(traced.output_records, off_out);
        println!(
            "# {label} end-to-end: recorder off {off_secs:.4}s (best of {repeats}), \
             recorder on {:.4}s (single run)",
            traced.wall_seconds
        );
        report_trace(label, &traced);
    }

    let json = format!(
        "{{\n  \"config\": {{ \"n_r\": {n_r}, \"n_s\": {n_s}, \"record_bytes\": {record_bytes}, \
         \"partitions\": {partitions}, \"sort_budget_pages\": {sort_budget}, \
         \"repeats\": {repeats}, \"quick\": {quick} }},\n  \
         \"build_probe\": {{ \"legacy_records_per_sec\": {bp_legacy:.0}, \
         \"zero_copy_records_per_sec\": {bp_fast:.0}, \"speedup\": {bp_speedup:.3} }},\n  \
         \"build_probe_sealed\": {{ \"legacy_records_per_sec\": {bp_legacy:.0}, \
         \"zero_copy_records_per_sec\": {bp_sealed:.0}, \"speedup\": {bp_sealed_speedup:.3} }},\n  \
         \"partition_sweep\": {{ \"legacy_records_per_sec\": {sweep_legacy:.0}, \
         \"zero_copy_records_per_sec\": {sweep_fast:.0}, \"speedup\": {sweep_speedup:.3} }},\n  \
         \"partition_sweep_radix\": {{ \"partitions\": {radix_partitions}, \
         \"legacy_records_per_sec\": {sweep_legacy_hi:.0}, \
         \"zero_copy_records_per_sec\": {sweep_radix:.0}, \"speedup\": {sweep_radix_speedup:.3} }},\n  \
         \"sort_run_gen\": {{ \"legacy_records_per_sec\": {sort_legacy:.0}, \
         \"zero_copy_records_per_sec\": {sort_fast:.0}, \"speedup\": {sort_speedup:.3} }},\n  \
         \"smj_merge\": {{ \"legacy_records_per_sec\": {merge_legacy:.0}, \
         \"zero_copy_records_per_sec\": {merge_fast:.0}, \"speedup\": {merge_speedup:.3} }},\n  \
         \"probe_bloom_skewed\": {{ \"legacy_records_per_sec\": {probe_legacy_rps:.0}, \
         \"zero_copy_records_per_sec\": {probe_bloom_rps:.0}, \"speedup\": {probe_bloom_speedup:.3} }}\n}}\n"
    );
    std::fs::write("BENCH_cpu.json", &json).expect("write BENCH_cpu.json");
    println!("# wrote BENCH_cpu.json");
}
