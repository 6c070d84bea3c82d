//! Zero-copy pipeline equivalence: the refactored executors must produce
//! the same join output AND the same per-phase modeled I/O as the
//! pre-refactor record pipelines.
//!
//! `legacy_nocap_run` below is a faithful reproduction of the NOCAP
//! executor as it existed before the zero-copy refactor: records are
//! materialized through the owned-record iterator path (`Record::read_from`
//! per record — one heap allocation each), the in-memory build side is a
//! `HashMap<u64, Vec<Record>>`, and the residual partitioner stages owned
//! `Vec<Record>`s. Everything that drives the *modeled I/O* — the plan, the
//! quota geometry, the rounded-hash router, the spill-page accounting, the
//! partition-wise probe — is shared, so if the zero-copy path routes even
//! one record differently, a phase trace diverges and this suite fails.
//!
//! `legacy_smj_run` does the same for the external sorter: run generation
//! through owned `Vec<Record>` chunk buffers with a stable sort, heap-based
//! (`BinaryHeap<Reverse<(key, run)>>`) merge passes and a fused merge-join
//! over peekable owned-record merges (`nocap_bench::cpu::LegacySorter` /
//! `merge_join_legacy`) — pinning the arena sorter + loser-tree rewrite to
//! the exact output and per-phase I/O of the pre-rewrite SMJ.
//!
//! Coverage: skewed (Zipf 1.1), uniform and JCC-H (tuned skew) workloads,
//! each checked against the executor at 1, 2 and 4 threads (one thread is
//! the sequential run).

use std::collections::HashMap;

use nocap_bench::cpu::{merge_join_legacy, LegacySorter};
use nocap_suite::joins::SortMergeJoin;
use nocap_suite::model::pairwise::smart_partition_join;
use nocap_suite::model::JoinSpec;
use nocap_suite::nocap::{plan_nocap, NocapConfig, NocapJoin, RestGeometry};
use nocap_suite::obs::Obs;
use nocap_suite::storage::{
    BufferPool, IoKind, IoStats, PartitionHandle, PartitionWriter, Record, Relation,
};
use nocap_suite::workload::jcch::{self, JcchConfig, JcchSkew};
use nocap_suite::workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

/// The pre-refactor NOCAP executor: owned records everywhere, map-of-vecs
/// build side, `Vec<Record>` staging, one thread. Mirrors the sequential
/// NOCAP executor line for line, including every buffer-pool reservation,
/// so the residual budget and the quota geometry are identical.
fn legacy_nocap_run(
    spec: &JoinSpec,
    config: &NocapConfig,
    r: &Relation,
    s: &Relation,
    mcvs: &[(u64, u64)],
) -> (u64, IoStats, IoStats) {
    let plan = plan_nocap(
        mcvs,
        r.num_records(),
        s.num_records() as u64,
        spec,
        &config.planner,
    );
    let device = r.device().clone();
    let pool = BufferPool::new(spec.buffer_pages);
    let _io_pages = pool.reserve(2).unwrap();
    let _fixed = pool
        .reserve(plan.fixed_memory_pages(spec).min(pool.available()))
        .unwrap();
    let rest_budget = pool.available();
    let base_stats = device.stats();

    let mem_set = plan.mem_key_set();
    let disk_map = plan.disk_map();
    let m_disk = plan.num_designated();

    let geometry = RestGeometry::new(
        spec,
        rest_budget,
        plan.estimated_rest_keys,
        config.planner.rh_params,
    );
    let num_rest = geometry.num_partitions();

    // ---- Phase 1: partition R (owned records, map build side) -----------
    let mut ht_mem: HashMap<u64, Vec<Record>> = HashMap::new();
    let mut r_disk_writers: Vec<PartitionWriter> = (0..m_disk)
        .map(|_| {
            PartitionWriter::new(
                device.clone(),
                r.layout(),
                spec.page_size,
                IoKind::RandWrite,
            )
        })
        .collect();
    let mut staged: Vec<Vec<Record>> = vec![Vec::new(); num_rest];
    let mut rest_writers: Vec<Option<PartitionWriter>> = (0..num_rest).map(|_| None).collect();
    let mut pob = vec![false; num_rest];
    for rec in r.scan() {
        let rec = rec.unwrap();
        if mem_set.contains(&rec.key()) {
            ht_mem.entry(rec.key()).or_default().push(rec);
        } else if let Some(&pid) = disk_map.get(&rec.key()) {
            r_disk_writers[pid as usize].push(&rec).unwrap();
        } else {
            let p = geometry.rh.partition_of(rec.key());
            if pob[p] {
                rest_writers[p].as_mut().unwrap().push(&rec).unwrap();
                continue;
            }
            staged[p].push(rec);
            if spec.hash_table_pages(staged[p].len()).max(1) > geometry.caps[p] {
                // Destage: drain the staged records into a fresh writer.
                let mut writer = PartitionWriter::new(
                    device.clone(),
                    r.layout(),
                    spec.page_size,
                    IoKind::RandWrite,
                );
                for staged_rec in staged[p].drain(..) {
                    writer.push(&staged_rec).unwrap();
                }
                rest_writers[p] = Some(writer);
                pob[p] = true;
            }
        }
    }
    for records in staged {
        for rec in records {
            ht_mem.entry(rec.key()).or_default().push(rec);
        }
    }
    let r_disk_handles: Vec<PartitionHandle> = r_disk_writers
        .into_iter()
        .map(|w| w.finish().unwrap())
        .collect();
    let rest_handles: Vec<Option<PartitionHandle>> = rest_writers
        .into_iter()
        .map(|w| w.map(|w| w.finish().unwrap()))
        .collect();

    // ---- Phase 2: partition / probe S ------------------------------------
    let mut output = 0u64;
    let mut s_disk_writers: Vec<PartitionWriter> = (0..m_disk)
        .map(|_| {
            PartitionWriter::new(
                device.clone(),
                s.layout(),
                spec.page_size,
                IoKind::RandWrite,
            )
        })
        .collect();
    let mut s_rest_writers: Vec<Option<PartitionWriter>> = pob
        .iter()
        .map(|&spilled| {
            spilled.then(|| {
                PartitionWriter::new(
                    device.clone(),
                    s.layout(),
                    spec.page_size,
                    IoKind::RandWrite,
                )
            })
        })
        .collect();
    for rec in s.scan() {
        let rec = rec.unwrap();
        if let Some(&pid) = disk_map.get(&rec.key()) {
            s_disk_writers[pid as usize].push(&rec).unwrap();
            continue;
        }
        if let Some(matches) = ht_mem.get(&rec.key()) {
            output += matches.len() as u64;
            continue;
        }
        let part = geometry.rh.partition_of(rec.key());
        if pob[part] {
            s_rest_writers[part].as_mut().unwrap().push(&rec).unwrap();
        }
    }
    let partition_io = device.stats().since(&base_stats);

    // ---- Phase 3: partition-wise joins ------------------------------------
    let probe_base = device.stats();
    let s_disk_handles: Vec<PartitionHandle> = s_disk_writers
        .into_iter()
        .map(|w| w.finish().unwrap())
        .collect();
    for (r_part, s_part) in r_disk_handles.iter().zip(s_disk_handles.iter()) {
        output += smart_partition_join(r_part, s_part, spec, 1).unwrap();
    }
    for (idx, maybe_r) in rest_handles.iter().enumerate() {
        let Some(r_part) = maybe_r else { continue };
        let Some(s_writer) = s_rest_writers[idx].take() else {
            continue;
        };
        let s_part = s_writer.finish().unwrap();
        output += smart_partition_join(r_part, &s_part, spec, 1).unwrap();
        s_part.delete().unwrap();
    }
    let probe_io = device.stats().since(&probe_base);

    for h in r_disk_handles.into_iter().chain(s_disk_handles) {
        h.delete().unwrap();
    }
    for h in rest_handles.into_iter().flatten() {
        h.delete().unwrap();
    }
    (output, partition_io, probe_io)
}

/// The pre-rewrite SMJ executor: owned-record run generation (stable
/// `Vec<Record>` chunk sorts), heap-based merge passes, and the fused
/// merge-join over peekable owned-record merge iterators. Mirrors the old
/// single-threaded SMJ executor line for line — including the `.max(4)` budget
/// fallback and the size-proportional fan-in split — so output and
/// per-phase I/O pin the arena sorter + loser-tree rewrite exactly.
fn legacy_smj_run(spec: &JoinSpec, r: &Relation, s: &Relation) -> (u64, IoStats, IoStats) {
    let device = r.device().clone();
    let base = device.stats();

    let budget = spec.buffer_pages.max(4);
    let fan_in = (budget - 1).max(4);
    let total_pages = (r.num_pages() + s.num_pages()).max(1);
    let r_share = ((fan_in * r.num_pages()) / total_pages).clamp(2, fan_in - 2);
    let s_share = (fan_in - r_share).max(2);

    let mut r_sorter = LegacySorter::new(device.clone(), budget);
    let r_runs = r_sorter.sort_to_runs(r, r_share).unwrap();
    let mut s_sorter = LegacySorter::new(device.clone(), budget);
    let s_runs = s_sorter.sort_to_runs(s, s_share).unwrap();
    let partition_io = device.stats().since(&base);

    let probe_base = device.stats();
    let output = merge_join_legacy(&r_runs, &s_runs).unwrap();
    let probe_io = device.stats().since(&probe_base);

    for run in r_runs.into_iter().chain(s_runs) {
        run.delete().unwrap();
    }
    (output, partition_io, probe_io)
}

enum Workload {
    Synthetic(Correlation),
    Jcch(JcchSkew),
}

/// Generates the workload fresh on its own device (same seed → identical
/// relations).
fn generate(workload: &Workload, record_bytes: usize) -> GeneratedWorkload {
    let device = nocap_suite::storage::SimDevice::new_ref();
    let wl = match workload {
        Workload::Synthetic(correlation) => {
            let config = SyntheticConfig {
                n_r: 5_000,
                n_s: 40_000,
                record_bytes,
                correlation: *correlation,
                mcv_count: 250,
                seed: 0xEC0,
            };
            synthetic::generate(device.clone(), &config).expect("synthetic workload")
        }
        Workload::Jcch(skew) => {
            let config = JcchConfig {
                n_orders: 5_000,
                n_lineitems: 40_000,
                skew: *skew,
                record_bytes,
                mcv_count: 250,
                seed: 0x1CC4,
            };
            jcch::generate(device.clone(), &config).expect("jcch workload")
        }
    };
    device.reset_stats();
    wl
}

#[test]
fn zero_copy_executors_match_the_legacy_pipeline_exactly() {
    let record_bytes = 128;
    let workloads = [
        (
            "zipf_1.1",
            Workload::Synthetic(Correlation::Zipf { alpha: 1.1 }),
        ),
        ("uniform", Workload::Synthetic(Correlation::Uniform)),
        ("jcch_tuned", Workload::Jcch(JcchSkew::Tuned)),
    ];
    for (name, workload) in &workloads {
        for budget in [32usize, 96] {
            let spec = JoinSpec::paper_synthetic(record_bytes, budget);
            let config = NocapConfig::default();
            let join = NocapJoin::new(spec, config);

            // The pre-refactor reference.
            let wl = generate(workload, record_bytes);
            let (legacy_out, legacy_part, legacy_probe) =
                legacy_nocap_run(&spec, &config, &wl.r, &wl.s, &wl.mcvs);
            assert_eq!(
                legacy_out,
                wl.expected_join_output(),
                "{name}/B={budget}: legacy reference must be correct"
            );

            // The zero-copy executor at 1, 2 and 4 workers.
            for threads in [1usize, 2, 4] {
                let wl = generate(workload, record_bytes);
                let par = join
                    .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, &Obs::off())
                    .expect("NOCAP run");
                assert_eq!(
                    par.output_records, legacy_out,
                    "{name}/B={budget}/n={threads}: output diverged"
                );
                assert_eq!(
                    par.partition_io, legacy_part,
                    "{name}/B={budget}/n={threads}: partition-phase I/O diverged"
                );
                assert_eq!(
                    par.probe_io, legacy_probe,
                    "{name}/B={budget}/n={threads}: probe-phase I/O diverged"
                );
            }
        }
    }
}

#[test]
fn arena_sorter_matches_the_legacy_sorter_pipeline_exactly() {
    let record_bytes = 128;
    let workloads = [
        (
            "zipf_1.1",
            Workload::Synthetic(Correlation::Zipf { alpha: 1.1 }),
        ),
        ("uniform", Workload::Synthetic(Correlation::Uniform)),
        ("jcch_tuned", Workload::Jcch(JcchSkew::Tuned)),
    ];
    for (name, workload) in &workloads {
        for budget in [32usize, 96] {
            let spec = JoinSpec::paper_synthetic(record_bytes, budget);
            let smj = SortMergeJoin::new(spec);

            // The pre-rewrite reference: owned-record sorter + heap merge.
            let wl = generate(workload, record_bytes);
            let (legacy_out, legacy_part, legacy_probe) = legacy_smj_run(&spec, &wl.r, &wl.s);
            assert_eq!(
                legacy_out,
                wl.expected_join_output(),
                "{name}/B={budget}: legacy SMJ reference must be correct"
            );

            // Arena sorter + loser-tree merge, run generation at 1, 2 and 4
            // workers.
            for threads in [1usize, 2, 4] {
                let wl = generate(workload, record_bytes);
                let par = smj
                    .run_parallel_obs(&wl.r, &wl.s, threads, &Obs::off())
                    .expect("SMJ run");
                assert_eq!(
                    par.output_records, legacy_out,
                    "{name}/B={budget}/n={threads}: SMJ output diverged"
                );
                assert_eq!(
                    par.partition_io, legacy_part,
                    "{name}/B={budget}/n={threads}: sort-phase I/O diverged"
                );
                assert_eq!(
                    par.probe_io, legacy_probe,
                    "{name}/B={budget}/n={threads}: fused-merge I/O diverged"
                );
            }
        }
    }
}
