//! The NOCAP executor body (Algorithms 8 and 9) and its entry points.
//!
//! There is one executor for every thread count; `threads = 1` is the
//! sequential run. The partitioning passes route each record
//! independently, so [`NocapJoin::run_parallel_with_plan_obs`] shards both
//! scans across a worker pool (`nocap-par`) and fans the partition-wise
//! probe phase out over the spilled partition pairs. It is built so that
//! **the join output and the modeled I/O trace do not depend on the thread
//! count**:
//!
//! * Workers scan disjoint page ranges ([`page_shards`]), so the base scans
//!   cost exactly `‖R‖ + ‖S‖` sequential reads.
//! * Every spill partition keeps **one** shared output-buffer page
//!   ([`SharedWriterSet`]), so a partition receiving `n` records flushes
//!   exactly `⌈n / b⌉` random writes regardless of arrival order.
//! * Residual destaging uses the deterministic per-partition quotas of
//!   [`RestGeometry`](crate::exec::RestGeometry): a partition's page-out
//!   bit depends only on its total record count, never on interleaving.
//! * The probe phase joins the same partition pairs with the same
//!   [`smart_partition_join`]; each pair's I/O is independent of the order
//!   pairs are claimed from the work queue.
//!
//! During the partitioning phases memory stays inside the §4.1 budget: the
//! pool reserves the two streaming pages and the plan's fixed structures,
//! and the residual budget is carved into per-partition quotas whose
//! reservations are visible in the pool. Two knowing simplifications: each
//! worker holds one transient scan-buffer page (the model charges one
//! logical input page for the pipeline, as the paper does), and the
//! fanned-out probe phase runs up to `threads` partition-pair NBJs
//! concurrently, each with the `B − 2`-page chunk the cost model prescribes
//! — peak physical probe memory is `threads × B` pages even though the
//! modeled I/O is unchanged. Use fewer threads when physical memory, not
//! I/O, is the binding constraint.

use std::sync::Mutex;

use nocap_model::pairwise::smart_partition_join;
use nocap_model::JoinRunReport;
use nocap_obs::{Obs, Phase};
use nocap_par::{page_shards, run_workers_obs, sum_tasks_obs, ParallelStager, SharedWriterSet};
use nocap_stats::{StatsCollector, StatsSummary};
use nocap_storage::{
    into_inner_unpoisoned, lock_unpoisoned, BufferPool, IoKind, JoinHashTable, PartitionHandle,
    RadixRouter, Relation, Reservation, SpillGuard,
};

use crate::exec::{NocapJoin, RestGeometry};
use crate::plan::NocapPlan;
use crate::planner::plan_nocap;

impl NocapJoin {
    /// Plans and executes the join of `r ⋈ s` on `threads` worker threads.
    ///
    /// `threads == 0` selects [`nocap_par::default_threads`] (the
    /// `NOCAP_THREADS` environment variable, falling back to the machine's
    /// parallelism). The plan is computed before any clock is read; with a
    /// recording `obs`, phase spans, per-worker timelines, skew histograms
    /// and counters land in the report's `trace`.
    pub fn run_parallel_obs(
        &self,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let plan = plan_nocap(
            mcvs,
            r.num_records(),
            s.num_records() as u64,
            self.spec(),
            &self.config().planner,
        );
        self.run_parallel_with_plan_obs(r, s, &plan, threads, obs)
    }

    /// Plans and executes the join purely from a one-pass sketch summary —
    /// no `CorrelationTable` oracle anywhere on this path.
    ///
    /// The summary's planner statistics stand in for the exact top-k MCVs
    /// and its exact stream length stands in for `n_S`. On skewed streams
    /// those statistics are the SpaceSaving counts; on near-uniform streams
    /// [`StatsSummary::planner_mcvs`] substitutes equi-width histogram
    /// masses, whose per-key estimates are unbiased where SpaceSaving is
    /// noise-dominated. This is the deployable configuration: everything
    /// the planner consumes was produced by `nocap-stats` sketches within a
    /// bounded page budget.
    pub fn run_parallel_with_collected_stats_obs(
        &self,
        r: &Relation,
        s: &Relation,
        stats: &StatsSummary,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let mcvs = stats.planner_mcvs();
        let plan = plan_nocap(
            &mcvs,
            r.num_records(),
            stats.stream_len(),
            self.spec(),
            &self.config().planner,
        );
        self.run_parallel_with_plan_obs(r, s, &plan, threads, obs)
    }

    /// The fully self-contained pipeline: sharded sketch collection over S
    /// ([`StatsCollector::collect_parallel_with_budget_obs`]), planning from
    /// the summary alone, and execution — every stage on `threads` workers.
    ///
    /// The sharded collector's summary is bit-identical for every thread
    /// count, so the plan, the output and the per-phase modeled I/O are too.
    /// `stats_pages` is the per-shard-collector budget; the fixed
    /// [`STATS_SHARDS`](nocap_stats::STATS_SHARDS)-way shard geometry
    /// multiplies the resident charge. The extra scan of S shows up in the
    /// device's I/O trace (each page is read exactly once) and as a `stats`
    /// phase span; requesting more statistics memory than the spec's buffer
    /// budget holds fails with
    /// [`OutOfMemory`](nocap_storage::StorageError::OutOfMemory).
    pub fn collect_and_run_parallel_obs(
        &self,
        r: &Relation,
        s: &Relation,
        stats_pages: usize,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        // Attach before the sketch pass so stats-phase reads land in the
        // same I/O trace as the join; the inner attach in
        // `run_parallel_with_plan_obs` nests onto this one.
        let _io_trace = obs.attach_io(s.device());
        let pool = BufferPool::new(self.spec().buffer_pages);
        let summary = StatsCollector::collect_parallel_with_budget_obs(
            &pool,
            stats_pages,
            self.spec().page_size,
            s,
            threads,
            obs,
        )?;
        drop(pool);
        self.run_parallel_with_collected_stats_obs(r, s, &summary, threads, obs)
    }

    /// Executes a pre-computed plan on `threads` worker threads — the NOCAP
    /// executor body every other entry point ends in. With a recording
    /// `obs`: main-thread phase spans around each pass, per-worker scan
    /// spans, per-task probe spans, partition skew histograms and the
    /// buffer-pool high-water gauge. Recording never influences routing,
    /// destaging or claim order — clocks stay in the obs channel.
    pub fn run_parallel_with_plan_obs(
        &self,
        r: &Relation,
        s: &Relation,
        plan: &NocapPlan,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let threads = if threads == 0 {
            nocap_par::default_threads()
        } else {
            threads
        };
        let spec = *self.spec();
        let device = r.device().clone();
        let _io_trace = obs.attach_io(&device);
        let pool = BufferPool::new(spec.buffer_pages);
        // The §4.1 budget breakdown: one streaming input page, one output
        // page, then the plan's fixed structures.
        let _io_pages = pool.reserve(2)?;
        let _fixed = pool.reserve(plan.fixed_memory_pages(&spec).min(pool.available()))?;
        let rest_budget = pool.available();
        // Reserve the probe-side bloom *after* reading the residual budget
        // (so partition geometry and quotas never shift) and *before* the
        // quota carving below consumes every remaining page; an exhausted
        // pool skips the filter instead of failing. Its bits depend only on
        // the staged key multiset — thread-count invariant.
        let bloom_reservation = self.config().bloom.reserve(&pool);

        let timer = obs.run_timer();
        let base_stats = device.stats();

        let mem_set = plan.mem_key_set();
        let disk_map = plan.disk_map();
        let m_disk = plan.num_designated();

        let geometry = RestGeometry::new(
            &spec,
            rest_budget,
            plan.estimated_rest_keys,
            self.config().planner.rh_params,
        );
        // Make the quota carving visible to the pool: one reservation per
        // residual partition, together covering exactly the residual budget
        // (the same even split as `geometry.caps`).
        let _quotas: Vec<Reservation> = pool.carve_remaining(geometry.num_partitions());

        // ---- Phase 1: partition R (Algorithm 8, sharded) -----------------
        let stager = ParallelStager::new(device.clone(), r.layout(), spec, geometry.caps.clone());
        let r_disk = SharedWriterSet::new(
            device.clone(),
            r.layout(),
            spec.page_size,
            IoKind::RandWrite,
            m_disk,
        );
        let ht_shared = Mutex::new(JoinHashTable::new(r.layout(), spec.page_size, spec.fudge));
        let r_shards = page_shards(r.num_pages(), threads);
        let r_partition_span = obs.span(Phase::Partition);
        let stages = run_workers_obs(threads, obs, Phase::Partition, |w, _wobs| {
            let mut stage = stager.worker_stage();
            // Per-worker radix write buffers: residual records batch up per
            // partition and flush into the stager in cache-friendly runs.
            // Per-partition arrival order within this worker is preserved
            // and quota destaging depends only on per-partition counts, so
            // staged contents and spill decisions are unchanged.
            let mut router = RadixRouter::new(r.layout(), geometry.num_partitions());
            let mut scan = r.scan_range(r_shards[w].clone());
            while let Some(page) = scan.next_page()? {
                for rec in page.record_refs() {
                    if mem_set.contains(&rec.key()) {
                        // R is the primary-key side: cached keys are rare, so
                        // this lock is cold.
                        lock_unpoisoned(&ht_shared).insert_ref(rec);
                    } else if let Some(&pid) = disk_map.get(&rec.key()) {
                        r_disk.push(pid as usize, rec)?;
                    } else {
                        let p = geometry.rh.partition_of(rec.key());
                        router.push(p, rec, &mut |p, r| stager.insert(&mut stage, p, r))?;
                    }
                }
            }
            router.finish(&mut |p, r| stager.insert(&mut stage, p, r))?;
            Ok(stage)
        })?;
        drop(r_partition_span);
        let spill_span = obs.span(Phase::Spill);
        let rest_build = stager.finish(stages)?;
        // Every finished spill handle is adopted immediately, so an error
        // anywhere below — probing, a faulted device — deletes all spill
        // files on unwind.
        let mut spill_guard = SpillGuard::new();
        spill_guard.adopt_all(rest_build.spilled.iter().flatten().cloned());
        let r_disk_handles = r_disk.finish_dense()?;
        spill_guard.adopt_all(r_disk_handles.iter().cloned());
        drop(spill_span);
        let mut ht_mem = into_inner_unpoisoned(ht_shared);
        {
            let _build_span = obs.span(Phase::Build);
            for rec in rest_build.staged_records.iter() {
                ht_mem.insert_ref(rec);
            }
        }
        // Freeze the completed build side for vectorized probes and build
        // the probe pre-filter from its keys (order-invariant bit contents).
        ht_mem.seal();
        let bloom = self
            .config()
            .bloom
            .build(&ht_mem, &bloom_reservation, spec.page_size);

        // ---- Phase 2: partition / probe S (Algorithm 9, sharded) ---------
        let s_disk = SharedWriterSet::new(
            device.clone(),
            s.layout(),
            spec.page_size,
            IoKind::RandWrite,
            m_disk,
        );
        let s_rest = SharedWriterSet::new_masked(
            device.clone(),
            s.layout(),
            spec.page_size,
            IoKind::RandWrite,
            &rest_build.pob,
        );
        let s_shards = page_shards(s.num_pages(), threads);
        let ht_ref = &ht_mem;
        let bloom_ref = &bloom;
        let pob = &rest_build.pob;
        let s_partition_span = obs.span(Phase::Partition);
        let probe_counts = run_workers_obs(threads, obs, Phase::Partition, |w, _wobs| {
            let mut output = 0u64;
            let mut scan = s.scan_range(s_shards[w].clone());
            while let Some(page) = scan.next_page()? {
                for rec in page.record_refs() {
                    if let Some(&pid) = disk_map.get(&rec.key()) {
                        s_disk.push(pid as usize, rec)?;
                        continue;
                    }
                    // Bloom-negative keys take the identical `matches == 0`
                    // route (no false negatives), so routing and modeled
                    // I/O match the filterless run bit for bit.
                    let matches = if bloom_ref.as_ref().is_none_or(|b| b.may_contain(rec.key())) {
                        ht_ref.probe_count(rec.key())
                    } else {
                        0
                    };
                    if matches > 0 {
                        output += matches;
                        continue;
                    }
                    let part = geometry.rh.partition_of(rec.key());
                    if pob[part] {
                        s_rest.push(part, rec)?;
                    }
                    // else: the partition stayed in memory and the key had
                    // no match.
                }
            }
            Ok(output)
        })?;
        let mut output: u64 = probe_counts.into_iter().sum();
        drop(s_partition_span);
        let partition_io = device.stats().since(&base_stats);
        record_partition_skew(
            obs,
            &r_disk_handles,
            rest_build.spilled.iter().flatten(),
            rest_build.pob.len(),
        );

        // ---- Phase 3: partition-wise joins, fanned out -------------------
        // Partial output-buffer pages flush inside this probe window.
        let probe_base = device.stats();
        let probe_span = obs.span(Phase::Probe);
        let s_disk_handles = s_disk.finish_dense()?;
        spill_guard.adopt_all(s_disk_handles.iter().cloned());
        let s_rest_handles = s_rest.finish_all()?;
        spill_guard.adopt_all(s_rest_handles.iter().flatten().cloned());
        let mut pairs: Vec<(PartitionHandle, PartitionHandle)> = Vec::new();
        for (r_part, s_part) in r_disk_handles.iter().zip(s_disk_handles.iter()) {
            pairs.push((r_part.clone(), s_part.clone()));
        }
        for (maybe_r, maybe_s) in rest_build.spilled.iter().zip(s_rest_handles.iter()) {
            if let (Some(r_part), Some(s_part)) = (maybe_r, maybe_s) {
                pairs.push((r_part.clone(), s_part.clone()));
            }
        }
        output += sum_tasks_obs(threads, obs, Phase::Probe, pairs.len(), |i| {
            smart_partition_join(&pairs[i].0, &pairs[i].1, &spec, 1)
        })?;
        drop(probe_span);
        let probe_io = device.stats().since(&probe_base);

        // Dropping the guard deletes every spill file (not counted as I/O).
        drop(spill_guard);

        obs.gauge_max("buffer_pool_peak_pages", pool.peak() as u64);
        let mut report = JoinRunReport::new("NOCAP");
        report.output_records = output;
        report.partition_io = partition_io;
        report.probe_io = probe_io;
        report.finish_run(timer, obs);
        Ok(report)
    }
}

/// Records NOCAP's partition-fan-out skew histograms and counters:
/// per-spilled-partition record and page counts (designated partitions
/// first, then destaged residuals) plus the partition-census counters the
/// breakdown tables report.
fn record_partition_skew<'a>(
    obs: &Obs,
    designated: &'a [PartitionHandle],
    spilled_rest: impl Iterator<Item = &'a PartitionHandle> + Clone,
    rest_partitions: usize,
) {
    if !obs.is_recording() {
        return;
    }
    let handles = || designated.iter().chain(spilled_rest.clone());
    obs.values("partition_records", handles().map(|h| h.records() as u64));
    obs.values("partition_pages", handles().map(|h| h.pages() as u64));
    obs.count("designated_partitions", designated.len() as u64);
    obs.count("rest_partitions", rest_partitions as u64);
    obs.count("spilled_rest_partitions", spilled_rest.count() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::NocapConfig;
    use nocap_joins::testutil::{assert_parallel_equivalence, pinned_report};
    use nocap_model::JoinSpec;
    use nocap_storage::{Record, SimDevice};

    /// Builds a deterministic workload on a fresh device: R holds keys
    /// `0..n_r`, S holds `counts(k)` records per key, shuffled.
    fn build(
        n_r: u64,
        counts: impl Fn(u64) -> u64,
        spec: &JoinSpec,
    ) -> (Relation, Relation, Vec<(u64, u64)>) {
        let device = SimDevice::new_ref();
        let payload = spec.r_layout.payload_bytes();
        let r = Relation::bulk_load(
            device.clone(),
            spec.r_layout,
            spec.page_size,
            (0..n_r).map(|k| Record::with_fill(k, payload, 1)),
        )
        .unwrap();
        let mut s_keys: Vec<u64> = Vec::new();
        for k in 0..n_r {
            for _ in 0..counts(k) {
                s_keys.push(k);
            }
        }
        let salt = s_keys.len() as u64;
        s_keys.sort_by_key(|&k| crate::rounded_hash::mix_key(k.wrapping_add(salt)));
        let s = Relation::bulk_load(
            device.clone(),
            spec.s_layout,
            spec.page_size,
            s_keys.iter().map(|&k| Record::with_fill(k, payload, 2)),
        )
        .unwrap();
        let mut mcv: Vec<(u64, u64)> = (0..n_r).map(|k| (k, counts(k))).collect();
        mcv.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        mcv.truncate((n_r as usize / 20).max(10));
        device.reset_stats();
        (r, s, mcv)
    }

    #[test]
    fn parallel_matches_sequential_io_and_output_exactly() {
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 8 { 250 } else { 2 };
        let join = NocapJoin::new(spec, NocapConfig::default());
        assert_parallel_equivalence(
            "nocap/skewed",
            &[1, 2, 4],
            &pinned_report(7_984, [355, 0, 0, 276], [279, 0, 0, 3]),
            |threads| {
                let (r, s, mcvs) = build(3_000, counts, &spec);
                join.run_parallel_obs(&r, &s, &mcvs, threads, &Obs::off())
                    .unwrap()
            },
        );
    }

    #[test]
    fn parallel_join_cleans_up_all_spill_files() {
        let spec = JoinSpec::paper_synthetic(128, 32);
        let counts = |k: u64| (k % 5) + 1;
        let join = NocapJoin::new(spec, NocapConfig::default());
        let (r, s, mcvs) = build(2_500, counts, &spec);
        let device = r.device().clone();
        let report = join
            .run_parallel_obs(&r, &s, &mcvs, 3, &Obs::off())
            .unwrap();
        assert!(report.output_records > 0);
        // Only the two base relations should remain on the device.
        let sim = device;
        assert_eq!(
            sim.file_pages(r.file()).unwrap() + sim.file_pages(s.file()).unwrap(),
            r.num_pages() + s.num_pages()
        );
    }

    #[test]
    fn sketch_pipeline_is_identical_at_every_thread_count() {
        // The sharded summary is thread-count invariant, so the plan, the
        // output and the per-phase I/O all are.
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 12 { 180 } else { 3 };
        let join = NocapJoin::new(spec, NocapConfig::default());
        assert_parallel_equivalence(
            "nocap/sketch-pipeline",
            &[1, 2, 4, 8],
            &pinned_report(9_624, [392, 0, 0, 303], [305, 0, 0, 2]),
            |threads| {
                let (r, s, _) = build(2_500, counts, &spec);
                join.collect_and_run_parallel_obs(&r, &s, 4, threads, &Obs::off())
                    .unwrap()
            },
        );
    }

    #[test]
    fn parallel_sketch_collection_reads_s_exactly_once() {
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| (k % 6) + 1;
        let join = NocapJoin::new(spec, NocapConfig::default());
        let (r, s, _) = build(2_000, counts, &spec);
        let device = r.device().clone();
        device.reset_stats();
        let report = join
            .collect_and_run_parallel_obs(&r, &s, 4, 4, &Obs::off())
            .unwrap();
        let device_ios = device.stats().reads() + device.stats().writes();
        // The statistics scan costs exactly ||S|| sequential reads on top
        // of the join's own modeled I/O, sharded or not.
        assert_eq!(
            device_ios,
            report.total_ios() + s.num_pages() as u64,
            "sharded stats collection must read each S page exactly once"
        );
    }

    #[test]
    fn zero_threads_selects_a_default() {
        let spec = JoinSpec::paper_synthetic(128, 64);
        let counts = |_k: u64| 3u64;
        let join = NocapJoin::new(spec, NocapConfig::default());
        let (r, s, mcvs) = build(1_000, counts, &spec);
        let report = join
            .run_parallel_obs(&r, &s, &mcvs, 0, &Obs::off())
            .unwrap();
        assert_eq!(report.output_records, 3_000);
    }
}
