//! NOCAP's entry points (Algorithms 8 and 9): plan from MCVs, from a
//! sketch summary, or from a sharded sketch pass of its own, then execute.
//!
//! Every entry point ends in [`NocapJoin::run_parallel_with_plan_obs`],
//! which hands the plan to the hybrid-hash body NOCAP shares with DHH,
//! [`nocap_par::run_hybrid`]. There is one body for every thread count;
//! `threads = 1` is the sequential run, and the output and per-phase
//! modeled I/O are the same at every thread count.

use nocap_model::JoinRunReport;
use nocap_obs::Obs;
use nocap_par::{run_hybrid, HybridPlan};
use nocap_stats::{StatsCollector, StatsSummary};
use nocap_storage::{BufferPool, Relation};

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
    /// entry point every other one ends in. It hands the plan's cached keys,
    /// designated partitions, fixed pages and [`RestGeometry`] to the
    /// shared hybrid-hash body, [`run_hybrid`]; see there for the
    /// determinism contract, the memory accounting and what a recording
    /// `obs` captures.
    pub fn run_parallel_with_plan_obs(
        &self,
        r: &Relation,
        s: &Relation,
        plan: &NocapPlan,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let spec = self.spec();
        let config = self.config();
        let hybrid = HybridPlan {
            label: "NOCAP",
            mem_keys: plan.mem_key_set(),
            designated: plan.disk_map(),
            num_designated: plan.num_designated(),
            fixed_pages: plan.fixed_memory_pages(spec),
            residual: |rest_budget| {
                let RestGeometry { rh, caps } = RestGeometry::new(
                    spec,
                    rest_budget,
                    plan.estimated_rest_keys,
                    config.planner.rh_params,
                );
                (caps, move |key| rh.partition_of(key))
            },
        };
        run_hybrid(spec, r, s, hybrid, threads, obs)
    }
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
