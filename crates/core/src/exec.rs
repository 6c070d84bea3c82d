//! The NOCAP operator: hybrid partitioning (Algorithms 8 and 9) plus the
//! partition-wise probe phase.
//!
//! Execution follows the plan produced by [`crate::planner::plan_nocap`]:
//!
//! 1. **Partition R** — each R record is routed by key: cached keys go into
//!    the in-memory hash table, designated keys go to their dedicated spill
//!    partition, and everything else is staged in a residual partition that
//!    is destaged once its staged footprint exceeds its fixed quota of the
//!    residual budget (see [`RestGeometry`]). Residual routing uses the
//!    rounded hash of §4.2.
//! 2. **Partition / probe S** — S records with designated keys are spilled
//!    to the matching S partition; the rest first probe the in-memory hash
//!    table (producing output immediately) and, on a miss, are spilled only
//!    if their residual partition was destaged (the POB bit of DHH).
//! 3. **Probe phase** — every spilled (R, S) partition pair is joined with
//!    the chunk-wise NBJ of [`nocap_model::pairwise`].
//!
//! This module holds the operator, its configuration, the residual
//! geometry and graceful degradation; the entry points live in
//! [`crate::exec_par`]. The executor body — one procedure for every thread
//! count — is [`nocap_par::run_hybrid`], which NOCAP shares with DHH: the
//! plan supplies steps 1–2's cached keys and designated partitions, and
//! [`RestGeometry`] the residual quotas and router.
//!
//! All pages are drawn from a [`BufferPool`] capped at the spec's budget, so
//! the §4.1 memory breakdown is enforced at run time, not just assumed.

use nocap_model::{BudgetLadder, DegradedRun, JoinSpec, ProbeBloom, RoundedHashParams};
use nocap_obs::Obs;
use nocap_storage::{BufferPool, Relation};

use crate::planner::PlannerConfig;
use crate::rounded_hash::RoundedHash;

/// Configuration of the NOCAP executor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NocapConfig {
    /// Planner configuration (grid resolution, rounded-hash parameters).
    pub planner: PlannerConfig,
    /// Probe-side Bloom pre-filter over the in-memory build table (§6 SIP;
    /// on by default, a pure CPU optimization — output and modeled I/O are
    /// identical with the filter on or off).
    pub bloom: ProbeBloom,
}

/// The NOCAP join operator.
#[derive(Debug, Clone, Copy)]
pub struct NocapJoin {
    spec: JoinSpec,
    config: NocapConfig,
}

impl NocapJoin {
    /// Creates a NOCAP join operator for the given spec.
    pub fn new(spec: JoinSpec, config: NocapConfig) -> Self {
        NocapJoin { spec, config }
    }

    /// The join spec this operator was built with.
    pub fn spec(&self) -> &JoinSpec {
        &self.spec
    }

    /// The executor configuration this operator was built with.
    pub fn config(&self) -> &NocapConfig {
        &self.config
    }

    /// [`run_parallel_obs`](Self::run_parallel_obs) at one thread with
    /// graceful degradation: when `admission`
    /// cannot grant the spec's budget — or planning/execution fails with
    /// [`OutOfMemory`](nocap_storage::StorageError::OutOfMemory) — the
    /// budget walks down the [`BudgetLadder`] (`B → ¾B → …`) and the join
    /// is re-planned at the smaller budget, trading passes for memory
    /// instead of failing. Every step is recorded in the returned
    /// [`DegradedRun`] and, when `obs` records, in the trace counters
    /// `degradation_steps` / `degraded_budget_pages`.
    pub fn run_degrading_obs(
        &self,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
        admission: &BufferPool,
        ladder: &BudgetLadder,
        obs: &Obs,
    ) -> nocap_storage::Result<DegradedRun> {
        nocap_model::run_degrading(admission, self.spec.buffer_pages, ladder, obs, |budget| {
            // Re-plan at the degraded budget: a smaller B designates fewer
            // keys and spills more, but the plan stays feasible.
            let degraded = NocapJoin::new(self.spec.with_buffer_pages(budget), self.config);
            degraded.run_parallel_obs(r, s, mcvs, 1, obs)
        })
    }
}

/// Geometry of NOCAP's residual partitions: partition count, the
/// rounded-hash router and the per-partition staging quotas. The quotas are
/// fixed before any record is routed, so a partition is destaged iff its
/// total record count overflows its quota — never depending on scan order
/// or thread interleaving — which is what makes the executor's partition
/// contents and I/O trace identical at every thread count.
#[derive(Debug, Clone)]
pub struct RestGeometry {
    /// The rounded-hash router over the residual partitions.
    pub rh: RoundedHash,
    /// Per-partition staging quotas in pages; they sum to the residual
    /// budget read before the probe-side bloom's reservation (see
    /// [`nocap_par::even_caps`] and the memory note in
    /// [`nocap_par::hybrid`]).
    pub caps: Vec<usize>,
}

impl RestGeometry {
    /// Sizes the residual partitioner: the partition count targets one NBJ
    /// chunk (`c*_R`) per partition, clamped so that every partition can own
    /// at least one page of the residual budget.
    pub fn new(
        spec: &JoinSpec,
        budget_pages: usize,
        estimated_keys: usize,
        rh_params: RoundedHashParams,
    ) -> Self {
        let budget_pages = budget_pages.max(1);
        let c_star = rh_params.effective_chunk(spec.c_r().max(1));
        let desired_partitions = estimated_keys.div_ceil(c_star.max(1)).max(1);
        let num_partitions = desired_partitions.min(budget_pages.saturating_sub(1).max(1));
        let rh = RoundedHash::new(estimated_keys, num_partitions, spec.c_r(), &rh_params);
        RestGeometry {
            rh,
            caps: nocap_par::even_caps(budget_pages, num_partitions),
        }
    }

    /// Number of residual partitions.
    pub fn num_partitions(&self) -> usize {
        self.caps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_par::ParallelStager;
    use nocap_storage::{Record, SimDevice};
    use std::collections::HashMap;

    /// Builds R with keys `0..n_r` and S where key `k` appears `ct(k)` times.
    fn build_workload(
        device: nocap_storage::device::DeviceRef,
        spec: &JoinSpec,
        n_r: u64,
        counts: impl Fn(u64) -> u64,
    ) -> (Relation, Relation, Vec<(u64, u64)>) {
        let payload = spec.r_layout.payload_bytes();
        let r = Relation::bulk_load(
            device.clone(),
            spec.r_layout,
            spec.page_size,
            (0..n_r).map(|k| Record::with_fill(k, payload, 1)),
        )
        .unwrap();
        // Interleave S keys so hot keys are not clustered.
        let mut s_keys: Vec<u64> = Vec::new();
        for k in 0..n_r {
            for _ in 0..counts(k) {
                s_keys.push(k);
            }
        }
        // Deterministic shuffle.
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
        (r, s, mcv)
    }

    fn expected_output(n_r: u64, counts: impl Fn(u64) -> u64) -> u64 {
        (0..n_r).map(counts).sum()
    }

    /// Runs the join through the executor at one thread, unobserved.
    fn run(
        join: &NocapJoin,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
    ) -> nocap_storage::Result<nocap_model::JoinRunReport> {
        join.run_parallel_obs(r, s, mcvs, 1, &Obs::off())
    }

    /// Stages keys `0..n` through the residual geometry's router into a
    /// one-worker [`ParallelStager`] carrying the geometry's quotas, asserting
    /// the budget after every insert; returns the finished build and the
    /// number of destaged partitions.
    fn stage_residuals(
        device: nocap_storage::device::DeviceRef,
        spec: JoinSpec,
        budget: usize,
        n: u64,
    ) -> (nocap_par::StagerBuild, usize) {
        let geometry = RestGeometry::new(&spec, budget, n as usize, RoundedHashParams::default());
        let stager = ParallelStager::new(device, spec.r_layout, spec, geometry.caps.clone());
        let mut stage = stager.worker_stage();
        for k in 0..n {
            let rec = Record::with_fill(k, 120, 0);
            let p = geometry.rh.partition_of(k);
            stager.insert(&mut stage, p, rec.as_record_ref()).unwrap();
            assert!(
                stager.pages_in_use() <= budget,
                "residual staging exceeded its page budget"
            );
        }
        let spilled = stager.spilled_partitions();
        (stager.finish(vec![stage]).unwrap(), spilled)
    }

    #[test]
    fn rest_partitioner_respects_its_budget() {
        let device = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 16);
        let (build, spilled) = stage_residuals(device, spec, 8, 5_000);
        assert!(spilled > 0, "a 5K-record build cannot stay in 8 pages");
        let spilled_records: usize = build.spilled.iter().flatten().map(|h| h.records()).sum();
        assert_eq!(spilled_records + build.staged_records.len(), 5_000);
    }

    #[test]
    fn rest_partitioner_stays_in_memory_when_budget_allows() {
        let device = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 256);
        let (build, spilled) = stage_residuals(device.clone(), spec, 200, 1_000);
        assert_eq!(spilled, 0);
        assert_eq!(build.staged_records.len(), 1_000);
        assert_eq!(
            device.stats().writes(),
            0,
            "nothing should have been written"
        );
    }

    #[test]
    fn nocap_join_is_correct_on_a_skewed_workload() {
        let device = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 64);
        let counts = |k: u64| if k < 5 { 200 } else { 2 };
        let (r, s, mcvs) = build_workload(device.clone(), &spec, 2_000, counts);
        device.reset_stats();
        let join = NocapJoin::new(spec, NocapConfig::default());
        let report = run(&join, &r, &s, &mcvs).unwrap();
        assert_eq!(report.output_records, expected_output(2_000, counts));
        assert!(report.total_ios() > 0);
    }

    #[test]
    fn nocap_join_is_correct_on_a_uniform_workload() {
        let device = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |_k: u64| 4u64;
        let (r, s, mcvs) = build_workload(device.clone(), &spec, 3_000, counts);
        device.reset_stats();
        let join = NocapJoin::new(spec, NocapConfig::default());
        let report = run(&join, &r, &s, &mcvs).unwrap();
        assert_eq!(report.output_records, expected_output(3_000, counts));
    }

    #[test]
    fn large_memory_joins_entirely_in_memory() {
        let device = SimDevice::new_ref();
        // Budget big enough that R fits into the residual partitioner.
        let spec = JoinSpec::paper_synthetic(128, 512);
        let counts = |k: u64| (k % 3) + 1;
        let (r, s, mcvs) = build_workload(device.clone(), &spec, 2_000, counts);
        device.reset_stats();
        let join = NocapJoin::new(spec, NocapConfig::default());
        let report = run(&join, &r, &s, &mcvs).unwrap();
        assert_eq!(report.output_records, expected_output(2_000, counts));
        // Only the base scans: no spill writes at all.
        assert_eq!(report.total_io().writes(), 0);
        assert_eq!(
            report.total_io().reads() as usize,
            r.num_pages() + s.num_pages()
        );
    }

    #[test]
    fn smaller_memory_never_means_fewer_ios() {
        let device = SimDevice::new_ref();
        let counts = |k: u64| if k < 20 { 100 } else { 3 };
        let spec_small = JoinSpec::paper_synthetic(128, 24);
        let (r, s, mcvs) = build_workload(device.clone(), &spec_small, 4_000, counts);
        let mut previous = u64::MAX;
        for budget in [24usize, 48, 96, 192, 2_048] {
            let spec = spec_small.with_buffer_pages(budget);
            device.reset_stats();
            let join = NocapJoin::new(spec, NocapConfig::default());
            let report = run(&join, &r, &s, &mcvs).unwrap();
            assert_eq!(report.output_records, expected_output(4_000, counts));
            assert!(
                report.total_ios() <= previous,
                "more memory should not increase NOCAP's I/O (budget={budget})"
            );
            previous = report.total_ios();
        }
    }

    #[test]
    fn run_degrading_trades_memory_for_passes_under_admission_pressure() {
        use nocap_model::BudgetLadder;
        let device = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 64);
        let counts = |k: u64| if k < 5 { 150 } else { 2 };
        let (r, s, mcvs) = build_workload(device.clone(), &spec, 2_000, counts);
        let join = NocapJoin::new(spec, NocapConfig::default());

        // Roomy admission: first-try success, same result as a plain run.
        let roomy = nocap_storage::BufferPool::new(256);
        let run = join
            .run_degrading_obs(&r, &s, &mcvs, &roomy, &BudgetLadder::default(), &Obs::off())
            .unwrap();
        assert_eq!(run.steps(), 0);
        assert_eq!(run.budget_pages, 64);
        assert_eq!(run.report.output_records, expected_output(2_000, counts));
        assert_eq!(roomy.in_use(), 0);

        // Tight admission (37 pages): 64 and 48 are rejected, 36 runs.
        let tight = nocap_storage::BufferPool::new(37);
        let degraded = join
            .run_degrading_obs(&r, &s, &mcvs, &tight, &BudgetLadder::default(), &Obs::off())
            .unwrap();
        assert_eq!(degraded.budget_pages, 36);
        assert_eq!(degraded.steps(), 2);
        assert_eq!(
            degraded.report.output_records,
            expected_output(2_000, counts),
            "a degraded run is still correct"
        );
        assert!(
            degraded.report.total_ios() >= run.report.total_ios(),
            "less memory can never mean less I/O"
        );
        assert_eq!(tight.in_use(), 0);

        // Admission below the ladder floor: a clean error, nothing leaked.
        let hopeless = nocap_storage::BufferPool::new(2);
        let err = join
            .run_degrading_obs(
                &r,
                &s,
                &mcvs,
                &hopeless,
                &BudgetLadder::default(),
                &Obs::off(),
            )
            .expect_err("the floor cannot be granted");
        assert!(matches!(
            err,
            nocap_storage::StorageError::OutOfMemory { .. }
        ));
        assert_eq!(hopeless.in_use(), 0);
    }

    #[test]
    fn output_counts_match_a_reference_hash_join() {
        // Cross-check against a straightforward in-memory join.
        let device = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 32);
        let counts = |k: u64| (crate::rounded_hash::mix_key(k) % 7).max(1);
        let (r, s, mcvs) = build_workload(device.clone(), &spec, 1_500, counts);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for rec in r.read_all().unwrap() {
            *reference.entry(rec.key()).or_insert(0) += 0;
        }
        let mut expected = 0u64;
        for rec in s.read_all().unwrap() {
            if reference.contains_key(&rec.key()) {
                expected += 1;
            }
        }
        device.reset_stats();
        let join = NocapJoin::new(spec, NocapConfig::default());
        let report = run(&join, &r, &s, &mcvs).unwrap();
        assert_eq!(report.output_records, expected);
    }
}
