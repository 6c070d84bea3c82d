//! Dynamic Hybrid Hash join (DHH) — the state-of-the-art baseline
//! (Algorithms 1 and 2 plus the heuristic skew optimization of §2.2).
//!
//! DHH hash-partitions R into `m_DHH = max(20, ⌈(‖R‖·F − B)/(B − 1)⌉)`
//! partitions. Every partition starts *staged* in memory; partitions that
//! outgrow their memory share are destaged to disk and their page-out bit
//! (POB) is set. After R is consumed, all still-staged partitions are
//! folded into one in-memory hash table. While partitioning S, records
//! whose key hits the in-memory table are joined immediately; records
//! belonging to destaged partitions are spilled; the remaining records
//! (staged partition, no match) are dropped. Finally the spilled partition
//! pairs are joined pairwise.
//!
//! **Destaging policy.** The paper's Algorithm 1 destages *the largest
//! staged partition* whenever the global budget overflows — a policy whose
//! outcome depends on the order records arrive, which no sharded scan can
//! reproduce. This implementation uses the same deterministic quota
//! geometry NOCAP's residual partitioner adopted: every partition owns an
//! even share of the staging budget ([`nocap_par::even_caps`]) and is
//! destaged the moment its own staged footprint exceeds that share — a
//! function of the partition's total record count only. The destaged set is
//! therefore identical for any scan order or thread interleaving.
//!
//! **One body.** DHH is NOCAP's hybrid-hash procedure with no designated
//! partitions, a modulo router and skew keys in place of planned cached
//! keys. [`DhhJoin::run_parallel_obs`] decides only those — the skew keys,
//! `m_DHH` and the even quotas — and runs the shared body,
//! [`nocap_par::run_hybrid`], for every thread count (`threads = 1` is the
//! sequential run).
//!
//! **Skew optimization.** Practical systems (PostgreSQL, Histojoin) add a
//! small dedicated hash table for the most common values: if the tracked
//! MCVs cover at least `skew_frequency_threshold` of S, the hottest MCV keys
//! are pinned in memory using at most `skew_memory_fraction · B` pages (a
//! fraction of 0 turns the optimization off). Both thresholds are fixed
//! constants in deployed systems (2 % each); they are constructor parameters
//! here so that Figure 11's sensitivity sweep can be reproduced. Histojoin
//! (Cutt & Lawrence) is the same executor with a zero trigger threshold —
//! the paper's configuration — so it is a preset, [`DhhConfig::histojoin`],
//! not a separate operator.

use std::collections::{HashMap, HashSet};

use nocap_model::{BudgetLadder, DegradedRun, JoinRunReport, JoinSpec, ProbeBloom};
use nocap_obs::Obs;
use nocap_par::{even_caps, run_hybrid, HybridPlan};
use nocap_stats::StatsSummary;
use nocap_storage::{BufferPool, JoinHashTable, Relation};

/// SplitMix64 hash for partition routing (the shared workspace key hash).
use nocap_storage::hash::mix64 as hash_key;

/// Tuning knobs of DHH's skew optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DhhConfig {
    /// Fraction of the memory budget reserved for the skew-key hash table
    /// (PostgreSQL and Histojoin use 2 %; 0 disables the skew
    /// optimization).
    pub skew_memory_fraction: f64,
    /// Minimum fraction of S that the tracked MCVs must cover before the
    /// skew optimization is triggered (PostgreSQL uses 2 %, Histojoin 0).
    pub skew_frequency_threshold: f64,
}

impl Default for DhhConfig {
    fn default() -> Self {
        DhhConfig {
            skew_memory_fraction: 0.02,
            skew_frequency_threshold: 0.02,
        }
    }
}

impl DhhConfig {
    /// The Histojoin preset (Cutt & Lawrence, as the paper configures it):
    /// a 2 % skew-table budget and a zero trigger threshold, so the skew
    /// optimization always fires.
    pub fn histojoin() -> Self {
        DhhConfig {
            skew_memory_fraction: 0.02,
            skew_frequency_threshold: 0.0,
        }
    }

    /// Plain DHH without any skew optimization.
    pub fn no_skew() -> Self {
        DhhConfig {
            skew_memory_fraction: 0.0,
            skew_frequency_threshold: 1.0,
        }
    }
}

/// Dynamic Hybrid Hash join executor.
#[derive(Debug, Clone, Copy)]
pub struct DhhJoin {
    spec: JoinSpec,
    config: DhhConfig,
    bloom: ProbeBloom,
}

impl DhhJoin {
    /// Creates a DHH operator with the given spec and skew configuration.
    pub fn new(spec: JoinSpec, config: DhhConfig) -> Self {
        DhhJoin {
            spec,
            config,
            bloom: ProbeBloom::default(),
        }
    }

    /// Overrides the probe-side Bloom pre-filter knob (on by default; a
    /// pure CPU optimization — output and modeled I/O are unchanged).
    pub fn with_bloom(mut self, bloom: ProbeBloom) -> Self {
        self.bloom = bloom;
        self
    }

    /// Creates a DHH operator with the default (PostgreSQL-like) thresholds.
    pub fn with_defaults(spec: JoinSpec) -> Self {
        DhhJoin::new(spec, DhhConfig::default())
    }

    /// [`run_parallel_obs`](Self::run_parallel_obs) at one thread with
    /// graceful degradation: when `admission` cannot grant the spec's
    /// budget — or execution fails with
    /// [`OutOfMemory`](nocap_storage::StorageError::OutOfMemory) — the
    /// budget walks down the [`BudgetLadder`] (`B → ¾B → …`) and DHH
    /// re-runs with a smaller budget (more partitions spill, more passes),
    /// instead of failing. Every step is recorded in the returned
    /// [`DegradedRun`].
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
            let degraded = DhhJoin::new(self.spec.with_buffer_pages(budget), self.config)
                .with_bloom(self.bloom);
            degraded.run_parallel_obs(r, s, mcvs, 1, obs)
        })
    }

    /// Executes `r ⋈ s` on `threads` worker threads. `mcvs` are the
    /// tracked most-common-value statistics (`(key, frequency)` pairs) the
    /// skew optimization draws from; pass an empty slice to disable its
    /// inputs. `threads == 0` selects [`nocap_par::default_threads`].
    ///
    /// DHH decides the skew keys (reserving their hash table as its fixed
    /// pages), `m_DHH` and the [`even_caps`] quotas over the residual
    /// budget, and routes residual keys by `mix64(key) % m_DHH`; the shared
    /// hybrid-hash body, [`run_hybrid`], does the rest. See there for the
    /// determinism contract (output and per-phase modeled I/O identical at
    /// every thread count), the memory accounting and what a recording
    /// `obs` captures.
    pub fn run_parallel_obs(
        &self,
        r: &Relation,
        s: &Relation,
        mcvs: &[(u64, u64)],
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let spec = &self.spec;
        let skew_keys = self.select_skew_keys(mcvs, s.num_records() as u64);
        let n_r = r.num_records();
        let hybrid = HybridPlan {
            label: "DHH",
            fixed_pages: spec.hash_table_pages(skew_keys.len()),
            mem_keys: skew_keys,
            designated: HashMap::new(),
            num_designated: 0,
            residual: |rest_budget: usize| {
                // Partition count and quotas are fixed before any record is
                // routed.
                let m_dhh = spec.m_dhh(n_r).min(rest_budget.saturating_sub(1).max(1));
                let caps = even_caps(rest_budget.max(1), m_dhh);
                (caps, move |key| (hash_key(key) % m_dhh as u64) as usize)
            },
            bloom: self.bloom,
        };
        run_hybrid(spec, r, s, hybrid, threads, obs)
    }

    /// Executes `r ⋈ s` with statistics from a one-pass sketch summary
    /// instead of the oracle MCV list — the same deployable configuration
    /// `NocapJoin::run_parallel_with_collected_stats_obs` uses, so
    /// `exp_stats_accuracy` compares every skew-aware algorithm on equal
    /// (sketched) footing.
    ///
    /// The skew optimization consumes [`StatsSummary::planner_mcvs`]: raw
    /// SpaceSaving counts on skewed streams, histogram-backed masses on
    /// near-uniform ones (where the raw counts are noise-dominated and
    /// would trip the 2 % frequency trigger spuriously).
    pub fn run_parallel_with_collected_stats_obs(
        &self,
        r: &Relation,
        s: &Relation,
        stats: &StatsSummary,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        self.run_parallel_obs(r, s, &stats.planner_mcvs(), threads, obs)
    }

    /// Chooses which MCV keys are pinned in the skew hash table.
    fn select_skew_keys(&self, mcvs: &[(u64, u64)], n_s: u64) -> HashSet<u64> {
        let mut selected = HashSet::new();
        if mcvs.is_empty() || n_s == 0 {
            return selected;
        }
        let total_mcv_mass: u64 = mcvs.iter().map(|&(_, c)| c).sum();
        if (total_mcv_mass as f64) < self.config.skew_frequency_threshold * n_s as f64 {
            return selected;
        }
        let budget_pages =
            (self.spec.buffer_pages as f64 * self.config.skew_memory_fraction).floor() as usize;
        if budget_pages == 0 {
            return selected;
        }
        let capacity = JoinHashTable::capacity_for_pages(
            budget_pages,
            self.spec.r_layout,
            self.spec.page_size,
            self.spec.fudge,
        );
        let mut ranked: Vec<(u64, u64)> = mcvs.to_vec();
        ranked.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
        for (key, _) in ranked.into_iter().take(capacity) {
            selected.insert(key);
        }
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_join_count;
    use crate::testutil::{assert_parallel_equivalence, build_workload, mcvs, pinned_report};
    use nocap_par::ParallelStager;
    use nocap_storage::{Record, SimDevice};

    /// Runs the join through the executor at one thread, unobserved.
    fn run(dhh: DhhJoin, r: &Relation, s: &Relation, mcvs: &[(u64, u64)]) -> JoinRunReport {
        dhh.run_parallel_obs(r, s, mcvs, 1, &Obs::off()).unwrap()
    }

    #[test]
    fn matches_naive_join_uniform() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 32);
        let counts = |_k: u64| 4u64;
        let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let report = run(
            DhhJoin::with_defaults(spec),
            &r,
            &s,
            &mcvs(2_000, counts, 100),
        );
        assert_eq!(report.output_records, expected);
    }

    #[test]
    fn matches_naive_join_skewed_with_and_without_skew_optimization() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 8 { 300 } else { 1 };
        let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        let stats = mcvs(2_000, counts, 100);

        dev.reset_stats();
        let with_skew = run(DhhJoin::with_defaults(spec), &r, &s, &stats);
        assert_eq!(with_skew.output_records, expected);

        dev.reset_stats();
        let without_skew = run(DhhJoin::new(spec, DhhConfig::no_skew()), &r, &s, &stats);
        assert_eq!(without_skew.output_records, expected);

        // The skew optimization pins the hottest keys, so it cannot do more
        // I/O than the unoptimized run.
        assert!(with_skew.total_ios() <= without_skew.total_ios());
    }

    #[test]
    fn large_memory_degenerates_to_an_in_memory_join() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 1_024);
        let counts = |k: u64| (k % 4) + 1;
        let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
        dev.reset_stats();
        let report = run(
            DhhJoin::with_defaults(spec),
            &r,
            &s,
            &mcvs(2_000, counts, 50),
        );
        assert_eq!(report.total_io().writes(), 0, "nothing should spill");
        assert_eq!(
            report.total_io().reads() as usize,
            r.num_pages() + s.num_pages()
        );
    }

    #[test]
    fn tiny_memory_degenerates_towards_ghj() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 24);
        let counts = |_k: u64| 3u64;
        let (r, s) = build_workload(dev.clone(), &spec, 4_000, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let report = run(
            DhhJoin::with_defaults(spec),
            &r,
            &s,
            &mcvs(4_000, counts, 100),
        );
        assert_eq!(report.output_records, expected);
        // With B far below √(‖R‖·F) nearly everything spills: the partition
        // phase writes most of R and S.
        assert!(
            report.partition_io.writes() as usize > (r.num_pages() + s.num_pages()) / 2,
            "most data must spill under a tiny budget"
        );
    }

    #[test]
    fn sketch_driven_dhh_matches_oracle_output_and_stays_close_on_io() {
        use nocap_stats::{StatsCollector, StatsConfig};
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 10 { 250 } else { 2 };
        let (r, s) = build_workload(dev.clone(), &spec, 2_500, counts);
        let expected = naive_join_count(&r, &s).unwrap();

        let mut collector = StatsCollector::new(StatsConfig::default());
        collector.consume(s.scan()).unwrap();
        let summary = collector.finish();

        let oracle_stats = mcvs(2_500, counts, 100);
        dev.reset_stats();
        let oracle = run(DhhJoin::with_defaults(spec), &r, &s, &oracle_stats);
        dev.reset_stats();
        let sketched = DhhJoin::with_defaults(spec)
            .run_parallel_with_collected_stats_obs(&r, &s, &summary, 1, &Obs::off())
            .unwrap();
        assert_eq!(sketched.output_records, expected);
        assert_eq!(oracle.output_records, expected);
        assert!(
            (sketched.total_ios() as f64) <= 1.5 * oracle.total_ios() as f64,
            "sketch-driven DHH should stay close to oracle DHH \
             ({} vs {})",
            sketched.total_ios(),
            oracle.total_ios()
        );
    }

    #[test]
    fn quota_destaging_is_order_independent_and_respects_the_budget() {
        let spec = JoinSpec::paper_synthetic(128, 16);
        let budget = 10usize;
        let parts = 5usize;
        // Stage the same multiset of keys through DHH's modulo router and
        // quota geometry in two very different orders; the destaged set must
        // not change — that is the point of the quota port.
        let run = |keys: &[u64]| {
            let device = SimDevice::new_ref();
            let caps = even_caps(budget, parts);
            let stager = ParallelStager::new(device.clone(), spec.r_layout, spec, caps);
            let mut stage = stager.worker_stage();
            for &k in keys {
                let rec = Record::with_fill(k, 120, 0);
                let p = (hash_key(k) % parts as u64) as usize;
                stager.insert(&mut stage, p, rec.as_record_ref()).unwrap();
                assert!(
                    stager.pages_in_use() <= budget,
                    "staged pages + spill buffers exceeded the budget"
                );
            }
            let build = stager.finish(vec![stage]).unwrap();
            let spilled: usize = build.spilled.iter().flatten().map(|h| h.records()).sum();
            assert_eq!(spilled + build.staged_records.len(), keys.len());
            (build.pob, device.stats().total())
        };
        let forward: Vec<u64> = (0..2_000).collect();
        let mut shuffled = forward.clone();
        shuffled.sort_by_key(|&k| crate::testutil::mix(k));
        let a = run(&forward);
        let b = run(&shuffled);
        assert_eq!(a.0, b.0, "page-out bits must be order-independent");
        assert_eq!(a.1, b.1, "I/O must be order-independent");
        assert!(a.0.iter().any(|&s| s), "2K records cannot stay in 10 pages");
    }

    #[test]
    fn run_parallel_matches_run_exactly_on_a_skewed_workload() {
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 8 { 300 } else { 1 };
        let stats = mcvs(2_000, counts, 100);
        assert_parallel_equivalence(
            "dhh/skewed",
            &[1, 2, 4, 8],
            &pinned_report(4_392, [207, 0, 0, 198], [216, 0, 0, 18]),
            |threads| {
                let dev = SimDevice::new_ref();
                let (r, s) = build_workload(dev, &spec, 2_000, counts);
                DhhJoin::with_defaults(spec)
                    .run_parallel_obs(&r, &s, &stats, threads, &Obs::off())
                    .unwrap()
            },
        );
    }

    #[test]
    fn run_parallel_matches_run_without_the_skew_optimization() {
        let spec = JoinSpec::paper_synthetic(128, 24);
        let counts = |_k: u64| 3u64;
        let stats = mcvs(3_000, counts, 100);
        assert_parallel_equivalence(
            "dhh/no-skew",
            &[1, 2, 4],
            &pinned_report(9_000, [388, 0, 0, 386], [406, 0, 0, 20]),
            |threads| {
                let dev = SimDevice::new_ref();
                let (r, s) = build_workload(dev, &spec, 3_000, counts);
                DhhJoin::new(spec, DhhConfig::no_skew())
                    .run_parallel_obs(&r, &s, &stats, threads, &Obs::off())
                    .unwrap()
            },
        );
    }

    #[test]
    fn run_parallel_zero_threads_selects_a_default_and_stays_correct() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 64);
        let counts = |k: u64| (k % 4) + 1;
        let (r, s) = build_workload(dev.clone(), &spec, 1_500, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let report = DhhJoin::with_defaults(spec)
            .run_parallel_obs(&r, &s, &mcvs(1_500, counts, 50), 0, &Obs::off())
            .unwrap();
        assert_eq!(report.output_records, expected);
    }

    #[test]
    fn run_parallel_cleans_up_all_spill_files() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 24);
        let counts = |_k: u64| 3u64;
        let (r, s) = build_workload(dev.clone(), &spec, 4_000, counts);
        let report = DhhJoin::with_defaults(spec)
            .run_parallel_obs(&r, &s, &mcvs(4_000, counts, 100), 3, &Obs::off())
            .unwrap();
        assert!(
            report.partition_io.writes() > 0,
            "a tiny budget must spill (otherwise this tests nothing)"
        );
        // Only the two base relations should remain on the device.
        assert_eq!(
            dev.file_pages(r.file()).unwrap() + dev.file_pages(s.file()).unwrap(),
            r.num_pages() + s.num_pages()
        );
    }

    #[test]
    fn sketch_driven_run_parallel_matches_the_sequential_sketch_run() {
        use nocap_stats::{StatsCollector, StatsConfig};
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 10 { 250 } else { 2 };
        let collect = || {
            let dev = SimDevice::new_ref();
            let (r, s) = build_workload(dev, &spec, 2_500, counts);
            let mut collector = StatsCollector::new(StatsConfig::default());
            collector.consume(s.scan()).unwrap();
            (r, s, collector.finish())
        };
        assert_parallel_equivalence(
            "dhh/sketch-driven",
            &[1, 2, 4],
            &pinned_report(7_480, [323, 0, 0, 319], [339, 0, 0, 20]),
            |threads| {
                let (r, s, summary) = collect();
                r.device().reset_stats();
                DhhJoin::with_defaults(spec)
                    .run_parallel_with_collected_stats_obs(&r, &s, &summary, threads, &Obs::off())
                    .unwrap()
            },
        );
    }

    #[test]
    fn run_degrading_stays_correct_under_admission_pressure() {
        use nocap_model::BudgetLadder;
        use nocap_storage::BufferPool;
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 8 { 200 } else { 2 };
        let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        let stats = mcvs(2_000, counts, 100);
        let join = DhhJoin::with_defaults(spec);

        // 48 and 36 rejected by a 28-page admission pool; 27 runs.
        let tight = BufferPool::new(28);
        let degraded = join
            .run_degrading_obs(
                &r,
                &s,
                &stats,
                &tight,
                &BudgetLadder::default(),
                &Obs::off(),
            )
            .unwrap();
        assert_eq!(degraded.budget_pages, 27);
        assert_eq!(degraded.steps(), 2);
        assert_eq!(degraded.report.output_records, expected);
        assert_eq!(tight.in_use(), 0);
    }

    #[test]
    fn skew_keys_only_selected_above_the_frequency_threshold() {
        let spec = JoinSpec::paper_synthetic(128, 100);
        let dhh = DhhJoin::new(
            spec,
            DhhConfig {
                skew_memory_fraction: 0.02,
                skew_frequency_threshold: 0.5,
            },
        );
        // MCV mass of 10 out of n_S = 1000 < 50 % threshold → no skew keys.
        let low_mass = vec![(1u64, 5u64), (2, 5)];
        assert!(dhh.select_skew_keys(&low_mass, 1_000).is_empty());
        // Above the threshold the hottest keys are selected.
        let high_mass = vec![(1u64, 400u64), (2, 300)];
        let selected = dhh.select_skew_keys(&high_mass, 1_000);
        assert!(selected.contains(&1));
    }

    #[test]
    fn histojoin_preset_matches_naive_join() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 48);
        let counts = |k: u64| if k < 5 { 200 } else { 2 };
        let (r, s) = build_workload(dev.clone(), &spec, 1_500, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let histo = DhhJoin::new(spec, DhhConfig::histojoin());
        let report = run(histo, &r, &s, &mcvs(1_500, counts, 75));
        assert_eq!(report.output_records, expected);
    }

    #[test]
    fn histojoin_preset_triggers_even_for_low_skew_mass() {
        // With a tiny MCV mass (10 of 1 000 S records, below the 2 % trigger)
        // PostgreSQL-style DHH skips the skew table but the Histojoin preset
        // still builds it.
        let roomy = JoinSpec::paper_synthetic(128, 100);
        let low_mass = [(0u64, 10u64)];
        assert!(DhhJoin::with_defaults(roomy)
            .select_skew_keys(&low_mass, 1_000)
            .is_empty());
        assert!(DhhJoin::new(roomy, DhhConfig::histojoin())
            .select_skew_keys(&low_mass, 1_000)
            .contains(&0));

        // And the preset stays correct end to end.
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 40);
        let counts = |k: u64| if k == 0 { 30 } else { 2 };
        let (r, s) = build_workload(dev.clone(), &spec, 3_000, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        let stats = mcvs(3_000, counts, 50);
        dev.reset_stats();
        let histo = DhhJoin::new(spec, DhhConfig::histojoin());
        assert_eq!(run(histo, &r, &s, &stats).output_records, expected);
    }
}
