//! Grace Hash Join (GHJ).
//!
//! The textbook partitioning join: hash both relations into `B − 1`
//! partitions (one input page, one output-buffer page per partition), then
//! join each partition pair with the partition-pair join every
//! partitioning algorithm shares,
//! [`smart_partition_join`]: chunk-wise NBJ, or — when the Table 1
//! estimates say another pass is cheaper — recursive re-partitioning,
//! following the paper's augmentation of GHJ.

use nocap_model::pairwise::smart_partition_join;
use nocap_model::{JoinRunReport, JoinSpec};
use nocap_obs::{Obs, Phase};
use nocap_par::{page_shards, run_workers_obs, sum_tasks_obs, SharedWriterSet};
use nocap_storage::hash::mix64;
use nocap_storage::{BufferPool, IoKind, PartitionHandle, RadixRouter, Relation, SpillGuard};

/// Grace Hash Join executor.
#[derive(Debug, Clone, Copy)]
pub struct GraceHashJoin {
    spec: JoinSpec,
}

impl GraceHashJoin {
    /// Creates a GHJ operator with the given spec.
    pub fn new(spec: JoinSpec) -> Self {
        GraceHashJoin { spec }
    }

    /// Executes `r ⋈ s` on `threads` worker threads — the GHJ executor
    /// body; `threads = 1` is the sequential run and `threads == 0` selects
    /// [`nocap_par::default_threads`].
    ///
    /// GHJ's static hash partitioning has no order-dependent state at all:
    /// workers shard each relation's pages and route into shared
    /// single-buffer spill writers ([`SharedWriterSet`]), then the partition
    /// pairs are claimed from a work queue. Output and the full I/O trace
    /// are identical for every thread count. With a recording `obs`: phase
    /// spans, per-worker scan spans, per-task probe spans and partition skew
    /// histograms, recorded without touching routing or claim order.
    pub fn run_parallel_obs(
        &self,
        r: &Relation,
        s: &Relation,
        threads: usize,
        obs: &Obs,
    ) -> nocap_storage::Result<JoinRunReport> {
        let threads = if threads == 0 {
            nocap_par::default_threads()
        } else {
            threads
        };
        let spec = &self.spec;
        let device = r.device().clone();
        let _io_trace = obs.attach_io(&device);
        let timer = obs.run_timer();
        let base = device.stats();

        let num_partitions = spec.buffer_pages.saturating_sub(1).max(2);
        let pool = BufferPool::new(spec.buffer_pages);
        let _input_page = pool.reserve(1)?;
        let _output_buffers = pool.reserve(num_partitions.min(pool.available()))?;

        let partition_relation =
            |relation: &Relation| -> nocap_storage::Result<Vec<PartitionHandle>> {
                let writers = SharedWriterSet::new(
                    device.clone(),
                    relation.layout(),
                    spec.page_size,
                    IoKind::RandWrite,
                    num_partitions,
                );
                let shards = page_shards(relation.num_pages(), threads);
                run_workers_obs(threads, obs, Phase::Partition, |w, _wobs| {
                    // Per-worker radix write buffers: shared-writer pushes
                    // happen in per-partition runs instead of one lock per
                    // record; `⌈n/b⌉` flushes per partition are preserved.
                    let mut router = RadixRouter::new(relation.layout(), num_partitions);
                    let mut scan = relation.scan_range(shards[w].clone());
                    while let Some(page) = scan.next_page()? {
                        for rec in page.record_refs() {
                            let p = (mix64(rec.key()) % num_partitions as u64) as usize;
                            router.push(p, rec, &mut |p, r| writers.push(p, r))?;
                        }
                    }
                    router.finish(&mut |p, r| writers.push(p, r))?;
                    Ok(())
                })?;
                writers.finish_dense()
            };
        // Adopt each relation's partitions as they finish so a failure while
        // partitioning S or probing deletes R's files too.
        let mut spill_guard = SpillGuard::new();
        let partition_span = obs.span(Phase::Partition);
        let r_parts = partition_relation(r)?;
        spill_guard.adopt_all(r_parts.iter().cloned());
        let s_parts = partition_relation(s)?;
        spill_guard.adopt_all(s_parts.iter().cloned());
        drop(partition_span);
        let partition_io = device.stats().since(&base);
        record_ghj_skew(obs, &r_parts, &s_parts);

        let probe_base = device.stats();
        let probe_span = obs.span(Phase::Probe);
        let output = sum_tasks_obs(threads, obs, Phase::Probe, r_parts.len(), |i| {
            smart_partition_join(&r_parts[i], &s_parts[i], spec, 1)
        })?;
        drop(probe_span);
        let probe_io = device.stats().since(&probe_base);

        // Dropping the guard deletes every spill file (not counted as I/O).
        drop(spill_guard);

        obs.gauge_max("buffer_pool_peak_pages", pool.peak() as u64);
        let mut report = JoinRunReport::new("GHJ");
        report.output_records = output;
        report.partition_io = partition_io;
        report.probe_io = probe_io;
        report.finish_run(timer, obs);
        Ok(report)
    }
}

/// Records GHJ's first-level partition fan-out histograms (both sides).
fn record_ghj_skew(obs: &Obs, r_parts: &[PartitionHandle], s_parts: &[PartitionHandle]) {
    if !obs.is_recording() {
        return;
    }
    obs.values(
        "partition_records",
        r_parts.iter().map(|h| h.records() as u64),
    );
    obs.values("partition_pages", r_parts.iter().map(|h| h.pages() as u64));
    obs.values(
        "s_partition_records",
        s_parts.iter().map(|h| h.records() as u64),
    );
    obs.count("partitions", r_parts.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_join_count;
    use crate::testutil::{assert_parallel_equivalence, build_workload, pinned_report};
    use nocap_storage::SimDevice;

    /// Runs the join through the executor at one thread, unobserved.
    fn run(ghj: GraceHashJoin, r: &Relation, s: &Relation) -> JoinRunReport {
        ghj.run_parallel_obs(r, s, 1, &Obs::off()).unwrap()
    }

    #[test]
    fn matches_naive_join_uniform() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 24);
        let counts = |_k: u64| 3u64;
        let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let report = run(GraceHashJoin::new(spec), &r, &s);
        assert_eq!(report.output_records, expected);
    }

    #[test]
    fn matches_naive_join_skewed() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 32);
        let counts = |k: u64| if k < 10 { 150 } else { 1 };
        let (r, s) = build_workload(dev.clone(), &spec, 1_500, counts);
        let expected = naive_join_count(&r, &s).unwrap();
        dev.reset_stats();
        let report = run(GraceHashJoin::new(spec), &r, &s);
        assert_eq!(report.output_records, expected);
    }

    #[test]
    fn partition_phase_writes_both_relations_once() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(256, 32);
        let counts = |_k: u64| 2u64;
        let (r, s) = build_workload(dev.clone(), &spec, 3_000, counts);
        dev.reset_stats();
        let report = run(GraceHashJoin::new(spec), &r, &s);
        // Every record of R and S is written to some partition exactly once
        // (partition page counts may add a page of slack per partition).
        let writes = report.partition_io.writes() as usize;
        let min_expected = r.num_pages() + s.num_pages();
        assert!(writes >= min_expected);
        assert!(
            writes <= min_expected + 2 * (spec.buffer_pages - 1),
            "writes {writes} exceed one page of slack per partition"
        );
        // And those writes are random writes (μ-weighted in the cost model).
        assert_eq!(report.partition_io.seq_writes, 0);
    }

    #[test]
    fn parallel_ghj_matches_sequential_io_and_output() {
        let spec = JoinSpec::paper_synthetic(128, 32);
        let counts = |k: u64| if k < 12 { 120 } else { 2 };
        assert_parallel_equivalence(
            "ghj/skewed",
            &[1, 2, 4],
            &pinned_report(5_416, [240, 0, 0, 269], [269, 0, 0, 0]),
            |threads| {
                let dev = SimDevice::new_ref();
                let (r, s) = build_workload(dev.clone(), &spec, 2_000, counts);
                dev.reset_stats();
                GraceHashJoin::new(spec)
                    .run_parallel_obs(&r, &s, threads, &Obs::off())
                    .unwrap()
            },
        );
    }

    #[test]
    fn ghj_costs_more_io_than_nbj_when_r_fits_in_memory() {
        let dev = SimDevice::new_ref();
        let spec = JoinSpec::paper_synthetic(128, 512);
        let counts = |_k: u64| 2u64;
        let (r, s) = build_workload(dev.clone(), &spec, 1_000, counts);
        dev.reset_stats();
        let ghj = run(GraceHashJoin::new(spec), &r, &s);
        dev.reset_stats();
        let nbj = crate::nbj::NestedBlockJoin::new(spec)
            .run_obs(&r, &s, &Obs::off())
            .unwrap();
        assert_eq!(ghj.output_records, nbj.output_records);
        assert!(
            ghj.total_ios() > nbj.total_ios(),
            "partitioning is wasted work when R fits in memory"
        );
    }
}
