//! The concurrent residual stager: per-worker staging buffers with
//! deterministic, quota-triggered destaging.
//!
//! This is the DHH-style residual partitioner NOCAP and DHH stage R
//! through, at every thread count. Each worker stages the records it
//! routes in private, lock-free buffers (one per partition). The
//! *accounting* is shared: a per-partition atomic record count, charged
//! with the same `hash_table_pages` formula the single-threaded
//! [`QuotaStager`](crate::QuotaStager) reference uses. The moment a
//! partition's global staged footprint exceeds its quota (see
//! [`crate::quota::even_caps`]), the worker that crossed the threshold
//! flips the partition's page-out bit and drains its own staged records
//! into the partition's shared spill writer; other workers drain theirs
//! lazily — on their next touch of the partition, or at the merge step in
//! [`ParallelStager::finish`].
//!
//! **Why this is deterministic.** The staged count of a partition only
//! grows until the partition is destaged, so the page-out bit ends up set
//! if and only if `hash_table_pages(n_p) > cap_p`, where `n_p` is the
//! partition's total record count — a quantity independent of both the
//! scan order and the thread interleaving. And because a destaged
//! partition funnels all `n_p` records through one shared single-buffer
//! writer, it flushes exactly `⌈n_p / b⌉` pages. Both the destaged *set*
//! and the *per-partition write counts* therefore match the single-threaded
//! reference exactly, for any worker count.
//!
//! **Why the memory model stays honest.** The staged charge is computed
//! from the global count with the same formula, partitions stay within
//! their quotas, and the quotas sum to the residual budget — so the total
//! staged footprint plus one output-buffer page per destaged partition
//! never exceeds the budget, the §4.1 invariant. The only transient slack
//! is records a worker staged in the instant before it observed a
//! concurrent destage; they are bounded by one insert per worker and
//! drained on first touch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use nocap_model::JoinSpec;
use nocap_storage::device::DeviceRef;
use nocap_storage::{
    into_inner_unpoisoned, lock_unpoisoned, IoKind, PartitionHandle, PartitionWriter, RecordBatch,
    RecordLayout, RecordRef, Result, SpillGuard,
};

struct PartShared {
    /// Records staged globally (stops growing once the partition destages).
    staged_count: AtomicU64,
    /// Page-out bit: set exactly once, by the worker that crossed the quota.
    spilled: AtomicBool,
    /// The shared spill writer (created by the destaging worker).
    writer: Mutex<Option<PartitionWriter>>,
}

/// Per-worker staging state. Create one per worker with
/// [`ParallelStager::worker_stage`]; it holds the worker's private staged
/// records in columnar [`RecordBatch`] arenas, so the staging fast path
/// touches no lock and performs no per-record allocation.
pub struct WorkerStage {
    staged: Vec<RecordBatch>,
}

/// What the stager hands back after all workers finished their scans.
pub struct StagerBuild {
    /// Records of partitions that stayed in memory, merged across workers
    /// (destined for the executor's in-memory hash table).
    pub staged_records: RecordBatch,
    /// Spilled partitions by partition id (`None` if the partition stayed
    /// in memory).
    pub spilled: Vec<Option<PartitionHandle>>,
    /// Page-out bits, by partition id.
    pub pob: Vec<bool>,
}

/// Deterministic concurrent residual stager.
pub struct ParallelStager {
    device: DeviceRef,
    layout: RecordLayout,
    spec: JoinSpec,
    caps: Vec<usize>,
    parts: Vec<PartShared>,
}

impl ParallelStager {
    /// Creates a stager for `caps.len()` partitions; `caps[p]` is partition
    /// `p`'s staging quota in pages (see [`crate::quota::even_caps`]).
    pub fn new(device: DeviceRef, layout: RecordLayout, spec: JoinSpec, caps: Vec<usize>) -> Self {
        let parts = caps
            .iter()
            .map(|_| PartShared {
                staged_count: AtomicU64::new(0),
                spilled: AtomicBool::new(false),
                writer: Mutex::new(None),
            })
            .collect();
        ParallelStager {
            device,
            layout,
            spec,
            caps,
            parts,
        }
    }

    /// Number of residual partitions.
    pub fn num_partitions(&self) -> usize {
        self.parts.len()
    }

    /// Creates the private staging state for one worker.
    pub fn worker_stage(&self) -> WorkerStage {
        WorkerStage {
            staged: vec![RecordBatch::new(self.layout); self.parts.len()],
        }
    }

    /// Pages currently charged against the residual budget: staged records
    /// (by the `hash_table_pages` formula over the global counts) plus one
    /// output-buffer page per destaged partition.
    pub fn pages_in_use(&self) -> usize {
        self.parts
            .iter()
            .map(|part| {
                if part.spilled.load(Ordering::Acquire) {
                    1
                } else {
                    let n = part.staged_count.load(Ordering::Acquire) as usize;
                    if n == 0 {
                        0
                    } else {
                        self.spec.hash_table_pages(n).max(1)
                    }
                }
            })
            .sum()
    }

    /// Number of partitions destaged so far.
    pub fn spilled_partitions(&self) -> usize {
        self.parts
            .iter()
            .filter(|p| p.spilled.load(Ordering::Acquire))
            .count()
    }

    /// Routes one borrowed record of partition `p` through worker state
    /// `stage` — a key push plus payload `memcpy` on the staging fast path.
    pub fn insert(&self, stage: &mut WorkerStage, p: usize, rec: RecordRef<'_>) -> Result<()> {
        let part = &self.parts[p];
        if part.spilled.load(Ordering::Acquire) {
            // Already destaged: drain any of our leftovers, then append.
            return self.drain_into_writer(stage, p, Some(rec));
        }
        stage.staged[p].push(rec);
        let n = part.staged_count.fetch_add(1, Ordering::AcqRel) + 1;
        if self.spec.hash_table_pages(n as usize).max(1) > self.caps[p] {
            part.spilled.store(true, Ordering::Release);
            return self.drain_into_writer(stage, p, None);
        }
        Ok(())
    }

    /// Moves the worker's staged records for `p` (plus `extra`, if any)
    /// into the partition's shared writer, creating it on first use.
    fn drain_into_writer(
        &self,
        stage: &mut WorkerStage,
        p: usize,
        extra: Option<RecordRef<'_>>,
    ) -> Result<()> {
        let mut guard = lock_unpoisoned(&self.parts[p].writer);
        let writer = guard.get_or_insert_with(|| {
            PartitionWriter::new(
                self.device.clone(),
                self.layout,
                self.spec.page_size,
                IoKind::RandWrite,
            )
        });
        for rec in stage.staged[p].iter() {
            writer.push_ref(rec)?;
        }
        stage.staged[p].clear();
        if let Some(rec) = extra {
            writer.push_ref(rec)?;
        }
        Ok(())
    }

    /// Merges the per-worker runs: staged records of in-memory partitions
    /// are concatenated for the caller's hash table; leftovers of destaged
    /// partitions are flushed into their writers, which are then finished
    /// into partition handles.
    pub fn finish(self, mut stages: Vec<WorkerStage>) -> Result<StagerBuild> {
        let mut staged_records = RecordBatch::new(self.layout);
        let mut spilled = Vec::with_capacity(self.parts.len());
        let mut pob = Vec::with_capacity(self.parts.len());
        // If finishing any partition fails, the guard deletes the handles
        // already produced (unfinished writers clean up via their own Drop);
        // on success the caller takes ownership.
        let mut guard = SpillGuard::new();
        for (p, part) in self.parts.into_iter().enumerate() {
            let is_spilled = part.spilled.load(Ordering::Acquire);
            pob.push(is_spilled);
            if is_spilled {
                let mut writer = into_inner_unpoisoned(part.writer).unwrap_or_else(|| {
                    PartitionWriter::new(
                        self.device.clone(),
                        self.layout,
                        self.spec.page_size,
                        IoKind::RandWrite,
                    )
                });
                for stage in &mut stages {
                    for rec in stage.staged[p].iter() {
                        writer.push_ref(rec)?;
                    }
                    stage.staged[p].clear();
                }
                let handle = writer.finish()?;
                guard.adopt(handle.clone());
                spilled.push(Some(handle));
            } else {
                for stage in &mut stages {
                    staged_records.append(&mut stage.staged[p]);
                }
                spilled.push(None);
            }
        }
        let _ = guard.release();
        Ok(StagerBuild {
            staged_records,
            spilled,
            pob,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::run_workers;
    use crate::quota::even_caps;
    use nocap_storage::{Record, SimDevice};

    fn spec() -> JoinSpec {
        JoinSpec::paper_synthetic(128, 16)
    }

    /// Runs `records` keys through the stager with `threads` workers and a
    /// plain modulo router, returning (pob, spill page counts, total I/O).
    fn run_stager(
        threads: usize,
        budget: usize,
        parts: usize,
        keys: &[u64],
    ) -> (Vec<bool>, Vec<usize>, u64) {
        let device = SimDevice::new_ref();
        let spec = spec();
        let stager = ParallelStager::new(
            device.clone(),
            spec.r_layout,
            spec,
            even_caps(budget, parts),
        );
        let shard = keys.len().div_ceil(threads);
        let stages = run_workers(threads, |w| {
            let mut stage = stager.worker_stage();
            let lo = (w * shard).min(keys.len());
            let hi = ((w + 1) * shard).min(keys.len());
            for &k in &keys[lo..hi] {
                let rec = Record::with_fill(k, 120, 0);
                stager.insert(&mut stage, (k % parts as u64) as usize, rec.as_record_ref())?;
                assert!(stager.pages_in_use() <= budget + threads, "quota blown");
            }
            Ok(stage)
        })
        .unwrap();
        let build = stager.finish(stages).unwrap();
        let spill_pages: Vec<usize> = build
            .spilled
            .iter()
            .map(|h| h.as_ref().map_or(0, PartitionHandle::pages))
            .collect();
        let total_records: usize = build
            .spilled
            .iter()
            .flatten()
            .map(PartitionHandle::records)
            .sum::<usize>()
            + build.staged_records.len();
        assert_eq!(total_records, keys.len(), "records conserved");
        (build.pob, spill_pages, device.stats().total())
    }

    #[test]
    fn destaging_is_identical_across_worker_counts() {
        // Skewed routing: partition 0 gets 10x the records of the others.
        let mut keys: Vec<u64> = Vec::new();
        for k in 0..3_000u64 {
            keys.push(k);
            if k % 8 == 0 {
                for j in 0..10 {
                    keys.push(8 * (k + j)); // extra mass on partition 0
                }
            }
        }
        let baseline = run_stager(1, 12, 8, &keys);
        for threads in [2, 4] {
            let run = run_stager(threads, 12, 8, &keys);
            assert_eq!(
                run.0, baseline.0,
                "page-out bits differ at {threads} workers"
            );
            assert_eq!(run.1, baseline.1, "spill pages differ at {threads} workers");
            assert_eq!(run.2, baseline.2, "I/O differs at {threads} workers");
        }
    }

    #[test]
    fn partitions_under_quota_stay_in_memory() {
        let keys: Vec<u64> = (0..100).collect();
        let (pob, _, ios) = run_stager(4, 64, 4, &keys);
        assert!(pob.iter().all(|&b| !b), "tiny partitions must stay staged");
        assert_eq!(ios, 0, "nothing should be written");
    }

    #[test]
    fn parallel_stager_matches_the_sequential_quota_stager_exactly() {
        // The determinism bridge both DHH and NOCAP stand on: the same keys
        // through the same quotas must produce identical page-out bits,
        // identical per-partition spill pages and identical total I/O,
        // whether staged by the single-threaded QuotaStager reference or by
        // the ParallelStager at any worker count.
        let spec = spec();
        let parts = 6usize;
        let budget = 10usize;
        let mut keys: Vec<u64> = (0..2_500u64).collect();
        keys.extend((0..1_200u64).map(|k| k * parts as u64)); // skew partition 0
        let sequential = {
            let device = SimDevice::new_ref();
            let mut stager = crate::quota_stage::QuotaStager::new(
                device.clone(),
                spec,
                spec.r_layout,
                even_caps(budget, parts),
            );
            for &k in &keys {
                let rec = Record::with_fill(k, 120, 0);
                stager
                    .insert((k % parts as u64) as usize, rec.as_record_ref())
                    .unwrap();
            }
            let build = stager.finish().unwrap();
            let pages: Vec<usize> = build
                .spilled
                .iter()
                .map(|h| h.as_ref().map_or(0, PartitionHandle::pages))
                .collect();
            (build.pob, pages, device.stats().total())
        };
        for threads in [1usize, 2, 4] {
            let parallel = run_stager(threads, budget, parts, &keys);
            assert_eq!(parallel.0, sequential.0, "pob differs at {threads} workers");
            assert_eq!(
                parallel.1, sequential.1,
                "spill pages differ at {threads} workers"
            );
            assert_eq!(parallel.2, sequential.2, "I/O differs at {threads} workers");
        }
    }

    #[test]
    fn oversized_partitions_destage_exactly() {
        // One partition receives everything; its quota cannot hold it.
        let keys: Vec<u64> = (0..4_000).map(|k| k * 4).collect(); // all ≡ 0 mod 4
        let (pob, spill_pages, _) = run_stager(3, 8, 4, &keys);
        assert!(pob[0], "the loaded partition must destage");
        assert!(!pob[1] && !pob[2] && !pob[3]);
        // All 4 000 records funneled through one shared buffer: exactly
        // ⌈4000 / b_R⌉ pages.
        let b_r = spec().b_r();
        assert_eq!(spill_pages[0], 4_000usize.div_ceil(b_r));
    }
}
