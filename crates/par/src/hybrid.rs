//! The hybrid-hash executor body NOCAP and DHH share.
//!
//! NOCAP (Algorithms 8 and 9) and DHH (Algorithms 1 and 2) run the same
//! partition → stage → probe procedure; they differ only in what they
//! decide before it starts, which a [`HybridPlan`] carries:
//!
//! | decision | NOCAP | DHH |
//! |---|---|---|
//! | in-memory keys | the plan's cached keys | the skew keys |
//! | designated partitions | the plan's `key → partition` map | none |
//! | fixed pages | `B_HS + B_HT + B_f + m_disk` | the skew table |
//! | residual router | rounded hash | `mix64 % m_DHH` |
//! | residual quotas | `RestGeometry` | [`even_caps`](crate::even_caps) |
//!
//! [`run_hybrid`] is the one body for every thread count; `threads = 1` is
//! the sequential run. It is built so that **the join output and the
//! modeled I/O trace do not depend on the thread count**:
//!
//! * Workers scan disjoint page ranges ([`page_shards`]), so the base scans
//!   cost exactly `‖R‖ + ‖S‖` sequential reads.
//! * Every spill partition keeps **one** shared output-buffer page
//!   ([`SharedWriterSet`]), so a partition receiving `n` records flushes
//!   exactly `⌈n / b⌉` random writes regardless of arrival order.
//! * Residual destaging uses fixed per-partition quotas
//!   ([`ParallelStager`]): a partition's page-out bit depends only on its
//!   total record count, never on interleaving.
//! * The probe phase joins the same partition pairs with the same
//!   [`smart_partition_join`]; each pair's I/O is independent of the order
//!   pairs are claimed from the work queue.
//!
//! **Memory.** During the partitioning phases the pool reserves the two
//! streaming pages and the algorithm's fixed structures; what is left is the
//! residual budget the quotas are derived from. The probe-side bloom is
//! reserved after that budget is read (so geometry and quotas never shift
//! with the filter on or off), and `carve_remaining` then carves the rest
//! into one visible reservation per residual partition. The quotas therefore
//! sum to the *pre-bloom* residual budget while the carving covers that
//! budget minus the bloom's pages (2 by default): staged pages plus the
//! filter can reach `B` plus the bloom's pages while
//! `buffer_pool_peak_pages` reports at most `B`. This is an open accounting
//! term for the uneven-quota work to resolve. Two knowing simplifications
//! besides: each worker holds one transient scan-buffer page (the model
//! charges one logical input page for the pipeline, as the paper does), and
//! the fanned-out probe phase runs up to `threads` partition-pair NBJs
//! concurrently, each with the `B − 2`-page chunk the cost model prescribes
//! — peak physical probe memory is `threads × B` pages even though the
//! modeled I/O is unchanged.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use nocap_model::pairwise::smart_partition_join;
use nocap_model::{JoinRunReport, JoinSpec, ProbeBloom};
use nocap_obs::{Obs, Phase};
use nocap_storage::{
    into_inner_unpoisoned, lock_unpoisoned, BufferPool, IoKind, JoinHashTable, PartitionHandle,
    RadixRouter, Relation, Reservation, SpillGuard,
};

use crate::{
    default_threads, page_shards, run_workers_obs, sum_tasks_obs, ParallelStager, SharedWriterSet,
};

/// What one hybrid-hash algorithm decides before [`run_hybrid`] starts.
///
/// `residual` maps the residual budget — the pages the pool has left after
/// the two I/O pages and `fixed_pages` — to the per-partition staging quotas
/// and the router that sends a key to one of those partitions. The router
/// is a generic `Fn`, so each algorithm's routing is monomorphised into the
/// scan loops.
pub struct HybridPlan<G> {
    /// Label of the returned report (`"NOCAP"`, `"DHH"`).
    pub label: &'static str,
    /// Keys whose R records go straight into the in-memory hash table.
    pub mem_keys: HashSet<u64>,
    /// Designated `key → partition` map; keys in it bypass the residual
    /// partitions in both passes.
    pub designated: HashMap<u64, u32>,
    /// Number of designated partitions.
    pub num_designated: usize,
    /// Pages reserved after the two I/O pages for the algorithm's fixed
    /// in-memory structures (clamped to what the pool has left).
    pub fixed_pages: usize,
    /// Derives `(quota caps, router)` from the residual budget.
    pub residual: G,
    /// The probe-side Bloom pre-filter.
    pub bloom: ProbeBloom,
}

/// Executes `r ⋈ s` under `plan` on `threads` worker threads.
///
/// `threads == 0` selects [`default_threads`] (the `NOCAP_THREADS`
/// environment variable, falling back to the machine's parallelism). With a
/// recording `obs`: main-thread phase spans around each pass, per-worker
/// scan spans, per-task probe spans, the partition skew histograms and
/// counters, and the buffer-pool high-water gauge. Recording never
/// influences routing, destaging or claim order — clocks stay in the obs
/// channel.
pub fn run_hybrid<G, F>(
    spec: &JoinSpec,
    r: &Relation,
    s: &Relation,
    plan: HybridPlan<G>,
    threads: usize,
    obs: &Obs,
) -> nocap_storage::Result<JoinRunReport>
where
    G: FnOnce(usize) -> (Vec<usize>, F),
    F: Fn(u64) -> usize + Sync,
{
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads
    };
    let HybridPlan {
        label,
        mem_keys,
        designated,
        num_designated,
        fixed_pages,
        residual,
        bloom,
    } = plan;
    let device = r.device().clone();
    let _io_trace = obs.attach_io(&device);
    let pool = BufferPool::new(spec.buffer_pages);
    // The §4.1 budget breakdown: one streaming input page, one output page,
    // then the algorithm's fixed structures.
    let _io_pages = pool.reserve(2)?;
    let _fixed = pool.reserve(fixed_pages.min(pool.available()))?;
    let (caps, route) = residual(pool.available());
    // The bloom goes after the residual budget is read and before the
    // carving below consumes every remaining page; an exhausted pool skips
    // the filter instead of failing.
    let bloom_reservation = bloom.reserve(&pool);
    let _quotas: Vec<Reservation> = pool.carve_remaining(caps.len());

    let timer = obs.run_timer();
    let base_stats = device.stats();
    // Loop-invariant: DHH has no designated partitions, and its scan loops
    // skip the map lookup entirely.
    let has_designated = !designated.is_empty();

    // ---- Partition R --------------------------------------------------
    let stager = ParallelStager::new(device.clone(), r.layout(), *spec, caps);
    let r_disk = SharedWriterSet::new(
        device.clone(),
        r.layout(),
        spec.page_size,
        IoKind::RandWrite,
        num_designated,
    );
    let ht_shared = Mutex::new(JoinHashTable::new(r.layout(), spec.page_size, spec.fudge));
    let r_shards = page_shards(r.num_pages(), threads);
    let r_partition_span = obs.span(Phase::Partition);
    let stages = run_workers_obs(threads, obs, Phase::Partition, |w, _wobs| {
        let mut stage = stager.worker_stage();
        // Per-worker radix write buffers: residual records batch up per
        // partition and flush into the stager in cache-friendly runs.
        // Per-partition arrival order within this worker is preserved and
        // quota destaging depends only on per-partition counts, so staged
        // contents and spill decisions are unchanged.
        let mut router = RadixRouter::new(r.layout(), stager.num_partitions());
        let mut scan = r.scan_range(r_shards[w].clone());
        while let Some(page) = scan.next_page()? {
            for rec in page.record_refs() {
                let key = rec.key();
                if mem_keys.contains(&key) {
                    // R is the primary-key side: each in-memory key appears
                    // once in R, so this lock is cold.
                    lock_unpoisoned(&ht_shared).insert_ref(rec);
                    continue;
                }
                if has_designated {
                    if let Some(&pid) = designated.get(&key) {
                        r_disk.push(pid as usize, rec)?;
                        continue;
                    }
                }
                router.push(route(key), rec, &mut |p, r| stager.insert(&mut stage, p, r))?;
            }
        }
        router.finish(&mut |p, r| stager.insert(&mut stage, p, r))?;
        Ok(stage)
    })?;
    drop(r_partition_span);
    let spill_span = obs.span(Phase::Spill);
    let rest_build = stager.finish(stages)?;
    // Every finished spill handle is adopted immediately, so an error
    // anywhere below — probing, a faulted device — deletes all spill files
    // on unwind.
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
    // Freeze the completed build side for vectorized probes and build the
    // probe pre-filter from its keys (order-invariant bit contents).
    ht_mem.seal();
    let bloom = bloom.build(&ht_mem, &bloom_reservation, spec.page_size);

    // ---- Partition / probe S ------------------------------------------
    let s_disk = SharedWriterSet::new(
        device.clone(),
        s.layout(),
        spec.page_size,
        IoKind::RandWrite,
        num_designated,
    );
    let s_rest = SharedWriterSet::new_masked(
        device.clone(),
        s.layout(),
        spec.page_size,
        IoKind::RandWrite,
        &rest_build.pob,
    );
    let s_shards = page_shards(s.num_pages(), threads);
    let pob = &rest_build.pob;
    let s_partition_span = obs.span(Phase::Partition);
    let probe_counts = run_workers_obs(threads, obs, Phase::Partition, |w, _wobs| {
        let mut output = 0u64;
        let mut scan = s.scan_range(s_shards[w].clone());
        while let Some(page) = scan.next_page()? {
            for rec in page.record_refs() {
                let key = rec.key();
                if has_designated {
                    if let Some(&pid) = designated.get(&key) {
                        s_disk.push(pid as usize, rec)?;
                        continue;
                    }
                }
                // Bloom-negative keys take the identical `matches == 0`
                // route (no false negatives), so routing and modeled I/O
                // match the filterless run bit for bit.
                let matches = if bloom.as_ref().is_none_or(|b| b.may_contain(key)) {
                    ht_mem.probe_count(key)
                } else {
                    0
                };
                if matches > 0 {
                    output += matches;
                    continue;
                }
                let part = route(key);
                if pob[part] {
                    s_rest.push(part, rec)?;
                }
                // else: the partition stayed in memory and the key had no
                // match.
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
        pob.len(),
        rest_build.staged_records.len(),
    );

    // ---- Partition-wise joins, fanned out -----------------------------
    // Partial output-buffer pages flush inside this probe window.
    let probe_base = device.stats();
    let probe_span = obs.span(Phase::Probe);
    let s_disk_handles = s_disk.finish_dense()?;
    spill_guard.adopt_all(s_disk_handles.iter().cloned());
    let s_rest_handles = s_rest.finish_all()?;
    spill_guard.adopt_all(s_rest_handles.iter().flatten().cloned());
    let mut pairs: Vec<(PartitionHandle, PartitionHandle)> =
        r_disk_handles.into_iter().zip(s_disk_handles).collect();
    for (maybe_r, maybe_s) in rest_build.spilled.iter().zip(s_rest_handles) {
        if let (Some(r_part), Some(s_part)) = (maybe_r, maybe_s) {
            pairs.push((r_part.clone(), s_part));
        }
    }
    output += sum_tasks_obs(threads, obs, Phase::Probe, pairs.len(), |i| {
        smart_partition_join(&pairs[i].0, &pairs[i].1, spec, 1)
    })?;
    drop(probe_span);
    let probe_io = device.stats().since(&probe_base);

    // Dropping the guard deletes every spill file (not counted as I/O).
    drop(spill_guard);

    obs.gauge_max("buffer_pool_peak_pages", pool.peak() as u64);
    let mut report = JoinRunReport::new(label);
    report.output_records = output;
    report.partition_io = partition_io;
    report.probe_io = probe_io;
    report.finish_run(timer, obs);
    Ok(report)
}

/// Records the partition-fan-out skew profile: per-spilled-partition record
/// and page counts (designated partitions first, then destaged residuals),
/// the partition census and the residual records that stayed staged. Every
/// value is a function of per-partition totals, so the profile is the same
/// at every thread count.
fn record_partition_skew<'a>(
    obs: &Obs,
    designated: &'a [PartitionHandle],
    spilled_rest: impl Iterator<Item = &'a PartitionHandle> + Clone,
    rest_partitions: usize,
    staged_records: usize,
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
    obs.count("staged_records", staged_records as u64);
}
