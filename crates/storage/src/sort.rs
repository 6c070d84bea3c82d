//! External sort: zero-copy run generation plus a loser-tree multiway merge.
//!
//! The sort-merge join baseline (SMJ, §2.1 of the paper) externally sorts
//! both relations by the join key and merges them. Its cost is
//! `(1 + #s-passes · (1 + τ)) · (‖R‖ + ‖S‖)`: one initial read, and for every
//! additional sort pass a sequential write (weighted by τ) plus a read of
//! every page. Following the paper, the final merge pass is fused with the
//! join whenever the number of runs fits the merge fan-in, so
//! [`ExternalSorter::sort_to_runs`] stops as soon as `#runs ≤ fan-in` and
//! hands the runs to a merge ([`LoserTree`]) that the join drives directly.
//!
//! Both phases run on the arena record pipeline — no per-record heap
//! allocation anywhere on the hot path:
//!
//! * **Run generation** consumes page-mode scans ([`RelationScan::next_page`](crate::RelationScan::next_page)) into a columnar [`RecordBatch`] arena
//!   and sorts `(u64 key, u32 payload-index)` pairs with an unstable sort.
//!   Because the pair includes the unique insertion index, the unstable sort
//!   reproduces the stable-by-key order exactly (the tuple order is total),
//!   so run contents are identical to the pre-arena stable sorter. Payloads
//!   are moved once, by [`PartitionWriter::push_ref`], when the run spills.
//! * **Merging** drives a [`LoserTree`] of per-run page-mode cursors
//!   (`RunCursor`) that yield [`RecordRef`]s straight out of the run pages
//!   — `log₂ k` key comparisons per record, zero copies, zero allocations.
//!
//! The chunk grid of run generation ([`run_chunks`]) is **fixed by the data
//! and the budget, never by the worker count**: chunk `i` covers pages
//! `[i·(B−1), (i+1)·(B−1))`. This is what lets
//! `SortMergeJoin::run_parallel_obs` hand chunks to workers and still produce
//! bit-identical runs (and therefore identical output and modeled I/O) at
//! every thread count — the same fixed-grid discipline as the sharded
//! statistics collector.
//!
//! Run files are written sequentially ([`IoKind::SeqWrite`]); merge reads
//! interleave across runs and are counted as random reads
//! ([`IoKind::RandRead`]), matching the paper's observation that SMJ's reads
//! are ≈1.2× slower than GHJ's sequential reads.

use std::ops::Range;
use std::sync::Arc;

use crate::device::DeviceRef;
use crate::iostats::IoKind;
use crate::page::Page;
use crate::record::{Record, RecordBatch, RecordLayout, RecordRef};
use crate::relation::Relation;
use crate::spill::{PartitionHandle, PartitionReader, PartitionWriter};
use crate::Result;

/// Splits `0..num_pages` into the fixed run-generation chunk grid: each
/// chunk covers `budget_pages − 1` pages (one page of the budget streams the
/// input, the rest buffer the chunk being sorted). The grid depends only on
/// the relation size and the budget, so sequential and parallel run
/// generation produce the same runs in the same canonical order.
pub fn run_chunks(num_pages: usize, budget_pages: usize) -> Vec<Range<usize>> {
    assert!(budget_pages >= 3, "external sort needs at least 3 pages");
    let chunk = budget_pages - 1;
    (0..num_pages)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(num_pages))
        .collect()
}

/// Reusable run-generation buffers: the columnar record arena plus the
/// `(key, payload-index)` pair array that actually gets sorted.
///
/// One scratch serves any number of [`sort_chunk`] calls (allocations are
/// retained across chunks); parallel run generation gives each worker its
/// own scratch.
#[derive(Default)]
pub struct SortScratch {
    pairs: Vec<(u64, u32)>,
    batch: Option<RecordBatch>,
}

impl SortScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        SortScratch::default()
    }

    /// The arena for records of `layout`, cleared (re-created if the layout
    /// changed since the last chunk).
    fn batch_for(&mut self, layout: RecordLayout) -> &mut RecordBatch {
        match &mut self.batch {
            Some(batch) if batch.layout() == layout => {
                batch.clear();
            }
            slot => *slot = Some(RecordBatch::new(layout)),
        }
        self.batch.as_mut().expect("batch populated above")
    }
}

/// Sorts one chunk of `relation` (a page range from [`run_chunks`]) into a
/// sorted run file, using `scratch` for the arena and the pair array.
///
/// The chunk's pages stream in via the zero-copy page scan; each record
/// costs one arena `memcpy` plus one `(key, index)` pair push. The pairs are
/// sorted unstably — the unique index makes the order total, so the result
/// matches a stable by-key sort — and the payloads move exactly once more,
/// into the run's output page.
pub fn sort_chunk(
    relation: &Relation,
    pages: Range<usize>,
    scratch: &mut SortScratch,
) -> Result<PartitionHandle> {
    let layout = relation.layout();
    scratch.batch_for(layout);
    scratch.pairs.clear();
    let batch = scratch.batch.as_mut().expect("batch populated");
    let mut scan = relation.scan_range(pages);
    while let Some(page) = scan.next_page()? {
        for rec in page.record_refs() {
            scratch.pairs.push((rec.key(), batch.len() as u32));
            batch.push(rec);
        }
    }
    assert!(
        batch.len() <= u32::MAX as usize,
        "sort chunk exceeds the u32 payload-index range"
    );
    scratch.pairs.sort_unstable();
    let mut writer = PartitionWriter::new(
        relation.device().clone(),
        layout,
        relation.page_size(),
        IoKind::SeqWrite,
    );
    for &(_, idx) in &scratch.pairs {
        writer.push_ref(batch.get(idx as usize))?;
    }
    writer.finish()
}

/// External sorter with a fixed page budget.
pub struct ExternalSorter {
    device: DeviceRef,
    /// Page budget available for run generation and merging (the paper's B).
    budget_pages: usize,
    /// Statistics: how many full sort passes were performed (the paper's
    /// `#s-passes`, excluding the fused final merge).
    passes: usize,
}

/// Outcome of [`ExternalSorter::sort_to_runs`]: the runs plus bookkeeping.
pub struct SortedRuns {
    /// Sorted run files, each internally ordered by key.
    pub runs: Vec<PartitionHandle>,
    /// Number of intermediate merge passes that were necessary before the
    /// run count fit the merge fan-in (0 when run generation was enough).
    pub merge_passes: usize,
}

impl ExternalSorter {
    /// Creates a sorter that may use `budget_pages` pages of memory.
    ///
    /// At least 3 pages are required (one input page plus a two-way merge).
    pub fn new(device: DeviceRef, budget_pages: usize) -> Self {
        assert!(budget_pages >= 3, "external sort needs at least 3 pages");
        ExternalSorter {
            device,
            budget_pages,
            passes: 0,
        }
    }

    /// Number of full passes over the data performed so far (run generation
    /// counts as one pass; each intermediate merge adds another).
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Sorts `relation` into runs, merging intermediate runs until at most
    /// `max_final_runs` remain, and returns them.
    ///
    /// `max_final_runs` is typically `B − 1` for a single-relation sort or a
    /// smaller share when two relations are sorted for the same merge join.
    pub fn sort_to_runs(
        &mut self,
        relation: &Relation,
        max_final_runs: usize,
    ) -> Result<SortedRuns> {
        let runs = self.generate_runs(relation)?;
        self.passes += 1;
        self.merge_to_fan_in(runs, max_final_runs)
    }

    /// Merges already-generated `runs` until at most `max_final_runs` remain.
    ///
    /// This is the second half of [`sort_to_runs`](Self::sort_to_runs),
    /// exposed so a parallel executor can generate the runs itself (workers
    /// claiming [`run_chunks`] in canonical order) and still share the exact
    /// sequential merge cascade.
    pub fn merge_to_fan_in(
        &mut self,
        mut runs: Vec<PartitionHandle>,
        max_final_runs: usize,
    ) -> Result<SortedRuns> {
        assert!(max_final_runs >= 2, "need at least a two-way final merge");
        let mut merge_passes = 0;
        while runs.len() > max_final_runs {
            runs = self.merge_pass(runs)?;
            merge_passes += 1;
            self.passes += 1;
        }
        Ok(SortedRuns { runs, merge_passes })
    }

    /// Fully sorts a relation and returns a single run containing all records
    /// in key order (convenience for tests and examples).
    pub fn sort_fully(&mut self, relation: &Relation) -> Result<PartitionHandle> {
        let SortedRuns { mut runs, .. } = self.sort_to_runs(relation, 2)?;
        while runs.len() > 1 {
            runs = self.merge_pass(runs)?;
            self.passes += 1;
        }
        Ok(runs.pop().expect("at least one run"))
    }

    /// Phase 1: sort each chunk of the fixed page grid and write it out as a
    /// run — the sequential walk over [`run_chunks`], one reused scratch.
    /// Fail-clean: a mid-grid error deletes the runs already written.
    fn generate_runs(&mut self, relation: &Relation) -> Result<Vec<PartitionHandle>> {
        let mut scratch = SortScratch::new();
        let mut guard = crate::SpillGuard::new();
        let mut runs = Vec::new();
        for chunk in run_chunks(relation.num_pages(), self.budget_pages) {
            let run = sort_chunk(relation, chunk, &mut scratch)?;
            guard.adopt(run.clone());
            runs.push(run);
        }
        let _ = guard.release();
        Ok(runs)
    }

    /// Phase 2: one merge pass combining groups of up to `B − 1` runs into
    /// longer runs. Fail-clean: an error anywhere in the pass deletes both
    /// the input runs and the merged runs produced so far (double-deleting
    /// an input a successful group merge already removed is ignored).
    fn merge_pass(&mut self, runs: Vec<PartitionHandle>) -> Result<Vec<PartitionHandle>> {
        let mut guard = crate::SpillGuard::new();
        guard.adopt_all(runs.iter().cloned());
        let fan_in = (self.budget_pages - 1).max(2);
        let mut next_level = Vec::new();
        let mut group = Vec::new();
        let mut geometry = None;

        // Figure out layout/page size from the first non-empty run by reading
        // its first page; all runs of one sort share the same geometry. A
        // one-off page fetch is a random access at the device — declaring it
        // sequential would misprice it and trip the I/O declaration audit.
        for run in &runs {
            if run.records() > 0 {
                let page = run
                    .read(IoKind::RandRead)
                    .next_page()?
                    .expect("non-empty run has a page");
                geometry = Some((page.record_layout(), page.size()));
                break;
            }
        }
        let (layout, page_size) = match geometry {
            Some(g) => g,
            // All runs empty: nothing to merge.
            None => {
                let _ = guard.release();
                return Ok(runs);
            }
        };

        for run in runs {
            group.push(run);
            if group.len() == fan_in {
                let merged = self.merge_group(std::mem::take(&mut group), layout, page_size)?;
                guard.adopt(merged.clone());
                next_level.push(merged);
            }
        }
        if group.len() == 1 {
            next_level.push(group.pop().expect("single leftover run"));
        } else if !group.is_empty() {
            let merged = self.merge_group(group, layout, page_size)?;
            guard.adopt(merged.clone());
            next_level.push(merged);
        }
        let _ = guard.release();
        Ok(next_level)
    }

    fn merge_group(
        &self,
        runs: Vec<PartitionHandle>,
        layout: RecordLayout,
        page_size: usize,
    ) -> Result<PartitionHandle> {
        // The input runs are consumed whether the merge succeeds (their
        // records now live in the merged run) or fails (the caller's guard
        // is about to delete everything anyway); the writer deletes its own
        // partial output file on drop if `finish` is never reached.
        let mut guard = crate::SpillGuard::new();
        guard.adopt_all(runs.iter().cloned());
        let mut writer =
            PartitionWriter::new(self.device.clone(), layout, page_size, IoKind::SeqWrite);
        let mut tree = LoserTree::new(&runs)?;
        while let Some(rec) = tree.next_ref()? {
            writer.push_ref(rec)?;
        }
        let merged = writer.finish()?;
        drop(guard);
        Ok(merged)
    }
}

/// Page-mode cursor over one sorted run: the current page is held as an
/// `Arc<Page>` and records are decoded in place, so advancing costs one key
/// decode and yielding a record costs nothing but a slice borrow.
struct RunCursor {
    reader: PartitionReader,
    page: Option<Arc<Page>>,
    pos: usize,
    key: u64,
}

impl RunCursor {
    /// Opens a cursor and primes it on the run's first record (reading the
    /// first page — the same up-front read the heap-based merge performed).
    fn new(run: &PartitionHandle) -> Result<Self> {
        let mut cursor = RunCursor {
            reader: run.read(IoKind::RandRead),
            page: None,
            pos: 0,
            key: 0,
        };
        cursor.load_page()?;
        Ok(cursor)
    }

    fn load_page(&mut self) -> Result<()> {
        loop {
            match self.reader.next_page()? {
                Some(page) => {
                    // Writers never flush empty pages, but skip them anyway.
                    if page.record_count() > 0 {
                        self.key = page.get_ref(0)?.key();
                        self.pos = 0;
                        self.page = Some(page);
                        return Ok(());
                    }
                }
                None => {
                    self.page = None;
                    return Ok(());
                }
            }
        }
    }

    /// `true` once the run is exhausted.
    fn is_done(&self) -> bool {
        self.page.is_none()
    }

    /// Key of the current record (meaningless when done).
    fn key(&self) -> u64 {
        self.key
    }

    /// Moves to the next record, loading the next page when the current one
    /// is drained.
    fn advance(&mut self) -> Result<()> {
        let Some(page) = &self.page else {
            return Ok(());
        };
        self.pos += 1;
        if self.pos < page.record_count() {
            self.key = page.get_ref(self.pos)?.key();
            return Ok(());
        }
        self.load_page()
    }

    /// Borrowed view of the current record, straight out of the run page.
    fn current(&self) -> Result<RecordRef<'_>> {
        self.page
            .as_ref()
            .expect("current() on an exhausted cursor")
            .get_ref(self.pos)
    }
}

/// K-way merge over sorted runs via a loser tree (tournament tree), yielding
/// records in ascending key order with ties broken by run index — the same
/// total order the previous `BinaryHeap<Reverse<(key, idx)>>` produced, at
/// `⌈log₂ k⌉` comparisons per record and with no per-record allocation.
///
/// Reads interleave across runs and are counted as random reads.
///
/// The tree hands out borrowed [`RecordRef`]s (`next_ref`) for consumers
/// that move payloads (the merge cascade) and bare keys
/// (`next_key`/`peek_key`) for the counting merge join, which never needs
/// the payload bytes at all.
pub struct LoserTree {
    cursors: Vec<RunCursor>,
    /// `tree[0]` is the overall winner; `tree[1..k]` hold the loser of each
    /// internal tournament node.
    tree: Vec<usize>,
    /// Cursor whose advance is owed before the next winner is read. Deferring
    /// the advance lets `next_ref` hand out a borrow of the winner's page
    /// without replaying the tree first.
    pending: Option<usize>,
    /// The runner-up: the best cursor among the losers on the current
    /// winner's leaf-to-root path — by the classic loser-tree argument,
    /// the second-best cursor overall. Cached by [`replay`](Self::replay)
    /// whenever the winner's path survives a replay unswapped, it turns
    /// the common refill case (the advanced winner still wins — long
    /// duplicate or presorted stretches) into a single batched key compare
    /// instead of a `⌈log₂ k⌉`-step replay. `None` whenever the path
    /// changed and the runner-up would have to be recomputed.
    runner_up: Option<usize>,
}

impl LoserTree {
    /// Builds a merge over `runs` (each must be internally sorted). Opening
    /// the tree reads the first page of every non-empty run.
    pub fn new(runs: &[PartitionHandle]) -> Result<Self> {
        let cursors = runs
            .iter()
            .map(RunCursor::new)
            .collect::<Result<Vec<_>>>()?;
        let mut tree = LoserTree {
            cursors,
            tree: Vec::new(),
            pending: None,
            runner_up: None,
        };
        tree.build();
        Ok(tree)
    }

    /// `true` if cursor `a` wins against cursor `b`: exhausted cursors lose
    /// to live ones, smaller keys win, and equal keys fall back to the run
    /// index so the merge order is a total, canonical order.
    fn beats(&self, a: usize, b: usize) -> bool {
        let ca = &self.cursors[a];
        let cb = &self.cursors[b];
        (ca.is_done(), ca.key(), a) < (cb.is_done(), cb.key(), b)
    }

    /// Plays the initial tournament: leaves `k..2k` are the cursors, each
    /// internal node records its loser, the overall winner lands in
    /// `tree[0]`.
    fn build(&mut self) {
        let k = self.cursors.len();
        if k == 0 {
            self.tree = vec![];
            return;
        }
        self.tree = vec![usize::MAX; k];
        let mut winners = vec![0usize; 2 * k];
        for (leaf, slot) in winners.iter_mut().enumerate().take(2 * k).skip(k) {
            *slot = leaf - k;
        }
        for node in (1..k).rev() {
            let (a, b) = (winners[2 * node], winners[2 * node + 1]);
            let (w, l) = if self.beats(a, b) { (a, b) } else { (b, a) };
            winners[node] = w;
            self.tree[node] = l;
        }
        // For k == 1 the single leaf sits at index 1 and is the winner.
        self.tree[0] = winners[1];
    }

    /// Replays the path from cursor `j`'s leaf to the root after `j`
    /// advanced, restoring the loser-tree invariant in `⌈log₂ k⌉` steps.
    ///
    /// While the path stays *intact* — no node swaps its loser, i.e. `j`
    /// wins every match and remains the overall winner — the losers it
    /// meets are exactly the losers on the winner's path, so the best of
    /// them is the runner-up and is cached for the batched-refill fast
    /// path in [`settle`](Self::settle). The first swap changes the path's
    /// losers (and possibly the winner), so the cache is dropped: a
    /// streaming top-2 over the visited values would be *wrong* in that
    /// case, because the true second-best can be a leaf not on `j`'s path
    /// at all once the winner changes.
    fn replay(&mut self, j: usize) {
        let k = self.cursors.len();
        let mut winner = j;
        let mut node = (k + j) / 2;
        let mut runner_up: Option<usize> = None;
        let mut intact = true;
        while node >= 1 {
            if self.beats(self.tree[node], winner) {
                std::mem::swap(&mut self.tree[node], &mut winner);
                intact = false;
            } else if intact {
                runner_up = Some(match runner_up {
                    Some(r) if self.beats(r, self.tree[node]) => r,
                    _ => self.tree[node],
                });
            }
            node /= 2;
        }
        self.tree[0] = winner;
        self.runner_up = if intact { runner_up } else { None };
    }

    /// Performs the advance owed from the previous `next_*` call, if any.
    ///
    /// Fast path: when the runner-up is cached, one comparison of the
    /// advanced winner against it decides whether the whole tree is
    /// already settled — the runner-up is the best of the other cursors,
    /// so beating it means beating everyone. The tree and the cache are
    /// both left untouched (no loser moved), which keeps the fast path
    /// valid for arbitrarily long winning streaks: duplicate-heavy keys
    /// and presorted stretches refill in O(1) comparisons per record
    /// instead of `⌈log₂ k⌉`.
    fn settle(&mut self) -> Result<()> {
        if let Some(j) = self.pending.take() {
            self.cursors[j].advance()?;
            if let Some(r) = self.runner_up {
                debug_assert_eq!(self.tree[0], j, "only the winner owes an advance");
                if self.beats(j, r) {
                    return Ok(());
                }
            }
            self.replay(j);
        }
        Ok(())
    }

    /// Key of the next record without consuming it.
    pub fn peek_key(&mut self) -> Result<Option<u64>> {
        self.settle()?;
        if self.cursors.is_empty() {
            return Ok(None);
        }
        let w = self.tree[0];
        if self.cursors[w].is_done() {
            Ok(None)
        } else {
            Ok(Some(self.cursors[w].key()))
        }
    }

    /// Consumes the next record, returning only its key (the counting merge
    /// join's path — payload bytes are never touched).
    pub fn next_key(&mut self) -> Result<Option<u64>> {
        self.settle()?;
        if self.cursors.is_empty() {
            return Ok(None);
        }
        let w = self.tree[0];
        if self.cursors[w].is_done() {
            return Ok(None);
        }
        self.pending = Some(w);
        Ok(Some(self.cursors[w].key()))
    }

    /// Consumes the next record, returning a borrowed view straight out of
    /// the winning run's page (valid until the next call on the tree).
    pub fn next_ref(&mut self) -> Result<Option<RecordRef<'_>>> {
        self.settle()?;
        if self.cursors.is_empty() {
            return Ok(None);
        }
        let w = self.tree[0];
        if self.cursors[w].is_done() {
            return Ok(None);
        }
        self.pending = Some(w);
        self.cursors[w].current().map(Some)
    }
}

/// Owned-record iterator over a [`LoserTree`] merge — the API edge for
/// tests, examples and diagnostic consumers that want `Result<Record>`s
/// (one allocation per record). Hot paths drive the tree directly.
pub struct MergeIterator {
    tree: LoserTree,
}

impl MergeIterator {
    /// Builds a merge iterator over `runs` (each must be internally sorted).
    pub fn new(runs: &[PartitionHandle]) -> Result<Self> {
        Ok(MergeIterator {
            tree: LoserTree::new(runs)?,
        })
    }

    /// Peeks at the key of the next record without consuming it.
    pub fn peek_key(&mut self) -> Result<Option<u64>> {
        self.tree.peek_key()
    }
}

impl Iterator for MergeIterator {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.tree.next_ref() {
            Ok(Some(rec)) => Some(Ok(rec.to_record())),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::SimDevice;
    use crate::record::RecordLayout;

    fn build_relation(dev: DeviceRef, keys: &[u64]) -> Relation {
        Relation::bulk_load(
            dev,
            RecordLayout::new(8),
            crate::page::DEFAULT_PAGE_SIZE,
            keys.iter().map(|&k| Record::with_fill(k, 8, 0)),
        )
        .unwrap()
    }

    fn shuffled(n: u64) -> Vec<u64> {
        // Deterministic pseudo-shuffle (multiplicative hash ordering).
        let mut keys: Vec<u64> = (0..n).collect();
        keys.sort_by_key(|&k| k.wrapping_mul(0x9E3779B97F4A7C15));
        keys
    }

    #[test]
    fn sort_fully_orders_all_records() {
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev.clone(), &shuffled(5_000));
        let mut sorter = ExternalSorter::new(dev, 4);
        let sorted = sorter.sort_fully(&rel).unwrap();
        let keys: Vec<u64> = sorted
            .read(IoKind::SeqRead)
            .map(|r| r.unwrap().key())
            .collect();
        assert_eq!(keys.len(), 5_000);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sort_to_runs_respects_fan_in() {
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev.clone(), &shuffled(20_000));
        let mut sorter = ExternalSorter::new(dev, 5);
        let out = sorter.sort_to_runs(&rel, 4).unwrap();
        assert!(out.runs.len() <= 4);
        let total: usize = out.runs.iter().map(|r| r.records()).sum();
        assert_eq!(total, 20_000);
        for run in &out.runs {
            let keys: Vec<u64> = run
                .read(IoKind::SeqRead)
                .map(|r| r.unwrap().key())
                .collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "run must be sorted");
        }
    }

    #[test]
    fn single_chunk_needs_one_run_and_no_merge() {
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev.clone(), &shuffled(100));
        let mut sorter = ExternalSorter::new(dev, 64);
        let out = sorter.sort_to_runs(&rel, 63).unwrap();
        assert_eq!(out.runs.len(), 1);
        assert_eq!(out.merge_passes, 0);
    }

    #[test]
    fn merge_iterator_merges_across_runs() {
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev.clone(), &shuffled(3_000));
        let mut sorter = ExternalSorter::new(dev, 3);
        let out = sorter.sort_to_runs(&rel, 8).unwrap();
        assert!(out.runs.len() > 1, "small budget must produce several runs");
        let merged: Vec<u64> = MergeIterator::new(&out.runs)
            .unwrap()
            .map(|r| r.unwrap().key())
            .collect();
        assert_eq!(merged.len(), 3_000);
        assert!(merged.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Adversarial pin of the batched refill: long duplicate streaks keep
    /// the runner-up fast path hot, tight interleavings force the winner to
    /// change every record (invalidating the cache), and an early-exhausting
    /// run exercises done-cursor comparisons — the merge order must stay
    /// exactly the canonical (key, run index) order in every regime.
    #[test]
    fn loser_tree_fast_refill_preserves_the_canonical_merge_order() {
        let dev = SimDevice::new_ref();
        let layout = RecordLayout::new(8);
        let runs_keys: Vec<Vec<u64>> = vec![
            std::iter::repeat_n(5u64, 300).chain(600..900).collect(),
            (0..600u64).map(|i| i / 2).collect(),
            (0..200u64).map(|i| i * 3).collect(),
            vec![7; 50],
        ];
        let mut runs = Vec::new();
        for (ri, keys) in runs_keys.iter().enumerate() {
            let mut w = crate::spill::PartitionWriter::new(
                dev.clone(),
                layout,
                crate::page::DEFAULT_PAGE_SIZE,
                IoKind::RandWrite,
            );
            for &k in keys {
                w.push(&Record::with_fill(k, 8, ri as u8)).unwrap();
            }
            runs.push(w.finish().unwrap());
        }
        // The documented canonical order: ascending key, ties broken by run
        // index, run-internal order preserved (stable sort).
        let mut expected: Vec<(u64, u8)> = runs_keys
            .iter()
            .enumerate()
            .flat_map(|(ri, keys)| keys.iter().map(move |&k| (k, ri as u8)))
            .collect();
        expected.sort_by_key(|&(k, ri)| (k, ri));
        let mut tree = LoserTree::new(&runs).unwrap();
        let mut got = Vec::new();
        while let Some(rec) = tree.next_ref().unwrap() {
            got.push((rec.key(), rec.payload()[0]));
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn run_writes_are_sequential_and_merge_reads_random() {
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev.clone(), &shuffled(2_000));
        dev.reset_stats();
        let mut sorter = ExternalSorter::new(dev.clone(), 3);
        let out = sorter.sort_to_runs(&rel, 16).unwrap();
        let after_runs = dev.stats();
        assert!(
            after_runs.seq_writes > 0,
            "run generation writes sequentially"
        );
        assert_eq!(after_runs.rand_writes, 0);
        let _ = MergeIterator::new(&out.runs)
            .unwrap()
            .collect::<Result<Vec<_>>>()
            .unwrap();
        let after_merge = dev.stats().since(&after_runs);
        assert!(after_merge.rand_reads > 0, "merging reads runs randomly");
        assert_eq!(after_merge.seq_reads, 0);
    }

    #[test]
    fn merge_cascade_declares_every_read_random() {
        // The cascade's one-off geometry probe fetches a single page of the
        // first non-empty run; at the device that access is random, exactly
        // like the cursor reads that follow. Pinned so the modeled counters
        // keep matching what the device-level declaration audit observes:
        // the only sequential reads in a whole sort are the input scan.
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev.clone(), &shuffled(2_000));
        dev.reset_stats();
        let mut sorter = ExternalSorter::new(dev.clone(), 3);
        let out = sorter.sort_to_runs(&rel, 2).unwrap();
        let io = dev.stats();
        assert!(
            io.rand_reads > 0,
            "merging down to {} runs requires a cascade",
            out.runs.len()
        );
        assert_eq!(
            io.seq_reads,
            rel.num_pages() as u64,
            "every read outside the input scan must be declared random"
        );
    }

    #[test]
    fn empty_relation_sorts_to_empty_runs() {
        let dev = SimDevice::new_ref();
        let rel = Relation::bulk_load(
            dev.clone(),
            RecordLayout::new(8),
            crate::page::DEFAULT_PAGE_SIZE,
            std::iter::empty(),
        )
        .unwrap();
        let mut sorter = ExternalSorter::new(dev, 4);
        let out = sorter.sort_to_runs(&rel, 4).unwrap();
        let total: usize = out.runs.iter().map(|r| r.records()).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn run_chunks_form_a_fixed_page_grid() {
        assert_eq!(run_chunks(10, 4), vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(run_chunks(6, 4), vec![0..3, 3..6]);
        assert_eq!(run_chunks(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(run_chunks(2, 16), vec![0..2]);
        for (pages, budget) in [(100, 5), (31, 32), (64, 3), (1, 7)] {
            let chunks = run_chunks(pages, budget);
            let covered: usize = chunks.iter().map(|c| c.len()).sum();
            assert_eq!(covered, pages);
            for pair in chunks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            assert!(chunks.iter().all(|c| c.len() < budget));
        }
    }

    #[test]
    fn sort_chunk_matches_a_stable_by_key_sort() {
        // Duplicate keys: the (key, index) pair sort must preserve the
        // relative input order of equal keys, exactly like the stable sort
        // the pre-arena sorter used.
        let dev = SimDevice::new_ref();
        let keys: Vec<u64> = (0..500u64).map(|i| i % 7).collect();
        let rel = Relation::bulk_load(
            dev.clone(),
            RecordLayout::new(8),
            128,
            keys.iter()
                .enumerate()
                .map(|(i, &k)| Record::new(k, (i as u64).to_le_bytes().to_vec())),
        )
        .unwrap();
        let mut scratch = SortScratch::new();
        let run = sort_chunk(&rel, 0..rel.num_pages(), &mut scratch).unwrap();
        let got: Vec<(u64, u64)> = run
            .read(IoKind::SeqRead)
            .map(|r| {
                let r = r.unwrap();
                let mut tag = [0u8; 8];
                tag.copy_from_slice(r.payload());
                (r.key(), u64::from_le_bytes(tag))
            })
            .collect();
        let mut expected: Vec<(u64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        expected.sort_by_key(|&(k, _)| k); // stable
        assert_eq!(got, expected);
        run.delete().unwrap();
    }

    #[test]
    fn scratch_is_reusable_across_chunks_and_layouts() {
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev.clone(), &shuffled(300));
        let wide = Relation::bulk_load(
            dev.clone(),
            RecordLayout::new(24),
            256,
            shuffled(100).iter().map(|&k| Record::with_fill(k, 24, 3)),
        )
        .unwrap();
        let mut scratch = SortScratch::new();
        for chunk in run_chunks(rel.num_pages(), 4) {
            let run = sort_chunk(&rel, chunk, &mut scratch).unwrap();
            assert!(run.records() > 0);
            run.delete().unwrap();
        }
        // Switching layouts mid-scratch re-creates the arena.
        let run = sort_chunk(&wide, 0..wide.num_pages(), &mut scratch).unwrap();
        assert_eq!(run.records(), 100);
        let keys: Vec<u64> = run
            .read(IoKind::SeqRead)
            .map(|r| r.unwrap().key())
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        run.delete().unwrap();
    }

    #[test]
    fn loser_tree_breaks_ties_by_run_index() {
        // Two runs with overlapping equal keys: the merge must interleave
        // them in run-index order for equal keys (the canonical order the
        // heap-based merge used).
        let dev = SimDevice::new_ref();
        let layout = RecordLayout::new(8);
        let mut runs = Vec::new();
        for fill in [1u8, 2] {
            let mut w = PartitionWriter::new(dev.clone(), layout, 128, IoKind::SeqWrite);
            for k in [5u64, 5, 7, 9] {
                w.push(&Record::with_fill(k, 8, fill)).unwrap();
            }
            runs.push(w.finish().unwrap());
        }
        let mut tree = LoserTree::new(&runs).unwrap();
        let mut order = Vec::new();
        while let Some(rec) = tree.next_ref().unwrap() {
            order.push((rec.key(), rec.payload()[0]));
        }
        assert_eq!(
            order,
            vec![
                (5, 1),
                (5, 1),
                (5, 2),
                (5, 2),
                (7, 1),
                (7, 2),
                (9, 1),
                (9, 2)
            ]
        );
        for run in runs {
            run.delete().unwrap();
        }
    }

    #[test]
    fn loser_tree_key_and_ref_paths_agree_with_peek() {
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev.clone(), &shuffled(1_000));
        let mut sorter = ExternalSorter::new(dev, 3);
        let out = sorter.sort_to_runs(&rel, 16).unwrap();
        let mut by_key = LoserTree::new(&out.runs).unwrap();
        let mut by_ref = LoserTree::new(&out.runs).unwrap();
        loop {
            let peeked = by_key.peek_key().unwrap();
            let k = by_key.next_key().unwrap();
            let r = by_ref.next_ref().unwrap().map(|r| r.key());
            assert_eq!(k, r);
            assert_eq!(peeked, k);
            if k.is_none() {
                break;
            }
        }
    }

    #[test]
    fn loser_tree_over_no_runs_is_empty() {
        let mut tree = LoserTree::new(&[]).unwrap();
        assert_eq!(tree.peek_key().unwrap(), None);
        assert_eq!(tree.next_key().unwrap(), None);
        assert!(tree.next_ref().unwrap().is_none());
    }

    #[test]
    fn loser_tree_handles_single_and_empty_runs() {
        let dev = SimDevice::new_ref();
        let layout = RecordLayout::new(8);
        let empty = PartitionWriter::new(dev.clone(), layout, 128, IoKind::SeqWrite)
            .finish()
            .unwrap();
        let mut w = PartitionWriter::new(dev.clone(), layout, 128, IoKind::SeqWrite);
        for k in 0..10u64 {
            w.push(&Record::with_fill(k, 8, 0)).unwrap();
        }
        let full = w.finish().unwrap();
        let runs = vec![empty, full];
        let keys: Vec<u64> = MergeIterator::new(&runs)
            .unwrap()
            .map(|r| r.unwrap().key())
            .collect();
        assert_eq!(keys, (0..10).collect::<Vec<u64>>());
        for run in runs {
            run.delete().unwrap();
        }
    }

    #[test]
    fn merge_to_fan_in_matches_sort_to_runs() {
        // Generating runs by hand over the fixed chunk grid and merging via
        // merge_to_fan_in must reproduce sort_to_runs exactly (same run
        // count, same contents, same I/O) — the parallel executor's
        // correctness argument in miniature.
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev.clone(), &shuffled(6_000));
        dev.reset_stats();
        let mut sorter = ExternalSorter::new(dev.clone(), 4);
        let expected = sorter.sort_to_runs(&rel, 4).unwrap();
        let io_sequential = dev.stats();

        let dev2 = SimDevice::new_ref();
        let rel2 = build_relation(dev2.clone(), &shuffled(6_000));
        dev2.reset_stats();
        let mut scratch = SortScratch::new();
        let runs: Vec<PartitionHandle> = run_chunks(rel2.num_pages(), 4)
            .into_iter()
            .map(|c| sort_chunk(&rel2, c, &mut scratch).unwrap())
            .collect();
        let mut sorter2 = ExternalSorter::new(dev2.clone(), 4);
        let manual = sorter2.merge_to_fan_in(runs, 4).unwrap();
        assert_eq!(dev2.stats(), io_sequential);
        assert_eq!(manual.runs.len(), expected.runs.len());
        assert_eq!(manual.merge_passes, expected.merge_passes);
        for (a, b) in manual.runs.iter().zip(expected.runs.iter()) {
            assert_eq!(a.records(), b.records());
            assert_eq!(a.pages(), b.pages());
        }
    }
}
