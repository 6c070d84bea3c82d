//! Page-range sharding and thread-safe spill writers.
//!
//! [`page_shards`] gives each worker a contiguous slice of a relation's
//! pages; together the slices cover every page exactly once, so a sharded
//! scan costs the same `‖R‖` sequential reads as the single-threaded scan.
//!
//! [`SharedPartitionWriter`] wraps one [`PartitionWriter`] — and therefore
//! one output-buffer page — behind a mutex. All workers feeding a partition
//! share that single buffer, exactly like a single-threaded scan, so a
//! partition receiving `n` records flushes exactly `⌈n / b⌉` pages
//! regardless of concurrency or arrival order. (The alternative — a
//! private buffer page per worker per partition — would multiply the
//! §4.1 output-buffer memory term by the worker count *and* write extra
//! partial pages; sharing the buffer keeps both the memory model and the
//! I/O trace identical to the paper's.) Lock hold time is a single record
//! copy into the buffer; with tens of partitions in flight, contention
//! spreads across as many independent locks.

use std::ops::Range;
use std::sync::Mutex;

use nocap_storage::device::DeviceRef;
use nocap_storage::{
    into_inner_unpoisoned, lock_unpoisoned, IoKind, PartitionHandle, PartitionWriter, RecordLayout,
    RecordRef, Result, SpillGuard,
};

/// Splits `0..num_pages` into `workers` contiguous ranges whose lengths
/// differ by at most one page. Trailing ranges may be empty when there are
/// fewer pages than workers.
pub fn page_shards(num_pages: usize, workers: usize) -> Vec<Range<usize>> {
    let mut start = 0usize;
    crate::quota::even_split(num_pages, workers)
        .map(|len| {
            let shard = start..start + len;
            start += len;
            shard
        })
        .collect()
}

/// A mutex-protected spill-partition writer sharing one output-buffer page
/// among all workers.
pub struct SharedPartitionWriter {
    inner: Mutex<PartitionWriter>,
}

impl SharedPartitionWriter {
    /// Creates a new shared writer (one spill file, one buffer page).
    pub fn new(
        device: DeviceRef,
        layout: RecordLayout,
        page_size: usize,
        write_kind: IoKind,
    ) -> Self {
        SharedPartitionWriter {
            inner: Mutex::new(PartitionWriter::new(device, layout, page_size, write_kind)),
        }
    }

    /// Appends one borrowed record, flushing the shared buffer page when
    /// full. The lock is held for a single key store plus payload `memcpy`.
    pub fn push(&self, record: RecordRef<'_>) -> Result<()> {
        lock_unpoisoned(&self.inner).push_ref(record)
    }

    /// Records appended so far.
    pub fn records(&self) -> usize {
        lock_unpoisoned(&self.inner).records()
    }

    /// Flushes the partial buffer page and returns the finished partition.
    pub fn finish(self) -> Result<PartitionHandle> {
        into_inner_unpoisoned(self.inner).finish()
    }
}

/// A set of shared writers, one per partition — the concurrent form of a
/// partitioning join's `Vec<PartitionWriter>`.
///
/// Entries can be absent (`None`) so the NOCAP S-pass can allocate writers
/// only for the residual partitions whose page-out bit is set.
pub struct SharedWriterSet {
    writers: Vec<Option<SharedPartitionWriter>>,
}

impl SharedWriterSet {
    /// Creates `partitions` shared writers.
    pub fn new(
        device: DeviceRef,
        layout: RecordLayout,
        page_size: usize,
        write_kind: IoKind,
        partitions: usize,
    ) -> Self {
        SharedWriterSet {
            writers: (0..partitions)
                .map(|_| {
                    Some(SharedPartitionWriter::new(
                        device.clone(),
                        layout,
                        page_size,
                        write_kind,
                    ))
                })
                .collect(),
        }
    }

    /// Creates a writer only for the positions where `mask` is `true`.
    pub fn new_masked(
        device: DeviceRef,
        layout: RecordLayout,
        page_size: usize,
        write_kind: IoKind,
        mask: &[bool],
    ) -> Self {
        SharedWriterSet {
            writers: mask
                .iter()
                .map(|&present| {
                    present.then(|| {
                        SharedPartitionWriter::new(device.clone(), layout, page_size, write_kind)
                    })
                })
                .collect(),
        }
    }

    /// Number of partition slots (present or not).
    pub fn len(&self) -> usize {
        self.writers.len()
    }

    /// Returns `true` if the set has no partition slots.
    pub fn is_empty(&self) -> bool {
        self.writers.is_empty()
    }

    /// Appends `record` to partition `p`.
    ///
    /// # Panics
    ///
    /// Panics if partition `p` has no writer — routing a record to a masked
    /// -out partition is an executor logic error, not a runtime condition.
    pub fn push(&self, p: usize, record: RecordRef<'_>) -> Result<()> {
        self.writers[p]
            .as_ref()
            .expect("record routed to a partition without a writer")
            .push(record)
    }

    /// Shared writer for partition `p`, if one exists.
    pub fn writer(&self, p: usize) -> Option<&SharedPartitionWriter> {
        self.writers[p].as_ref()
    }

    /// Finishes every present writer, yielding one handle per slot.
    ///
    /// Fail-clean: if any writer fails to finish, the handles produced so
    /// far are deleted (and the remaining unfinished writers delete their
    /// own files on drop) before the error is returned.
    pub fn finish_all(self) -> Result<Vec<Option<PartitionHandle>>> {
        let mut guard = SpillGuard::new();
        let mut out = Vec::with_capacity(self.writers.len());
        for slot in self.writers {
            match slot {
                None => out.push(None),
                Some(writer) => {
                    let handle = writer.finish()?;
                    guard.adopt(handle.clone());
                    out.push(Some(handle));
                }
            }
        }
        let _ = guard.release();
        Ok(out)
    }

    /// Finishes a fully-populated set, yielding one handle per partition.
    /// Fail-clean like [`finish_all`](Self::finish_all).
    ///
    /// # Panics
    ///
    /// Panics if any slot was masked out; use [`finish_all`](Self::finish_all)
    /// for masked sets.
    pub fn finish_dense(self) -> Result<Vec<PartitionHandle>> {
        let mut guard = SpillGuard::new();
        let mut out = Vec::with_capacity(self.writers.len());
        for slot in self.writers {
            let handle = slot
                .expect("finish_dense called on a masked writer set")
                .finish()?;
            guard.adopt(handle.clone());
            out.push(handle);
        }
        let _ = guard.release();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::{Record, SimDevice};

    fn layout() -> RecordLayout {
        RecordLayout::new(8)
    }

    #[test]
    fn shards_partition_the_page_range() {
        assert_eq!(page_shards(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(page_shards(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
        assert_eq!(page_shards(0, 2), vec![0..0, 0..0]);
        for (pages, workers) in [(100, 7), (5, 5), (1, 8), (64, 2)] {
            let shards = page_shards(pages, workers);
            assert_eq!(shards.len(), workers);
            let covered: usize = shards.iter().map(|r| r.len()).sum();
            assert_eq!(covered, pages);
            for pair in shards.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }

    #[test]
    fn concurrent_pushes_write_the_sequential_page_count() {
        let dev = SimDevice::new_ref();
        // 4 + 4 * 16 bytes: exactly 4 records per page.
        let page_size = 4 + 4 * 16;
        let writer =
            SharedPartitionWriter::new(dev.clone(), layout(), page_size, IoKind::RandWrite);
        let per_worker = 250usize;
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let writer = &writer;
                scope.spawn(move || {
                    for i in 0..per_worker {
                        let rec = Record::with_fill(t * 1000 + i as u64, 8, 0);
                        writer.push(rec.as_record_ref()).unwrap();
                    }
                });
            }
        });
        let handle = writer.finish().unwrap();
        assert_eq!(handle.records(), 4 * per_worker);
        // 1000 records at 4 per page: exactly what one sequential writer
        // would have flushed.
        assert_eq!(handle.pages(), (4 * per_worker).div_ceil(4));
        assert_eq!(dev.stats().rand_writes, handle.pages() as u64);
    }

    #[test]
    fn masked_sets_only_create_requested_writers() {
        let dev = SimDevice::new_ref();
        let set = SharedWriterSet::new_masked(
            dev.clone(),
            layout(),
            128,
            IoKind::RandWrite,
            &[true, false, true],
        );
        assert_eq!(set.len(), 3);
        let a = Record::with_fill(1, 8, 0);
        let b = Record::with_fill(2, 8, 0);
        set.push(0, a.as_record_ref()).unwrap();
        set.push(2, b.as_record_ref()).unwrap();
        let handles = set.finish_all().unwrap();
        assert!(handles[0].is_some());
        assert!(handles[1].is_none());
        assert_eq!(handles[2].as_ref().unwrap().records(), 1);
    }

    #[test]
    fn dense_set_round_trips_records() {
        let dev = SimDevice::new_ref();
        let set = SharedWriterSet::new(dev.clone(), layout(), 128, IoKind::RandWrite, 4);
        for k in 0..100u64 {
            let rec = Record::with_fill(k, 8, 0);
            set.push((k % 4) as usize, rec.as_record_ref()).unwrap();
        }
        let handles = set.finish_dense().unwrap();
        let total: usize = handles.iter().map(PartitionHandle::records).sum();
        assert_eq!(total, 100);
    }
}
