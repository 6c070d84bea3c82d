//! Sideways information passing: the probe-side Bloom pre-filter.
//!
//! §6 of the paper discusses passing a compact summary of the build side
//! into the probe side so that S records without a partner are rejected
//! before they cost anything. [`ProbeBloom`] is that filter for the NOCAP
//! and DHH executors: a [`ProbeBloom::PAGES`]-page [`BloomFilter`] built
//! over the completed in-memory build table's keys (charged against the
//! executor's [`BufferPool`]), consulted in the S-pass probe loop before the
//! hash table. It is built on every run whose pool has a spare page.
//!
//! The filter is a pure CPU optimization with a hard equivalence contract:
//!
//! * **No output change.** A Bloom filter has no false negatives, so a
//!   negative answer only skips probes that would have found nothing; a
//!   filtered-out record takes exactly the `probe_count == 0` route of the
//!   unfiltered loop.
//! * **No modeled-I/O change.** The reservation is taken *after* the
//!   executor reads its residual budget, so partition geometry, quotas and
//!   destaging are untouched; when the pool has no spare page the filter is
//!   simply skipped (never a new out-of-memory path).
//! * **Thread-count invariant.** Filter bits depend only on the build-side
//!   key multiset (inserts commute), which is identical for the sequential
//!   and every parallel execution.

use nocap_storage::{BloomFilter, BufferPool, JoinHashTable, Reservation};

/// The probe-side Bloom pre-filter of the hybrid-hash executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeBloom;

impl ProbeBloom {
    /// Pages of buffer-pool memory the filter asks for (clamped to what the
    /// pool has spare at reservation time).
    pub const PAGES: usize = 2;

    /// Reserves the filter's memory from `pool` at the executor's
    /// designated reservation point (after the residual budget is read, so
    /// partition geometry never shifts). Returns `None` — filter skipped —
    /// when the pool has nothing spare; the reservation is clamped, never a
    /// new out-of-memory path.
    pub fn reserve(pool: &BufferPool) -> Option<Reservation> {
        let pages = Self::PAGES.min(pool.available());
        if pages == 0 {
            return None;
        }
        pool.reserve(pages).ok()
    }

    /// Builds the filter over the completed build table, sized to the pages
    /// actually reserved. `None` (no reservation, or an empty table) means
    /// the probe loop runs unfiltered.
    pub fn build(
        table: &JoinHashTable,
        reservation: &Option<Reservation>,
        page_size: usize,
    ) -> Option<BloomFilter> {
        let reservation = reservation.as_ref()?;
        if table.is_empty() {
            return None;
        }
        Some(BloomFilter::from_keys(
            table.iter().map(|rec| rec.key()),
            table.num_records(),
            reservation.pages(),
            page_size,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::{Record, RecordLayout};

    fn table_with_keys(keys: &[u64]) -> JoinHashTable {
        let mut ht = JoinHashTable::new(RecordLayout::new(8), 4096, 1.02);
        for &k in keys {
            ht.insert(Record::new(k, k.to_le_bytes().to_vec()));
        }
        ht
    }

    #[test]
    fn reservation_is_charged_to_the_pool_and_clamped() {
        let pool = BufferPool::new(ProbeBloom::PAGES + 1);
        let res = ProbeBloom::reserve(&pool).expect("pages available");
        assert_eq!(res.pages(), ProbeBloom::PAGES);
        assert_eq!(pool.in_use(), ProbeBloom::PAGES);
        // A second filter only gets what is spare.
        let clamped = ProbeBloom::reserve(&pool).expect("clamped, not OOM");
        assert_eq!(clamped.pages(), 1);
        assert_eq!(pool.available(), 0);
        // An exhausted pool skips the filter instead of failing.
        assert!(ProbeBloom::reserve(&pool).is_none());
        drop(res);
        drop(clamped);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn built_filter_has_no_false_negatives_over_the_table() {
        let pool = BufferPool::new(10);
        let keys: Vec<u64> = (0..3_000u64).map(|k| k * 3).collect();
        let table = table_with_keys(&keys);
        let res = ProbeBloom::reserve(&pool);
        let bf = ProbeBloom::build(&table, &res, 4096).expect("filter built");
        assert_eq!(bf.inserted(), keys.len());
        assert!(keys.iter().all(|&k| bf.may_contain(k)));
        // And it actually rejects most foreign keys.
        let rejected = (1_000_000u64..1_001_000)
            .filter(|&k| !bf.may_contain(k))
            .count();
        assert!(rejected > 900, "only {rejected}/1000 foreign keys rejected");
    }

    #[test]
    fn empty_table_or_missing_reservation_skips_the_filter() {
        let pool = BufferPool::new(10);
        let res = ProbeBloom::reserve(&pool);
        assert!(ProbeBloom::build(&table_with_keys(&[]), &res, 4096).is_none());
        assert!(ProbeBloom::build(&table_with_keys(&[1]), &None, 4096).is_none());
    }
}
