//! The SpaceSaving heavy-hitter summary (Metwally, Agrawal, El Abbadi,
//! "Efficient Computation of Frequent and Top-k Elements in Data Streams").
//!
//! `capacity` counters monitor a stream of `N` items. Every monitored key
//! carries an estimated count and an error term with the invariants
//!
//! * `estimate ≥ true frequency` (never an underestimate),
//! * `estimate − error ≤ true frequency`, and
//! * `error ≤ min_count ≤ N / capacity`,
//!
//! so any key whose true frequency exceeds `N / capacity` is guaranteed to be
//! monitored. This is exactly the information the NOCAP planner needs: the
//! top-k MCV list with per-key error bounds
//! ([`McvEstimate`]).
//!
//! The classic stream-summary structure is replaced by an indexed binary
//! min-heap over the counters — `offer` is O(log capacity) and the layout is
//! three flat vectors plus one key index, which keeps the per-counter memory
//! footprint small and measurable for the buffer-pool accounting.

use std::collections::HashMap;

use nocap_model::McvEstimate;

#[derive(Debug, Clone)]
struct Counter {
    key: u64,
    count: u64,
    err: u64,
}

/// A SpaceSaving summary with a fixed number of counters.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    counters: Vec<Counter>,
    /// Min-heap of counter indices, ordered by `counters[i].count`.
    heap: Vec<u32>,
    /// `slot_of[i]` = position of counter `i` inside `heap`.
    slot_of: Vec<u32>,
    /// Key → counter index.
    index: HashMap<u64, u32>,
    /// Total stream weight observed (the paper's N).
    total: u64,
}

impl SpaceSaving {
    /// Creates a summary with `capacity ≥ 1` counters.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SpaceSaving {
            capacity,
            counters: Vec::with_capacity(capacity),
            heap: Vec::with_capacity(capacity),
            slot_of: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity),
            total: 0,
        }
    }

    /// Number of counters this summary may hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of keys currently monitored.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no key has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Total observed stream weight (N).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The guaranteed error bound `N / capacity`: no estimate overshoots the
    /// true frequency by more than this.
    pub fn error_guarantee(&self) -> u64 {
        self.total / self.capacity as u64
    }

    /// Observes one occurrence of `key`.
    pub fn offer(&mut self, key: u64) {
        self.offer_weighted(key, 1);
    }

    /// Observes `weight` occurrences of `key`.
    pub fn offer_weighted(&mut self, key: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.total += weight;
        if let Some(&i) = self.index.get(&key) {
            self.counters[i as usize].count += weight;
            self.sift_down(self.slot_of[i as usize] as usize);
        } else if self.counters.len() < self.capacity {
            let i = self.counters.len() as u32;
            self.counters.push(Counter {
                key,
                count: weight,
                err: 0,
            });
            self.heap.push(i);
            self.slot_of.push((self.heap.len() - 1) as u32);
            self.index.insert(key, i);
            self.sift_up(self.heap.len() - 1);
        } else {
            // Evict the minimum counter: the new key inherits its count as
            // the error term (it may have occurred up to that often already).
            let i = self.heap[0];
            let evicted = &mut self.counters[i as usize];
            self.index.remove(&evicted.key);
            let floor = evicted.count;
            evicted.key = key;
            evicted.err = floor;
            evicted.count = floor + weight;
            self.index.insert(key, i);
            self.sift_down(0);
        }
    }

    /// The estimate for `key`, if it is monitored: `(count, error)` with
    /// `count − error ≤ true ≤ count`.
    pub fn estimate(&self, key: u64) -> Option<(u64, u64)> {
        self.index.get(&key).map(|&i| {
            (
                self.counters[i as usize].count,
                self.counters[i as usize].err,
            )
        })
    }

    /// The current minimum counter value (0 while the summary is not full).
    /// Any key *not* monitored has a true frequency of at most this.
    pub fn min_count(&self) -> u64 {
        if self.counters.len() < self.capacity {
            0
        } else {
            self.heap
                .first()
                .map(|&i| self.counters[i as usize].count)
                .unwrap_or(0)
        }
    }

    /// The `k` hottest monitored keys as [`McvEstimate`]s, most frequent
    /// first (ties broken by key for determinism).
    pub fn top_k(&self, k: usize) -> Vec<McvEstimate> {
        let mut all: Vec<McvEstimate> = self
            .counters
            .iter()
            .map(|c| McvEstimate {
                key: c.key,
                count: c.count,
                error_bound: c.err,
            })
            .collect();
        all.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        all.truncate(k);
        all
    }

    /// Merges `other` into `self` (both summaries keep their own capacity;
    /// the result keeps `self`'s).
    ///
    /// A key absent from one summary is credited with that summary's
    /// `min_count` as both count and error, which preserves the overestimate
    /// and error-bound invariants of the merged result (Agarwal et al.,
    /// "Mergeable Summaries").
    pub fn merge(&mut self, other: &SpaceSaving) {
        let self_min = self.min_count();
        let other_min = other.min_count();
        let mut merged: HashMap<u64, (u64, u64)> = HashMap::new();
        for c in &self.counters {
            let (count, err) = match other.estimate(c.key) {
                Some((oc, oe)) => (c.count + oc, c.err + oe),
                None => (c.count + other_min, c.err + other_min),
            };
            merged.insert(c.key, (count, err));
        }
        for c in &other.counters {
            merged
                .entry(c.key)
                .or_insert((c.count + self_min, c.err + self_min));
        }
        let total = self.total + other.total;
        let capacity = self.capacity;
        let mut entries: Vec<(u64, u64, u64)> =
            merged.into_iter().map(|(k, (c, e))| (k, c, e)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(capacity);

        *self = SpaceSaving::new(capacity);
        for (key, count, err) in entries {
            let i = self.counters.len() as u32;
            self.counters.push(Counter { key, count, err });
            self.heap.push(i);
            self.slot_of.push(i);
            self.index.insert(key, i);
        }
        // Restore the heap invariant bottom-up.
        for slot in (0..self.heap.len() / 2).rev() {
            self.sift_down(slot);
        }
        self.total = total;
    }

    /// Approximate resident size in bytes (counters + heap + index),
    /// used for buffer-pool page accounting.
    pub fn memory_bytes(&self) -> usize {
        // Counter (24 B) + heap and slot entries (8 B) + hash-map entry
        // (~32 B with growth slack).
        self.capacity * 64
    }

    /// The monitored counters in canonical order — `(key, count, error)`
    /// sorted by count descending, ties by key ascending (the order
    /// [`top_k`](Self::top_k) reports). Two summaries with the same
    /// canonical entries answer every query identically, regardless of how
    /// their internal heap/index layouts differ; this is the basis of the
    /// logical [`PartialEq`] below.
    pub fn canonical_entries(&self) -> Vec<(u64, u64, u64)> {
        let mut entries: Vec<(u64, u64, u64)> = self
            .counters
            .iter()
            .map(|c| (c.key, c.count, c.err))
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries
    }
}

/// Logical equality: same capacity, same total stream weight, and the same
/// canonical counter entries. Internal heap order and counter-slot layout
/// are representation details (a merged summary rebuilds them sorted, a
/// streamed one grows them in arrival order) and deliberately ignored.
impl PartialEq for SpaceSaving {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.total == other.total
            && self.canonical_entries() == other.canonical_entries()
    }
}

impl SpaceSaving {
    fn heap_key(&self, slot: usize) -> u64 {
        self.counters[self.heap[slot] as usize].count
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.slot_of[self.heap[a] as usize] = a as u32;
        self.slot_of[self.heap[b] as usize] = b as u32;
    }

    fn sift_up(&mut self, mut slot: usize) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if self.heap_key(slot) < self.heap_key(parent) {
                self.swap_slots(slot, parent);
                slot = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut slot: usize) {
        loop {
            let left = 2 * slot + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let smallest_child =
                if right < self.heap.len() && self.heap_key(right) < self.heap_key(left) {
                    right
                } else {
                    left
                };
            if self.heap_key(smallest_child) < self.heap_key(slot) {
                self.swap_slots(slot, smallest_child);
                slot = smallest_child;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force truth for a stream.
    fn exact_counts(stream: &[u64]) -> HashMap<u64, u64> {
        let mut m = HashMap::new();
        for &k in stream {
            *m.entry(k).or_insert(0) += 1;
        }
        m
    }

    /// A deterministic skewed stream: key `i` appears roughly `n / (i+1)`
    /// times, interleaved.
    fn zipfish_stream(keys: u64, n: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        let mut i = 0u64;
        while out.len() < n {
            for k in 0..keys {
                let period = k + 1;
                if i.is_multiple_of(period) {
                    out.push(k);
                    if out.len() == n {
                        break;
                    }
                }
            }
            i += 1;
        }
        out
    }

    #[test]
    fn estimates_never_underestimate_and_error_bounds_hold() {
        let stream = zipfish_stream(200, 20_000);
        let truth = exact_counts(&stream);
        let mut ss = SpaceSaving::new(32);
        for &k in &stream {
            ss.offer(k);
        }
        assert_eq!(ss.total(), 20_000);
        for est in ss.top_k(32) {
            let t = truth[&est.key];
            assert!(est.count >= t, "estimate must not underestimate");
            assert!(
                est.guaranteed_count() <= t,
                "count - error must lower-bound the truth (key {})",
                est.key
            );
        }
    }

    #[test]
    fn global_error_is_bounded_by_n_over_k() {
        let stream = zipfish_stream(500, 30_000);
        let truth = exact_counts(&stream);
        let k = 64;
        let mut ss = SpaceSaving::new(k);
        for &key in &stream {
            ss.offer(key);
        }
        let bound = ss.total() / k as u64;
        assert_eq!(ss.error_guarantee(), bound);
        for est in ss.top_k(k) {
            let t = truth[&est.key];
            assert!(
                est.count - t <= bound,
                "overestimate {} exceeds N/k = {bound}",
                est.count - t
            );
            assert!(est.error_bound <= bound);
        }
    }

    #[test]
    fn heavy_hitters_above_n_over_k_are_always_monitored() {
        let stream = zipfish_stream(300, 24_000);
        let truth = exact_counts(&stream);
        let k = 48;
        let mut ss = SpaceSaving::new(k);
        for &key in &stream {
            ss.offer(key);
        }
        let threshold = ss.total() / k as u64;
        for (&key, &count) in &truth {
            if count > threshold {
                assert!(
                    ss.estimate(key).is_some(),
                    "key {key} with count {count} > N/k = {threshold} must be tracked"
                );
            }
        }
    }

    #[test]
    fn small_streams_are_exact() {
        let mut ss = SpaceSaving::new(100);
        for k in 0..50u64 {
            for _ in 0..=k {
                ss.offer(k);
            }
        }
        for k in 0..50u64 {
            assert_eq!(ss.estimate(k), Some((k + 1, 0)));
        }
        let top = ss.top_k(3);
        assert_eq!(top[0].key, 49);
        assert_eq!(top[0].count, 50);
        assert!(top[0].is_exact());
    }

    #[test]
    fn merge_preserves_invariants() {
        let stream_a = zipfish_stream(150, 10_000);
        let stream_b: Vec<u64> = zipfish_stream(150, 10_000).iter().map(|k| k + 50).collect();
        let mut truth = exact_counts(&stream_a);
        for (&k, &v) in &exact_counts(&stream_b) {
            *truth.entry(k).or_insert(0) += v;
        }
        let mut a = SpaceSaving::new(40);
        let mut b = SpaceSaving::new(40);
        for &k in &stream_a {
            a.offer(k);
        }
        for &k in &stream_b {
            b.offer(k);
        }
        a.merge(&b);
        assert_eq!(a.total(), 20_000);
        assert!(a.len() <= 40);
        for est in a.top_k(40) {
            let t = truth[&est.key];
            assert!(
                est.count >= t,
                "merged estimate underestimates key {}",
                est.key
            );
            assert!(
                est.guaranteed_count() <= t,
                "merged lower bound overshoots key {}",
                est.key
            );
        }
    }

    #[test]
    fn top_k_is_sorted_and_deterministic() {
        let mut ss = SpaceSaving::new(16);
        for k in [3u64, 1, 3, 2, 3, 2, 9] {
            ss.offer(k);
        }
        let top = ss.top_k(10);
        assert_eq!(top[0].key, 3);
        assert!(top.windows(2).all(|w| w[0].count >= w[1].count));
        assert_eq!(top.len(), 4);
    }
}
