//! A blocked Bloom filter over join keys.
//!
//! §6 of the paper discusses sideways information passing (SIP): while
//! partitioning R, build a Bloom filter over its join keys and consult it
//! while partitioning S, so that S records without a partner are dropped
//! immediately instead of being spilled and re-read. The NOCAP and DHH
//! executors always build one over their in-memory build table and consult
//! it in the S pass: a negative answer skips the hash-table probe entirely
//! (see `ProbeBloom` in `nocap-model`).
//!
//! The filter is *cache-blocked*: a key's block — one 64-byte cache line —
//! is chosen by the first hash, and all `k` probe bits land inside that
//! block, so an insert or lookup touches exactly one cache line no matter
//! how many hash functions are configured. Both hash streams come from the
//! shared [`crate::hash`] utility, with the Murmur stream keeping bloom bit
//! positions independent of the SplitMix64 partition routing even though
//! both consume the same key.
//!
//! Memory is reported in pages ([`pages`](BloomFilter::pages)) so the
//! executor can charge the filter against the buffer budget like the
//! statistics sketches.

use crate::hash::{mix64, murmur_mix64};
use crate::page::DEFAULT_PAGE_SIZE;

/// Bits per block: one 64-byte cache line.
const BLOCK_BITS: u64 = 512;
/// 64-bit words per block.
const BLOCK_WORDS: usize = 8;

/// A cache-blocked Bloom filter keyed by `u64` join keys.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    /// `num_blocks × BLOCK_WORDS` words; a key's bits all live in one block.
    bits: Vec<u64>,
    num_blocks: u64,
    num_hashes: u32,
    inserted: usize,
    /// Page size used for buffer-pool charging.
    page_size: usize,
}

impl BloomFilter {
    fn with_bits(num_bits: u64, num_hashes: u32, page_size: usize) -> Self {
        let num_blocks = (num_bits / BLOCK_BITS).max(1);
        BloomFilter {
            bits: vec![0u64; num_blocks as usize * BLOCK_WORDS],
            num_blocks,
            num_hashes: num_hashes.clamp(1, 16),
            inserted: 0,
            page_size,
        }
    }

    /// Creates a filter sized for `expected_keys` keys at the given
    /// false-positive rate (clamped to `[1e-6, 0.5]`), charged at the
    /// default page size.
    pub fn with_rate(expected_keys: usize, false_positive_rate: f64) -> Self {
        let rate = false_positive_rate.clamp(1e-6, 0.5);
        let n = expected_keys.max(1) as f64;
        let num_bits = (-(n * rate.ln()) / (std::f64::consts::LN_2.powi(2))).ceil() as u64;
        let num_bits = num_bits.max(BLOCK_BITS).next_multiple_of(BLOCK_BITS);
        let num_hashes = ((num_bits as f64 / n) * std::f64::consts::LN_2)
            .round()
            .max(1.0) as u32;
        Self::with_bits(num_bits, num_hashes, DEFAULT_PAGE_SIZE)
    }

    /// Creates a filter that fits in `pages` pages of the given size,
    /// choosing the number of hash functions for `expected_keys` keys.
    /// [`pages`](Self::pages) reports the charge at the same `page_size`.
    pub fn with_page_budget(expected_keys: usize, pages: usize, page_size: usize) -> Self {
        let page_size = page_size.max(64);
        let num_bits = ((pages.max(1) * page_size) * 8) as u64;
        let n = expected_keys.max(1) as f64;
        let num_hashes = ((num_bits as f64 / n) * std::f64::consts::LN_2)
            .round()
            .clamp(1.0, 16.0) as u32;
        Self::with_bits(num_bits, num_hashes, page_size)
    }

    /// Creates a filter that fits in `pages` pages with an explicit number
    /// of hash functions (clamped to `[1, 16]`), bypassing the
    /// FPR-optimal choice. This is the *speed-tuned* configuration: a
    /// couple of hashes over a generous bit budget keeps the fill ratio
    /// low, so negative lookups exit on their first probe bit with
    /// near-certainty instead of walking an optimally-full block.
    pub fn with_page_budget_and_hashes(pages: usize, page_size: usize, num_hashes: u32) -> Self {
        let page_size = page_size.max(64);
        let num_bits = ((pages.max(1) * page_size) * 8) as u64;
        Self::with_bits(num_bits, num_hashes, page_size)
    }

    /// Builds a filter over `keys` within a page budget — the executors'
    /// one-liner for the probe pre-filter. Bit contents depend only on the
    /// key *multiset* (inserts commute), so any arrival order produces the
    /// same filter.
    pub fn from_keys(
        keys: impl IntoIterator<Item = u64>,
        expected_keys: usize,
        pages: usize,
        page_size: usize,
    ) -> Self {
        let mut bf = Self::with_page_budget(expected_keys, pages, page_size);
        for k in keys {
            bf.insert(k);
        }
        bf
    }

    /// Number of keys inserted so far.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Size of the filter in bits (a multiple of the 512-bit block).
    pub fn num_bits(&self) -> u64 {
        self.num_blocks * BLOCK_BITS
    }

    /// Number of hash functions probed per key.
    pub fn num_hashes(&self) -> u32 {
        self.num_hashes
    }

    /// Number of buffer-pool pages the filter occupies (rounded up, at the
    /// page size it was constructed with).
    pub fn pages(&self) -> usize {
        (self.bits.len() * 8).div_ceil(self.page_size).max(1)
    }

    /// The block base word and the two intra-block probe streams for `key`.
    #[inline]
    fn probe_streams(&self, key: u64) -> (usize, u64, u64) {
        let a = mix64(key);
        let b = murmur_mix64(key) | 1;
        // Multiply-high range reduction (Lemire): maps `a` uniformly onto
        // `0..num_blocks` without the per-probe 64-bit division a modulo
        // would cost — this sits in every executor's S-loop.
        let block = ((a as u128 * self.num_blocks as u128) >> 64) as usize * BLOCK_WORDS;
        // Intra-block positions come from bits 33..64 of `a` (the block
        // choice keys off the topmost bits, and only 9 of these survive the
        // mod-512 fold) stepped by the independent odd Murmur stream.
        (block, a >> 33, b)
    }

    /// Inserts a key: sets `num_hashes` bits, all inside one cache-line
    /// block.
    pub fn insert(&mut self, key: u64) {
        let (block, start, step) = self.probe_streams(key);
        for i in 0..self.num_hashes as u64 {
            let bit = start.wrapping_add(i.wrapping_mul(step)) % BLOCK_BITS;
            self.bits[block + (bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Returns `false` if the key was definitely never inserted; `true`
    /// means "probably present". Touches exactly one cache-line block.
    pub fn may_contain(&self, key: u64) -> bool {
        // The first probe bit needs only the primary stream, so the Murmur
        // stream is computed lazily: roughly half of all true negatives
        // fail on bit 0 and never pay for the second hash.
        let a = mix64(key);
        let block = ((a as u128 * self.num_blocks as u128) >> 64) as usize * BLOCK_WORDS;
        let start = a >> 33;
        let first = start % BLOCK_BITS;
        if self.bits[block + (first / 64) as usize] & (1u64 << (first % 64)) == 0 {
            return false;
        }
        let step = murmur_mix64(key) | 1;
        (1..self.num_hashes as u64).all(|i| {
            let bit = start.wrapping_add(i.wrapping_mul(step)) % BLOCK_BITS;
            self.bits[block + (bit / 64) as usize] & (1u64 << (bit % 64)) != 0
        })
    }

    /// Measured fill ratio of the bit array (diagnostic).
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.num_bits() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = BloomFilter::with_rate(10_000, 0.01);
        for k in 0..10_000u64 {
            bf.insert(k * 7 + 3);
        }
        for k in 0..10_000u64 {
            assert!(bf.may_contain(k * 7 + 3), "inserted key must always hit");
        }
        assert_eq!(bf.inserted(), 10_000);
    }

    #[test]
    fn false_positive_rate_is_roughly_as_configured() {
        let mut bf = BloomFilter::with_rate(20_000, 0.01);
        for k in 0..20_000u64 {
            bf.insert(k);
        }
        let false_positives = (1_000_000u64..1_050_000)
            .filter(|&k| bf.may_contain(k))
            .count();
        let rate = false_positives as f64 / 50_000.0;
        // Blocking costs a little FPR versus an unblocked filter at the
        // same size; it must still stay in the same decade as the target.
        assert!(
            rate < 0.05,
            "observed false-positive rate {rate} far above the 0.01 target"
        );
    }

    #[test]
    fn page_budget_constructor_respects_the_budget() {
        let bf = BloomFilter::with_page_budget(100_000, 4, 4096);
        assert!(bf.pages() <= 4);
        assert_eq!(bf.num_bits(), 4 * 4096 * 8);
    }

    #[test]
    fn pages_charge_at_the_constructed_page_size() {
        // The charge must use the constructed 512-byte page, not
        // DEFAULT_PAGE_SIZE (the old implementation hardcoded the default
        // and under-reported small-page filters).
        let bf = BloomFilter::with_page_budget(1_000, 2, 512);
        assert_eq!(bf.num_bits(), 2 * 512 * 8);
        assert_eq!(bf.pages(), 2);
        let one = BloomFilter::with_page_budget(1_000, 1, 65_536);
        assert_eq!(one.pages(), 1);
    }

    #[test]
    fn tiny_budgets_degrade_to_one_block() {
        let bf = BloomFilter::with_page_budget(10, 1, 64);
        assert_eq!(bf.num_bits(), BLOCK_BITS);
        assert_eq!(bf.pages(), 1);
        let mut bf = bf;
        for k in 0..10u64 {
            bf.insert(k);
        }
        assert!((0..10u64).all(|k| bf.may_contain(k)));
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let bf = BloomFilter::with_rate(100, 0.01);
        assert!(!bf.may_contain(42));
        assert_eq!(bf.fill_ratio(), 0.0);
    }

    #[test]
    fn fill_ratio_grows_with_insertions() {
        let mut bf = BloomFilter::with_rate(1_000, 0.05);
        let before = bf.fill_ratio();
        for k in 0..1_000u64 {
            bf.insert(k);
        }
        assert!(bf.fill_ratio() > before);
        assert!(
            bf.fill_ratio() < 0.9,
            "a correctly sized filter is not saturated"
        );
    }

    #[test]
    fn from_keys_is_arrival_order_invariant() {
        let keys: Vec<u64> = (0..5_000u64).map(|k| k * 11).collect();
        let forward = BloomFilter::from_keys(keys.iter().copied(), keys.len(), 2, 4096);
        let mut reversed_keys = keys.clone();
        reversed_keys.reverse();
        let reversed = BloomFilter::from_keys(reversed_keys.iter().copied(), keys.len(), 2, 4096);
        assert_eq!(forward.bits, reversed.bits);
        assert_eq!(forward.inserted(), reversed.inserted());
        for &k in &keys {
            assert!(forward.may_contain(k));
        }
    }

    #[test]
    fn all_probe_bits_stay_inside_one_block() {
        // Insert one key into an otherwise empty filter: every set bit must
        // live inside a single 8-word block — the cache-line contract.
        for key in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            let mut bf = BloomFilter::with_page_budget(1_000, 4, 4096);
            bf.insert(key);
            let blocks_touched = bf
                .bits
                .chunks(BLOCK_WORDS)
                .filter(|block| block.iter().any(|&w| w != 0))
                .count();
            assert_eq!(blocks_touched, 1, "key {key:#x} touched multiple blocks");
        }
    }
}
