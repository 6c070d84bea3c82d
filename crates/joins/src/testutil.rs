//! Shared test support: deterministic workload builders and the
//! **determinism harness** — the thread-count comparator every executor in
//! the workspace is pinned by.
//!
//! The module is compiled into the library (not `#[cfg(test)]`) so the
//! top-level integration suites (`tests/parallel_determinism.rs`,
//! `tests/zero_copy_equivalence.rs`) and the benches can drive the same
//! comparator the unit tests use. It contains assertions and O(n log n)
//! workload builders only — nothing here belongs on a production code path.

use nocap_model::{JoinRunReport, JoinSpec};
use nocap_storage::device::DeviceRef;
use nocap_storage::{IoStats, Record, Relation};

/// SplitMix64, used for deterministic shuffling in tests.
pub fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A report carrying only the deterministic payload the determinism
/// harness compares: join output and per-phase modeled I/O, each phase
/// given as `[seq_reads, rand_reads, seq_writes, rand_writes]`. Used to
/// check in golden numbers as constants.
pub fn pinned_report(output: u64, partition_io: [u64; 4], probe_io: [u64; 4]) -> JoinRunReport {
    let io = |[seq_reads, rand_reads, seq_writes, rand_writes]: [u64; 4]| IoStats {
        seq_reads,
        rand_reads,
        seq_writes,
        rand_writes,
    };
    let mut report = JoinRunReport::new("pinned");
    report.output_records = output;
    report.partition_io = io(partition_io);
    report.probe_io = io(probe_io);
    report
}

/// Asserts that an executor reproduces `expected` **exactly** — identical
/// join output and identical per-phase modeled I/O — for every thread count
/// in `threads`.
///
/// `run(n)` runs once per entry of `threads` and is responsible for
/// building its own workload/device state (typically regenerating it from a
/// fixed seed so every run starts from identical relations and clean I/O
/// counters). `expected` is a checked-in golden report (see
/// [`pinned_report`]), so every thread count is pinned to fixed numbers,
/// not just to each other. This is the workspace's core engine contract in
/// executable form: parallelism may change *when* work happens, never
/// *what* work happens.
pub fn assert_parallel_equivalence(
    label: &str,
    threads: &[usize],
    expected: &JoinRunReport,
    run: impl Fn(usize) -> JoinRunReport,
) {
    for &n in threads {
        let report = run(n);
        assert_eq!(
            report.output_records, expected.output_records,
            "{label}: join output differs at {n} threads"
        );
        assert_eq!(
            report.partition_io, expected.partition_io,
            "{label}: partition-phase I/O differs at {n} threads"
        );
        assert_eq!(
            report.probe_io, expected.probe_io,
            "{label}: probe-phase I/O differs at {n} threads"
        );
    }
}

/// Builds an (R, S) pair where R has keys `0..n_r` and key `k` appears
/// `counts(k)` times in S, with S shuffled deterministically.
pub fn build_workload(
    device: DeviceRef,
    spec: &JoinSpec,
    n_r: u64,
    counts: impl Fn(u64) -> u64,
) -> (Relation, Relation) {
    let payload = spec.r_layout.payload_bytes();
    let r = Relation::bulk_load(
        device.clone(),
        spec.r_layout,
        spec.page_size,
        (0..n_r).map(|k| Record::with_fill(k, payload, 1)),
    )
    .unwrap();
    let mut s_keys: Vec<u64> = Vec::new();
    for k in 0..n_r {
        for rep in 0..counts(k) {
            s_keys.push(k.wrapping_add(rep << 32)); // temporary tag for shuffling
        }
    }
    s_keys.sort_by_key(|&tagged| mix(tagged));
    let s = Relation::bulk_load(
        device,
        spec.s_layout,
        spec.page_size,
        s_keys
            .iter()
            .map(|&tagged| Record::with_fill(tagged & 0xFFFF_FFFF, payload, 2)),
    )
    .unwrap();
    (r, s)
}

/// Expected output cardinality of the workload built by [`build_workload`].
pub fn expected_output(n_r: u64, counts: impl Fn(u64) -> u64) -> u64 {
    (0..n_r).map(counts).sum()
}

/// MCV statistics (exact top-k counts) for the workload.
pub fn mcvs(n_r: u64, counts: impl Fn(u64) -> u64, k: usize) -> Vec<(u64, u64)> {
    let mut all: Vec<(u64, u64)> = (0..n_r).map(|key| (key, counts(key))).collect();
    all.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    all.truncate(k);
    all
}
