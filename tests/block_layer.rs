//! Block-layer matrix for the real-file `FileDevice`: the handle cache,
//! read-ahead frame cache and write-behind coalescing buffer must be
//! *invisible* to the modeled execution.
//!
//! 1. Every builder variant (read-ahead and write-behind toggled
//!    independently, plus a durable `SyncPolicy`) produces the same join
//!    output and bit-identical modeled [`IoStats`] as `SimDevice` — the
//!    block layer changes the syscall shape, never the page-level trace.
//! 2. The acceptance pin: with read-ahead *and* write-behind enabled, the
//!    device-level event stream of NOCAP, DHH and SMJ at 1/2/4/8 workers
//!    audits exactly against the engine's per-phase counter snapshots
//!    (zero model-audit mismatches, zero stray events, zero flagged
//!    declarations).
//! 3. The write-behind tail is flushed on every exit path — explicit
//!    `flush`/`flush_file`, device drop — and discarded on `delete_file`.
//! 4. The full fault-tolerance stack (engine → `CheckedDevice` →
//!    `FaultDevice` → `TracedDevice` → `FileDevice`) recovers a transient
//!    schedule at 1/4/8 workers with the fault-free output and an exact
//!    audit, and a `CheckedDevice` alone retries a *real* torn block flush
//!    to success.
//!
//! [`IoStats`]: nocap_suite::storage::IoStats

use nocap_suite::joins::{DhhJoin, SortMergeJoin};
use nocap_suite::model::{JoinRunReport, JoinSpec};
use nocap_suite::nocap::{NocapConfig, NocapJoin};
use nocap_suite::obs::{IoAudit, Obs};
use nocap_suite::storage::device::DeviceRef;
use nocap_suite::storage::{
    BlockDevice, CheckedDevice, DeviceProfile, FaultDevice, FaultKind, FaultSpec, FileDevice,
    FileDeviceBuilder, IoKind, Page, Record, RecordLayout, Result, RetryPolicy, SimDevice,
    SyncPolicy, TracedDevice,
};
use nocap_suite::workload::{synthetic, Correlation, GeneratedWorkload, SyntheticConfig};

const BUDGET_PAGES: usize = 48;

fn workload_config() -> SyntheticConfig {
    SyntheticConfig {
        n_r: 2_000,
        n_s: 16_000,
        record_bytes: 128,
        correlation: Correlation::Zipf { alpha: 1.1 },
        mcv_count: 200,
        seed: 0xB10C,
    }
}

/// Generates the matrix workload on `device` and resets the I/O counters, so
/// every comparison below sees run-only stats.
fn generate_on(device: DeviceRef) -> GeneratedWorkload {
    let wl = synthetic::generate(device.clone(), &workload_config()).expect("workload");
    device.reset_stats();
    wl
}

/// The audit pin uses the larger grid from `parallel_determinism.rs`: at the
/// small matrix size the spill destage happens to write mostly-adjacent
/// pages, which the declaration audit (rightly) flags as a sequential
/// pattern declared `rand_write` — a property of the tiny workload, not of
/// the device under test.
fn generate_audit_workload(device: DeviceRef) -> GeneratedWorkload {
    let wl = synthetic::generate(
        device.clone(),
        &SyntheticConfig {
            n_r: 6_000,
            n_s: 48_000,
            record_bytes: 128,
            correlation: Correlation::Zipf { alpha: 1.1 },
            mcv_count: 300,
            seed: 0x9A5,
        },
    )
    .expect("workload");
    device.reset_stats();
    wl
}

#[derive(Clone, Copy)]
enum Join {
    Nocap,
    Dhh,
    Smj,
}

impl Join {
    fn all() -> [Join; 3] {
        [Join::Nocap, Join::Dhh, Join::Smj]
    }

    fn name(&self) -> &'static str {
        match self {
            Join::Nocap => "nocap",
            Join::Dhh => "dhh",
            Join::Smj => "smj",
        }
    }

    fn run(&self, wl: &GeneratedWorkload, threads: usize) -> Result<JoinRunReport> {
        let spec = JoinSpec::paper_synthetic(128, BUDGET_PAGES);
        match self {
            Join::Nocap => NocapJoin::new(spec, NocapConfig::default()).run_parallel_obs(
                &wl.r,
                &wl.s,
                &wl.mcvs,
                threads,
                &Obs::off(),
            ),
            Join::Dhh => DhhJoin::with_defaults(spec).run_parallel_obs(
                &wl.r,
                &wl.s,
                &wl.mcvs,
                threads,
                &Obs::off(),
            ),
            Join::Smj => {
                SortMergeJoin::new(spec).run_parallel_obs(&wl.r, &wl.s, threads, &Obs::off())
            }
        }
    }

    fn run_obs(&self, wl: &GeneratedWorkload, threads: usize, obs: &Obs) -> JoinRunReport {
        let spec = JoinSpec::paper_synthetic(128, BUDGET_PAGES);
        match self {
            Join::Nocap => NocapJoin::new(spec, NocapConfig::default())
                .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, obs)
                .expect("recorded nocap run"),
            Join::Dhh => DhhJoin::with_defaults(spec)
                .run_parallel_obs(&wl.r, &wl.s, &wl.mcvs, threads, obs)
                .expect("recorded dhh run"),
            Join::Smj => SortMergeJoin::new(spec)
                .run_parallel_obs(&wl.r, &wl.s, threads, obs)
                .expect("recorded smj run"),
        }
    }
}

fn page_with(keys: &[u64]) -> Page {
    let mut p = Page::empty(256, RecordLayout::new(8));
    for &k in keys {
        assert!(p.push(&Record::with_fill(k, 8, 0)).unwrap());
    }
    p
}

#[test]
fn every_block_layer_variant_matches_sim_device_bit_for_bit() {
    // Read-ahead batches preads, write-behind coalesces pwrites, a durable
    // sync policy adds fsyncs — none of which may change the join output or
    // the modeled per-page counters relative to the in-memory SimDevice.
    type BuilderFn = fn() -> FileDeviceBuilder;
    let variants: [(&str, BuilderFn); 5] = [
        ("bare", || {
            FileDevice::builder().read_ahead(false).write_behind(false)
        }),
        ("read_ahead", || {
            FileDevice::builder().read_ahead(true).write_behind(false)
        }),
        ("write_behind", || {
            FileDevice::builder().read_ahead(false).write_behind(true)
        }),
        ("both", || {
            FileDevice::builder().read_ahead(true).write_behind(true)
        }),
        ("both+fdatasync", || {
            FileDevice::builder().sync_policy(SyncPolicy::DataSync)
        }),
    ];
    for join in Join::all() {
        let base_wl = generate_on(SimDevice::new_ref());
        let baseline = join.run(&base_wl, 1).expect("sim baseline");
        let base_stats = base_wl.r.device().stats();
        for (variant, builder) in &variants {
            for threads in [1usize, 4] {
                let file_dev = builder().build_arc().expect("file device");
                let wl = generate_on(file_dev.clone() as DeviceRef);
                let report = join.run(&wl, threads).expect("block-layer run");
                assert_eq!(
                    report.output_records,
                    baseline.output_records,
                    "{}/{variant}: wrong output at {threads} threads",
                    join.name()
                );
                assert_eq!(
                    file_dev.stats(),
                    base_stats,
                    "{}/{variant}: modeled I/O diverged from SimDevice at {threads} threads",
                    join.name()
                );
                let bs = file_dev.block_stats();
                if *variant == "bare" {
                    assert_eq!(bs.readahead_hits, 0, "{}: no frame cache", join.name());
                    assert_eq!(bs.buffered_appends, 0, "{}: no coalescing", join.name());
                }
                if *variant == "both" {
                    assert!(
                        bs.readahead_hits > 0,
                        "{}: sequential scans must hit the frame cache",
                        join.name()
                    );
                    assert!(
                        bs.buffered_appends > 0,
                        "{}: appends must coalesce into block writes",
                        join.name()
                    );
                    assert!(
                        bs.physical_write_pages < base_stats.seq_writes + base_stats.rand_writes
                            || bs.physical_writes < bs.physical_write_pages,
                        "{}: write-behind never batched anything",
                        join.name()
                    );
                }
            }
        }
    }
}

#[test]
fn block_layer_device_audits_exactly_for_every_join_at_every_thread_count() {
    // The acceptance pin: read-ahead + write-behind enabled (the builder
    // default), every join, 1/2/4/8 workers — the traced event stream must
    // fold to exactly the engine's per-phase IoStats deltas, with no events
    // outside the marker windows and no contradicted IoKind declarations.
    for join in Join::all() {
        let base_wl = generate_audit_workload(SimDevice::new_ref());
        let baseline = join.run(&base_wl, 1).expect("sim baseline");
        for threads in [1usize, 2, 4, 8] {
            let device = TracedDevice::new_ref(
                FileDevice::builder().build_arc().expect("file device") as DeviceRef,
            );
            let wl = generate_audit_workload(device.clone());
            let obs = Obs::recording();
            let report = join.run_obs(&wl, threads, &obs);
            assert_eq!(
                report.output_records,
                baseline.output_records,
                "{}: wrong output at {threads} threads",
                join.name()
            );
            let trace = report.trace.as_ref().expect("recording attaches a trace");
            assert!(
                !trace.io_events.is_empty(),
                "{}: no I/O events captured at {threads} threads",
                join.name()
            );
            let audit = IoAudit::from_trace(trace, DeviceProfile::default());
            assert!(
                audit.mismatches().is_empty(),
                "{}: model audit mismatched on the block layer at {threads} threads\n{}",
                join.name(),
                audit.report_text()
            );
            assert_eq!(audit.leading_events, 0, "{}", join.name());
            assert_eq!(audit.trailing_events, 0, "{}", join.name());
            assert!(
                audit.flagged_declarations().is_empty(),
                "{}: declared I/O kinds contradict observed access patterns \
                 at {threads} threads\n{}",
                join.name(),
                audit.report_text()
            );
        }
    }
}

#[test]
fn write_behind_tail_is_flushed_on_every_exit_path() {
    // flush() and flush_file() make the buffered tail durable on demand;
    // dropping an `at_dir` device flushes implicitly; delete_file discards
    // the tail along with the backing file.
    let dir = std::env::temp_dir().join(format!(
        "nocap-block-exit-{}-{:x}",
        std::process::id(),
        0xE517u32
    ));
    std::fs::create_dir_all(&dir).expect("create dir");

    // Explicit flush: three buffered pages (under the 8-page block) hit the
    // disk only when asked, and reads see them before *and* after.
    let device = FileDevice::builder()
        .at_dir(dir.clone())
        .build()
        .expect("device");
    let f = device.create_file();
    for k in 0..3u64 {
        device
            .append_page(f, &page_with(&[k]), IoKind::SeqWrite)
            .expect("append");
    }
    let path = device.backing_path(f).expect("backing path");
    let on_disk = || std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    assert_eq!(on_disk(), 0, "a short tail stays buffered until a flush");
    for k in 0..3u64 {
        let page = device
            .read_page(f, k as usize, IoKind::RandRead)
            .expect("buffered read");
        assert_eq!(page.records().map(|r| r.key()).collect::<Vec<_>>(), [k]);
    }
    device.flush_file(f).expect("flush_file");
    assert_eq!(on_disk(), 3 * 256, "flush_file destages the whole tail");

    // Drop: one more buffered page, then drop the device — the implicit
    // flush must leave all four pages durable for a later forensic read.
    device
        .append_page(f, &page_with(&[3]), IoKind::SeqWrite)
        .expect("append");
    drop(device);
    assert_eq!(
        std::fs::metadata(&path)
            .expect("backing file survives")
            .len(),
        4 * 256,
        "dropping an at_dir device flushes the write-behind tail"
    );

    // delete_file: the tail is discarded, never destaged.
    let device = FileDevice::builder()
        .at_dir(dir.clone())
        .build()
        .expect("device");
    let g = device.create_file();
    device
        .append_page(g, &page_with(&[9]), IoKind::SeqWrite)
        .expect("append");
    let g_path = device.backing_path(g).expect("backing path");
    device.delete_file(g).expect("delete_file");
    assert!(
        !g_path.exists(),
        "delete_file removes the backing file and discards the tail"
    );
    drop(device);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn full_stack_over_the_block_layer_recovers_and_audits_exactly() {
    // engine → CheckedDevice → FaultDevice → TracedDevice → FileDevice: a
    // transient error schedule is absorbed by the retry layer while the
    // recorder watches the *successful* operations only, so the audit stays
    // exact and the modeled counters stay fault-free.
    let schedule = || {
        vec![
            FaultSpec::any(FaultKind::TransientError { failures: 3 })
                .reads()
                .after(23),
            FaultSpec::any(FaultKind::TransientError { failures: 2 })
                .appends()
                .after(7),
        ]
    };
    let base_wl = generate_on(SimDevice::new_ref());
    let baseline = Join::Nocap.run(&base_wl, 1).expect("sim baseline");
    let base_stats = base_wl.r.device().stats();
    for threads in [1usize, 4, 8] {
        let traced = TracedDevice::new_ref(
            FileDevice::builder().build_arc().expect("file device") as DeviceRef
        );
        let fault = FaultDevice::new_arc(traced, schedule());
        let checked = CheckedDevice::new_arc(
            fault.clone() as DeviceRef,
            RetryPolicy {
                max_attempts: 8,
                backoff_micros: 0,
            },
        );
        let wl = generate_on(checked.clone() as DeviceRef);
        fault.arm();
        let obs = Obs::recording();
        let report = Join::Nocap.run_obs(&wl, threads, &obs);
        assert_eq!(
            report.output_records, baseline.output_records,
            "wrong output under the full stack at {threads} threads"
        );
        assert_eq!(
            checked.stats(),
            base_stats,
            "full-stack modeled I/O diverged at {threads} threads"
        );
        assert_eq!(fault.fault_stats().injected_errors, 5);
        let rs = checked.retry_stats();
        assert!(rs.recovered > 0, "the schedule must actually be recovered");
        assert_eq!(rs.exhausted, 0);
        let trace = report.trace.as_ref().expect("trace");
        let audit = IoAudit::from_trace(trace, DeviceProfile::default());
        assert!(
            audit.mismatches().is_empty(),
            "audit mismatched under the full stack at {threads} threads\n{}",
            audit.report_text()
        );
        assert_eq!(audit.leading_events, 0);
        assert_eq!(audit.trailing_events, 0);
    }
}

#[test]
fn checked_device_retries_a_real_torn_block_flush_to_success() {
    // torn_append_after(1): the second physical write is torn mid-block.
    // The block layer truncates the partial block away and fails the append
    // that triggered the flush *without counting it*; CheckedDevice's retry
    // then re-drives that append, whose flush re-writes the whole batch.
    let file_dev = FileDevice::builder()
        .torn_append_after(1)
        .build_arc()
        .expect("file device");
    let checked = CheckedDevice::new_arc(
        file_dev.clone() as DeviceRef,
        RetryPolicy {
            max_attempts: 4,
            backoff_micros: 0,
        },
    );
    let f = checked.create_file();
    const PAGES: usize = 20; // several 8-page blocks: the torn write lands mid-file
    for k in 0..PAGES as u64 {
        checked
            .append_page(f, &page_with(&[k]), IoKind::SeqWrite)
            .expect("append must be retried through the torn flush");
    }
    file_dev.flush().expect("final flush");
    assert_eq!(
        file_dev.block_stats().torn_writes_repaired,
        1,
        "the injected torn write must fire and be truncated away"
    );
    assert!(checked.retry_stats().recovered >= 1);
    assert_eq!(checked.retry_stats().exhausted, 0);
    assert_eq!(
        checked.stats().seq_writes,
        PAGES as u64,
        "no phantom counts"
    );
    for k in 0..PAGES as u64 {
        let page = checked
            .read_page(f, k as usize, IoKind::SeqRead)
            .expect("read back");
        assert_eq!(
            page.records().map(|r| r.key()).collect::<Vec<_>>(),
            [k],
            "page {k} lost or corrupted across the torn flush"
        );
    }
}
