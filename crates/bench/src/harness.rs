//! Shared experiment-harness helpers: run every algorithm on one workload
//! and print figure-style rows.

use std::sync::Arc;

use nocap::{NocapConfig, NocapJoin, OcapConfig};
use nocap_joins::{DhhConfig, DhhJoin, GraceHashJoin, SortMergeJoin};
use nocap_model::{CorrelationTable, JoinRunReport, JoinSpec};
use nocap_obs::{ExecutionTrace, IoAudit, Obs};
use nocap_storage::device::DeviceRef;
use nocap_storage::{
    CheckedDevice, DeviceProfile, FaultDevice, FaultPlan, FileDevice, Relation, RetryPolicy,
    SimDevice, TracedDevice,
};
use nocap_workload::GeneratedWorkload;

/// One measured data point of a figure: an algorithm at one x-value.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Algorithm name as used in the paper's legends.
    pub algorithm: String,
    /// Total number of page I/Os.
    pub ios: u64,
    /// Estimated I/O latency in seconds under the experiment's device.
    pub io_latency_secs: f64,
    /// Total latency (I/O + CPU) in seconds.
    pub total_latency_secs: f64,
    /// Output cardinality (used to cross-check all algorithms agree).
    pub output_records: u64,
}

/// Which algorithms a sweep should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgorithmSet {
    /// Run NOCAP.
    pub nocap: bool,
    /// Run DHH (PostgreSQL-style fixed thresholds).
    pub dhh: bool,
    /// Run Histojoin.
    pub histojoin: bool,
    /// Run Grace Hash Join.
    pub ghj: bool,
    /// Run Sort-Merge Join.
    pub smj: bool,
}

impl AlgorithmSet {
    /// All five executors (Figure 8).
    pub fn all() -> Self {
        AlgorithmSet {
            nocap: true,
            dhh: true,
            histojoin: true,
            ghj: true,
            smj: true,
        }
    }

    /// Just NOCAP and DHH (the TPC-H / JCC-H / JOB figures).
    pub fn nocap_vs_dhh() -> Self {
        AlgorithmSet {
            nocap: true,
            dhh: true,
            histojoin: false,
            ghj: false,
            smj: false,
        }
    }
}

/// Runs the selected algorithms on one workload under one spec and returns
/// their measurements. The device stats are reset before every run so each
/// report contains only that join's I/O.
pub fn run_algorithms(
    workload: &GeneratedWorkload,
    spec: &JoinSpec,
    device_profile: &DeviceProfile,
    set: &AlgorithmSet,
) -> Vec<Measurement> {
    let mut out = Vec::new();
    let r = &workload.r;
    let s = &workload.s;
    let mcvs = &workload.mcvs;

    let mut push = |name: &str, report: nocap_model::JoinRunReport| {
        out.push(Measurement {
            algorithm: name.to_string(),
            ios: report.total_ios(),
            io_latency_secs: report.io_latency_secs(device_profile),
            total_latency_secs: report.total_latency_secs(device_profile),
            output_records: report.output_records,
        });
    };

    if set.nocap {
        reset(r);
        let report = NocapJoin::new(*spec, NocapConfig::default())
            .run_parallel_obs(r, s, mcvs, 1, &Obs::off())
            .expect("NOCAP run");
        push("NOCAP", report);
    }
    if set.dhh {
        reset(r);
        let report = DhhJoin::new(*spec, DhhConfig::default())
            .run_parallel_obs(r, s, mcvs, 1, &Obs::off())
            .expect("DHH run");
        push("DHH", report);
    }
    if set.histojoin {
        reset(r);
        let report = DhhJoin::new(*spec, DhhConfig::histojoin())
            .run_parallel_obs(r, s, mcvs, 1, &Obs::off())
            .expect("Histojoin run");
        push("Histojoin", report);
    }
    if set.ghj {
        reset(r);
        let report = GraceHashJoin::new(*spec)
            .run_parallel_obs(r, s, 1, &Obs::off())
            .expect("GHJ run");
        push("GHJ", report);
    }
    if set.smj {
        reset(r);
        let report = SortMergeJoin::new(*spec)
            .run_parallel_obs(r, s, 1, &Obs::off())
            .expect("SMJ run");
        push("SMJ", report);
    }
    out
}

/// Estimated OCAP lower bound (in page I/Os) for the workload under `spec`.
pub fn ocap_lower_bound(ct: &CorrelationTable, spec: &JoinSpec) -> f64 {
    nocap::ocap(ct, spec, &OcapConfig::default()).total_io_pages
}

fn reset(r: &Relation) {
    r.device().reset_stats();
}

/// Prints a CSV header followed by one row per x-value with one column per
/// series, in a fixed series order.
pub fn print_series_table(
    x_label: &str,
    series_names: &[&str],
    rows: &[(String, Vec<Option<f64>>)],
) {
    let header: Vec<String> = std::iter::once(x_label.to_string())
        .chain(series_names.iter().map(|s| s.to_string()))
        .collect();
    println!("{}", header.join(","));
    for (x, values) in rows {
        let mut cells = vec![x.clone()];
        for v in values {
            cells.push(match v {
                Some(v) => format!("{v:.1}"),
                None => String::new(),
            });
        }
        println!("{}", cells.join(","));
    }
}

/// Prints one figure panel in the shared per-bin block format: a `# title`
/// comment line, the CSV series table, and a trailing blank line.
pub fn print_series_block(
    title: &str,
    x_label: &str,
    series_names: &[&str],
    rows: &[(String, Vec<Option<f64>>)],
) {
    println!("# {title}");
    print_series_table(x_label, series_names, rows);
    println!();
}

/// Prints a trace's phase table (per-phase wall times, skew histograms,
/// counters, gauges, per-worker busy time) as `#`-prefixed comment lines so
/// the block nests inside the surrounding CSV stream.
pub fn print_trace_breakdown(label: &str, trace: &ExecutionTrace) {
    println!("# {label} phase breakdown");
    for line in trace.phase_table().lines() {
        println!("#   {line}");
    }
}

/// Honors the `NOCAP_TRACE=<base>` environment hook: writes `trace` as
/// chrome://tracing JSON to `<base>.<label>.json` (loadable in Perfetto /
/// `chrome://tracing`). A no-op when the variable is unset or empty.
pub fn maybe_dump_trace(label: &str, trace: &ExecutionTrace) {
    let Ok(base) = std::env::var("NOCAP_TRACE") else {
        return;
    };
    if base.is_empty() {
        return;
    }
    let path = format!("{base}.{label}.json");
    std::fs::write(&path, trace.to_chrome_trace()).expect("write NOCAP_TRACE output");
    println!("# wrote chrome trace: {path}");
}

/// Prints the phase breakdown of a traced run and honors `NOCAP_TRACE`.
/// Does nothing for reports produced without a recording channel.
pub fn report_trace(label: &str, report: &JoinRunReport) {
    if let Some(trace) = &report.trace {
        print_trace_breakdown(label, trace);
        maybe_dump_trace(label, trace);
    }
}

/// Parses the `NOCAP_FAULTS=<seed>` environment hook: when set and
/// non-empty, experiment bins wrap their device in the fault-tolerance
/// stack ([`fault_stack`]) seeded with this value. Numeric values are used
/// directly; any other string is hashed (FNV-1a 64) so mnemonic seeds like
/// `NOCAP_FAULTS=smoke` work too.
pub fn faults_seed() -> Option<u64> {
    let v = std::env::var("NOCAP_FAULTS").ok()?;
    if v.is_empty() {
        return None;
    }
    Some(v.parse().unwrap_or_else(|_| {
        v.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }))
}

/// Concrete handles into the fault-tolerance stack built by [`fault_stack`],
/// kept so the bin can arm the schedule after workload generation and print
/// the injection/recovery summary at the end.
pub struct FaultInjection {
    fault: Arc<FaultDevice>,
    checked: Arc<CheckedDevice>,
}

impl FaultInjection {
    /// Starts injecting faults. Call *after* generating the workload so the
    /// schedule's op counters start at the first join run.
    pub fn arm(&self) {
        self.fault.arm();
    }
}

/// Builds the engine-facing fault-tolerance stack over `inner`:
/// `CheckedDevice` (checksums + bounded retry, no backoff sleeps) →
/// `FaultDevice` carrying [`FaultPlan::errors_only`]`(seed, ops_hint)` →
/// `inner`. Errors-only because the bins assert parallel-vs-sequential I/O
/// equality, which recovered transient errors preserve exactly. The stack
/// starts disarmed; arm it via the returned [`FaultInjection`].
pub fn fault_stack(inner: DeviceRef, seed: u64, ops_hint: u64) -> (DeviceRef, FaultInjection) {
    let fault = FaultDevice::new_arc(inner, FaultPlan::errors_only(seed, ops_hint));
    let checked = CheckedDevice::new_arc(
        fault.clone() as DeviceRef,
        RetryPolicy {
            max_attempts: 8,
            backoff_micros: 0,
        },
    );
    let device = checked.clone() as DeviceRef;
    (device, FaultInjection { fault, checked })
}

/// Prints the fault-injection and recovery counters as `#`-prefixed comment
/// lines, and asserts the run actually *recovered*: an errors-only schedule
/// is recoverable by construction, so any exhausted operation means the
/// retry layer is broken.
pub fn print_fault_summary(label: &str, rig: &FaultInjection) {
    let fs = rig.fault.fault_stats();
    let rs = rig.checked.retry_stats();
    println!(
        "# fault injection [{label}]: {} errors, {} delays injected; \
         {} read retries, {} append retries, {} recovered, {} exhausted",
        fs.injected_errors,
        fs.injected_delays,
        rs.read_retries,
        rs.append_retries,
        rs.recovered,
        rs.exhausted
    );
    assert_eq!(
        rs.exhausted, 0,
        "{label}: a recoverable schedule must never exhaust the retry budget"
    );
    assert!(
        fs.injected_errors == 0 || rs.recovered > 0,
        "{label}: injected errors were never recovered by the retry layer"
    );
}

/// Base-device selection of the experiment bins, driven by `NOCAP_DEVICE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceMode {
    /// In-memory `SimDevice` (the default): full sweeps at memory speed.
    Sim,
    /// Block-layer `FileDevice` in a fresh temp directory: the paper's
    /// figures on real I/O (read-ahead + write-behind enabled).
    File,
}

impl DeviceMode {
    /// Label for the bins' config banner.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceMode::Sim => "SimDevice",
            DeviceMode::File => "FileDevice",
        }
    }
}

/// Parses the `NOCAP_DEVICE` environment hook: `file` selects the
/// block-layer [`FileDevice`], anything else (or unset) the in-memory
/// [`SimDevice`]. Unknown values fail loudly rather than silently running
/// the sweep on the wrong device.
pub fn device_mode() -> DeviceMode {
    match std::env::var("NOCAP_DEVICE") {
        Ok(v) if v.eq_ignore_ascii_case("file") => DeviceMode::File,
        Ok(v) if v.is_empty() || v.eq_ignore_ascii_case("sim") => DeviceMode::Sim,
        Ok(v) => panic!("NOCAP_DEVICE={v}: expected 'sim' or 'file'"),
        Err(_) => DeviceMode::Sim,
    }
}

/// Builds the base device the experiment bins run on, honoring
/// `NOCAP_DEVICE` and `NOCAP_IO_AUDIT`: the audit hook wraps the base in a
/// `TracedDevice` (latency-measuring on the file device) so audited runs
/// see device-level events.
pub fn base_device() -> DeviceRef {
    match device_mode() {
        DeviceMode::Sim => {
            if io_audit_enabled() {
                TracedDevice::new_ref(SimDevice::new_ref())
            } else {
                SimDevice::new_ref()
            }
        }
        DeviceMode::File => {
            let dev = FileDevice::builder().build_arc().expect("temp FileDevice") as DeviceRef;
            if io_audit_enabled() {
                TracedDevice::with_latency_ref(dev)
            } else {
                dev
            }
        }
    }
}

/// True when the `NOCAP_IO_AUDIT` environment hook is active. Experiment
/// bins use this to decide whether to wrap their `SimDevice` in a
/// `TracedDevice` so the audited runs actually see device-level events.
pub fn io_audit_enabled() -> bool {
    std::env::var("NOCAP_IO_AUDIT").is_ok_and(|v| !v.is_empty())
}

/// Honors the `NOCAP_IO_AUDIT=<base|1>` environment hook: replays a traced
/// run's device-level I/O stream through [`IoAudit`] against `profile`,
/// prints the audit report as `#`-prefixed comment lines, and — when the
/// value is a path base rather than `1` — writes the full audit JSON to
/// `<base>.<label>.io_audit.json`. A no-op when the variable is unset or
/// the report carries no trace; warns when the trace has no device events
/// (the run's device was not wrapped in a `TracedDevice`).
pub fn maybe_audit_io(label: &str, report: &JoinRunReport, profile: &DeviceProfile) {
    let Ok(base) = std::env::var("NOCAP_IO_AUDIT") else {
        return;
    };
    if base.is_empty() {
        return;
    }
    let Some(trace) = &report.trace else {
        return;
    };
    if trace.io_events.is_empty() {
        println!("# io audit [{label}]: no device-level events (device not traced)");
        return;
    }
    let audit = IoAudit::from_trace(trace, *profile);
    println!("# io audit [{label}]");
    for line in audit.report_text().lines() {
        println!("#   {line}");
    }
    // The audit exists to catch divergence: a mismatch anywhere must fail
    // the bin (and CI) loudly, on simulated and real devices alike.
    assert!(
        audit.mismatches().is_empty(),
        "{label}: traced events disagree with the engine's modeled I/O"
    );
    assert_eq!(audit.leading_events, 0, "{label}: events before any marker");
    assert_eq!(
        audit.trailing_events, 0,
        "{label}: events after the last marker"
    );
    if base != "1" {
        let path = format!("{base}.{label}.io_audit.json");
        std::fs::write(&path, audit.to_json()).expect("write NOCAP_IO_AUDIT output");
        println!("# wrote io audit: {path}");
    }
}
