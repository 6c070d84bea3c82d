//! End-to-end join benchmark: closed-loop PK-FK joins of NOCAP, DHH and GHJ
//! on generated relations, one join at a time from one client.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zipf_spill_sim_t2 --seed 3241 --seconds 12 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics (set-up time, join
//! latency p50/p90, #I/Os and heap peak per algorithm); with `--trace 1` a
//! separate traced run prints the per-layer metrics. Every join's output
//! and per-phase I/O is checked; the last line of standard output is one
//! JSON object, and any failed join makes the exit code non-zero.

mod alloc;
mod pipeline;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use nocap::OcapConfig;
use nocap_obs::Obs;
use nocap_storage::IoStats;

use crate::alloc::{measure_peak, CountingAlloc};
use crate::pipeline::{Algo, Engines, Joined, ALGOS};
use crate::workload::{timed_setup, Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 3241;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Where device files and the span log go, relative to the working
/// directory.
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    let outcome = if args.trace {
        traced::run(&args, &run_dir)
    } else {
        run_end_to_end(&args, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    match outcome {
        Ok(result) => {
            result.print();
            if result.checker.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: {} join(s) failed", result.checker.failed);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The untraced run: set-up time, then one heap-measured join per
/// algorithm, then joins in a closed loop for `--seconds`.
fn run_end_to_end(args: &Args, run_dir: &Path) -> Result<RunResult, String> {
    let wl_def = &args.workload;
    let (setup, setup_s) = timed_setup(wl_def, args.seed, false, run_dir, SETUP_REPEATS)?;
    let wl = &setup.wl;
    let engines = Engines::new(wl_def.spec(), wl_def.threads);
    let mut checker = Checker::new(wl.expected_join_output());
    let obs = Obs::off();

    let mut heap_peak = [0usize; 3];
    for (i, &algo) in ALGOS.iter().enumerate() {
        let (joined, peak) = measure_peak(|| engines.run(algo, wl, &obs));
        checker.check(algo, joined);
        heap_peak[i] = peak;
    }

    let mut times: [Vec<f64>; 3] = Default::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while Instant::now() < deadline {
        for (i, &algo) in ALGOS.iter().enumerate() {
            if let Some(j) = checker.check(algo, engines.run(algo, wl, &obs)) {
                times[i].push(j.stamps.total_ms());
            }
        }
    }

    let mut metrics = Metrics::default();
    metrics.push("setup_s", setup_s, "s");
    for (i, &algo) in ALGOS.iter().enumerate() {
        let a = algo.name();
        metrics.push(format!("{a}.join_ms_p50"), percentile(&times[i], 0.5), "ms");
        metrics.push(format!("{a}.join_ms_p90"), percentile(&times[i], 0.9), "ms");
        metrics.push(
            format!("{a}.io_pages"),
            checker.io_pages(algo) as f64,
            "pages",
        );
        metrics.push(format!("{a}.heap_peak_mb"), heap_peak[i] as f64 / 1e6, "MB");
    }
    let notes = vec![
        format!(
            "joins per algorithm: nocap {}, dhh {}, ghj {}",
            times[0].len(),
            times[1].len(),
            times[2].len()
        ),
        fidelity(wl_def, &setup.wl, &checker),
    ];
    Ok(RunResult {
        checker,
        metrics,
        notes,
    })
}

/// The fidelity readout: NOCAP's #I/Os against the OCAP lower bound and
/// against DHH. A record, never a gate.
fn fidelity(
    wl_def: &Workload,
    wl: &nocap_workload::GeneratedWorkload,
    checker: &Checker,
) -> String {
    let ocap = ocap_io_pages(wl_def, wl);
    let nocap = checker.io_pages(Algo::Nocap) as f64;
    format!(
        "fidelity {}: nocap.io_over_ocap = {:.4} (ocap {:.0} pages), nocap.io_pages / dhh.io_pages = {:.4}",
        wl_def.name,
        nocap / ocap,
        ocap,
        nocap / checker.io_pages(Algo::Dhh) as f64
    )
}

/// OCAP's lower bound on #I/Os for the workload, from the exact
/// correlation table.
pub fn ocap_io_pages(wl_def: &Workload, wl: &nocap_workload::GeneratedWorkload) -> f64 {
    nocap::ocap(&wl.ct, &wl_def.spec(), &OcapConfig::default()).total_io_pages
}

/// Counts joins and checks each one's output and per-phase I/O.
pub struct Checker {
    expected_output: u64,
    /// `(partition_io, probe_io)` of each algorithm's first join.
    reference: [Option<(IoStats, IoStats)>; 3],
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn new(expected_output: u64) -> Self {
        Checker {
            expected_output,
            reference: [None; 3],
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts one join. A join fails when it errors, when its output count
    /// differs from the generator's, or when its per-phase I/O differs from
    /// the algorithm's first join. Returns the join unless it errored.
    pub fn check(&mut self, algo: Algo, joined: nocap_storage::Result<Joined>) -> Option<Joined> {
        self.attempted += 1;
        let joined = match joined {
            Ok(j) => j,
            Err(e) => {
                self.failed += 1;
                eprintln!("{}: join failed: {e}", algo.name());
                return None;
            }
        };
        let report = &joined.report;
        let io = (report.partition_io, report.probe_io);
        let reference = *self.reference[algo as usize].get_or_insert(io);
        if report.output_records != self.expected_output || io != reference {
            self.failed += 1;
            eprintln!(
                "{}: wrong result: {} output records (expected {}), I/O {:?} (first join {:?})",
                algo.name(),
                report.output_records,
                self.expected_output,
                io,
                reference
            );
        }
        Some(joined)
    }

    /// `JoinRunReport::total_ios` of the algorithm's first join.
    pub fn io_pages(&self, algo: Algo) -> u64 {
        self.reference[algo as usize].map_or(0, |(p, q)| (p + q).total())
    }

    pub fn partition_and_probe_io(&self, algo: Algo) -> (u64, u64) {
        self.reference[algo as usize].map_or((0, 0), |(p, q)| (p.total(), q.total()))
    }
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

pub struct RunResult {
    pub checker: Checker,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

impl RunResult {
    /// Prints a readable table, then the result as one JSON line last.
    fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, value, unit) in &self.metrics.0 {
            println!("# {name:<32} {value:>14.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checker.failed == 0,
            self.checker.attempted,
            self.checker.failed,
            metrics.join(", ")
        );
    }
}

/// JSON has no NaN or infinity; a metric that is undefined prints as null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Linear-interpolated percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}
