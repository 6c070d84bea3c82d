//! The traced run: per-layer metrics.
//!
//! The device is wrapped in a latency-measuring `TracedDevice` before R and
//! S are generated, and every join runs twice per round: once with
//! `Obs::off()` and once with `Obs::recording()`, alternating which goes
//! first. The recorded joins give the per-layer numbers; the unrecorded
//! ones give the in-run baseline for the tracing overhead. The benchmark's
//! own spans (join → stats, plan, execute) stay in memory and are written
//! to a JSON-lines file when the run ends.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nocap_obs::{ExecutionTrace, Obs, Phase};
use nocap_storage::{BlockStats, IoOp, IoStats};

use crate::pipeline::{ms, Algo, Engines, Joined, ALGOS};
use crate::workload::{timed_setup, Setup};
use crate::{median, ocap_io_pages, Args, Checker, Metrics, RunResult, OUT_DIR};

/// One benchmark span. Its id is its index in the span log.
struct Span {
    join: usize,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer readings of one recorded join.
struct Sample {
    total_ms: f64,
    stats_ms: Option<f64>,
    plan_ms: Option<f64>,
    partition_ms: f64,
    spill_ms: f64,
    build_ms: f64,
    probe_ms: f64,
    busy_ms: f64,
    pool_peak_pages: u64,
    rest_partitions: u64,
    spilled_rest_partitions: u64,
}

impl Sample {
    fn new(joined: &Joined, trace: &ExecutionTrace) -> Self {
        let phase_ms = |p| trace.phase_secs(p) * 1e3;
        let counter = |name: &str| trace.counters.get(name).copied().unwrap_or(0);
        let s = &joined.stamps;
        Sample {
            total_ms: s.total_ms(),
            stats_ms: s.stats_end.map(|e| ms(s.start, e)),
            plan_ms: s.plan_end.zip(s.stats_end).map(|(p, st)| ms(st, p)),
            partition_ms: phase_ms(Phase::Partition),
            spill_ms: phase_ms(Phase::Spill),
            build_ms: phase_ms(Phase::Build),
            probe_ms: phase_ms(Phase::Probe),
            busy_ms: trace.worker_breakdown().iter().map(|w| w.2).sum::<f64>() * 1e3,
            pool_peak_pages: trace
                .gauges
                .get("buffer_pool_peak_pages")
                .copied()
                .unwrap_or(0),
            rest_partitions: counter("rest_partitions"),
            spilled_rest_partitions: counter("spilled_rest_partitions"),
        }
    }
}

/// Device activity summed over all recorded joins.
#[derive(Default)]
struct DeviceTotals {
    joins: u64,
    read_ops: u64,
    write_ops: u64,
    read_ns: u64,
    write_ns: u64,
    seq_reads: u64,
    readahead_hits: u64,
    physical_writes: u64,
    physical_write_pages: u64,
}

impl DeviceTotals {
    fn add(&mut self, trace: &ExecutionTrace, io: IoStats, block: Option<BlockStats>) {
        self.joins += 1;
        for e in &trace.io_events {
            let ns = e.latency_ns.unwrap_or(0);
            match e.op {
                IoOp::Read => {
                    self.read_ops += 1;
                    self.read_ns += ns;
                }
                IoOp::Append => {
                    self.write_ops += 1;
                    self.write_ns += ns;
                }
            }
        }
        self.seq_reads += io.seq_reads;
        // A SimDevice has no block layer: every append is one page written
        // by itself, and no read is served ahead.
        let block = block.unwrap_or(BlockStats {
            physical_writes: io.writes(),
            physical_write_pages: io.writes(),
            ..BlockStats::default()
        });
        self.readahead_hits += block.readahead_hits;
        self.physical_writes += block.physical_writes;
        self.physical_write_pages += block.physical_write_pages;
    }
}

fn block_delta(before: Option<BlockStats>, after: Option<BlockStats>) -> Option<BlockStats> {
    let (b, a) = (before?, after?);
    Some(BlockStats {
        readahead_hits: a.readahead_hits - b.readahead_hits,
        physical_writes: a.physical_writes - b.physical_writes,
        physical_write_pages: a.physical_write_pages - b.physical_write_pages,
        ..BlockStats::default()
    })
}

/// The recorded joins of a traced run and what they measured.
struct TracedLoop<'a> {
    setup: &'a Setup,
    engines: &'a Engines,
    epoch: Instant,
    spans: Vec<Span>,
    samples: [Vec<Sample>; 3],
    /// The first recorded NOCAP join, for its stats summary and plan.
    nocap: Option<Joined>,
    device: DeviceTotals,
}

impl TracedLoop<'_> {
    /// Runs one recorded join and folds its readings in.
    fn run(&mut self, algo: Algo, checker: &mut Checker) {
        let device = &self.setup.device;
        let (io_before, block_before) = (device.stats(), self.setup.block_stats());
        let obs = Obs::recording();
        let joined = checker.check(algo, self.engines.run(algo, &self.setup.wl, &obs));
        let io = device.stats().since(&io_before);
        let block = block_delta(block_before, self.setup.block_stats());
        let Some(mut joined) = joined else { return };
        let trace = joined
            .report
            .trace
            .take()
            .expect("a recording Obs leaves a trace in the report");
        self.samples[algo as usize].push(Sample::new(&joined, &trace));
        self.device.add(&trace, io, block);
        self.record_spans(algo, &joined);
        if algo == Algo::Nocap && self.nocap.is_none() {
            self.nocap = Some(joined);
        }
    }

    fn record_spans(&mut self, algo: Algo, joined: &Joined) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let s = &joined.stamps;
        let join = self.samples.iter().map(Vec::len).sum::<usize>();
        let root = self.spans.len();
        self.spans.push(Span {
            join,
            name: match algo {
                Algo::Nocap => "nocap.join",
                Algo::Dhh => "dhh.join",
                Algo::Ghj => "ghj.join",
            },
            parent: None,
            start_ns: ns(s.start),
            end_ns: ns(s.end),
        });
        let mut child = |name, from: Instant, to: Instant| {
            self.spans.push(Span {
                join,
                name,
                parent: Some(root),
                start_ns: ns(from),
                end_ns: ns(to),
            })
        };
        if let Some(stats_end) = s.stats_end {
            child("stats", s.start, stats_end);
        }
        if let (Some(stats_end), Some(plan_end)) = (s.stats_end, s.plan_end) {
            child("plan", stats_end, plan_end);
        }
        child(
            "execute",
            s.plan_end.or(s.stats_end).unwrap_or(s.start),
            s.end,
        );
    }

    fn write_spans(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {id}, \"join\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.join, s.name, s.start_ns, s.end_ns
            ));
        }
        let dir = path.parent().unwrap_or(Path::new("."));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::File::create(path))
            .and_then(|mut f| f.write_all(out.as_bytes()))
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

pub fn run(args: &Args, run_dir: &Path) -> Result<RunResult, String> {
    let wl_def = &args.workload;
    let (setup, _) = timed_setup(wl_def, args.seed, true, run_dir, 1)?;
    let engines = Engines::new(wl_def.spec(), wl_def.threads);
    let mut checker = Checker::new(setup.wl.expected_join_output());
    let off = Obs::off();
    // Unrecorded first joins: the recorded ones must match their I/O.
    for algo in ALGOS {
        checker.check(algo, engines.run(algo, &setup.wl, &off));
    }

    let mut rec = TracedLoop {
        setup: &setup,
        engines: &engines,
        epoch: Instant::now(),
        spans: Vec::new(),
        samples: Default::default(),
        nocap: None,
        device: DeviceTotals::default(),
    };
    let mut untraced: [Vec<f64>; 3] = Default::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut round = 0;
    while Instant::now() < deadline {
        for algo in ALGOS {
            for recorded in [round % 2 == 0, round % 2 == 1] {
                if recorded {
                    rec.run(algo, &mut checker);
                } else if let Some(j) = checker.check(algo, engines.run(algo, &setup.wl, &off)) {
                    untraced[algo as usize].push(j.stamps.total_ms());
                }
            }
        }
        round += 1;
    }

    let spans_path =
        PathBuf::from(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", wl_def.name, args.seed));
    rec.write_spans(&spans_path)?;

    let metrics = per_layer_metrics(args, &setup, &checker, &rec, &untraced)?;
    let notes = vec![
        format!(
            "recorded joins per algorithm: nocap {}, dhh {}, ghj {}",
            rec.samples[0].len(),
            rec.samples[1].len(),
            rec.samples[2].len()
        ),
        format!("spans written to {}", spans_path.display()),
    ];
    Ok(RunResult {
        checker,
        metrics,
        notes,
    })
}

fn per_layer_metrics(
    args: &Args,
    setup: &Setup,
    checker: &Checker,
    rec: &TracedLoop,
    untraced: &[Vec<f64>; 3],
) -> Result<Metrics, String> {
    let wl_def = &args.workload;
    let wl = &setup.wl;
    let spec = wl_def.spec();
    let med = |algo: Algo, f: &dyn Fn(&Sample) -> f64| {
        median(&rec.samples[algo as usize].iter().map(f).collect::<Vec<_>>())
    };
    let nocap = rec
        .nocap
        .as_ref()
        .ok_or("no recorded NOCAP join succeeded")?;
    let summary = nocap.summary.as_ref().expect("NOCAP collects stats");
    let plan = nocap.plan.as_ref().expect("NOCAP plans");
    let mut m = Metrics::default();

    // stats
    let stats_ms: Vec<f64> = rec.samples[..2]
        .iter()
        .flatten()
        .filter_map(|s| s.stats_ms)
        .collect();
    m.push("stats.collect_ms", median(&stats_ms), "ms");
    m.push("stats.read_pages", nocap.stats_io.total() as f64, "pages");
    let planner_mcvs = summary.planner_mcvs();
    let top: std::collections::HashSet<u64> = wl
        .ct
        .top_k(planner_mcvs.len())
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let found = planner_mcvs.iter().filter(|(k, _)| top.contains(k)).count();
    m.push(
        "stats.mcv_recall",
        found as f64 / planner_mcvs.len().max(1) as f64,
        "ratio",
    );

    // planner
    m.push(
        "planner.plan_ms",
        med(Algo::Nocap, &|s| s.plan_ms.unwrap_or(0.0)),
        "ms",
    );
    m.push("planner.mem_keys", plan.k_mem() as f64, "count");
    m.push(
        "planner.disk_partitions",
        plan.disk_partitions.len() as f64,
        "count",
    );
    m.push("planner.m_rest", plan.m_rest as f64, "pages");
    let base_pages = (wl.r.num_pages() + wl.s.num_pages()) as f64;
    let nocap_io = checker.io_pages(Algo::Nocap) as f64;
    let actual_extra = nocap_io - base_pages;
    // When nothing spills both sides are zero and the estimate is exact.
    let extra_ratio = if actual_extra == 0.0 && plan.estimated_extra_io == 0.0 {
        1.0
    } else {
        plan.estimated_extra_io / actual_extra
    };
    m.push("planner.extra_io_est_ratio", extra_ratio, "ratio");

    // ocap and the fidelity readout
    let ocap = ocap_io_pages(wl_def, wl);
    m.push("ocap.io_pages", ocap, "pages");
    m.push("nocap.io_over_ocap", nocap_io / ocap, "ratio");
    m.push(
        "nocap.io_over_dhh",
        nocap_io / checker.io_pages(Algo::Dhh) as f64,
        "ratio",
    );

    // executors, parallelism and tracing overhead
    let threads = wl_def.threads as f64;
    for algo in ALGOS {
        let a = algo.name();
        let (partition_io, probe_io) = checker.partition_and_probe_io(algo);
        m.push(
            format!("{a}.partition_io_pages"),
            partition_io as f64,
            "pages",
        );
        m.push(format!("{a}.probe_io_pages"), probe_io as f64, "pages");
        m.push(
            format!("{a}.partition_ms"),
            med(algo, &|s| s.partition_ms),
            "ms",
        );
        m.push(format!("{a}.spill_ms"), med(algo, &|s| s.spill_ms), "ms");
        m.push(format!("{a}.build_ms"), med(algo, &|s| s.build_ms), "ms");
        m.push(format!("{a}.probe_ms"), med(algo, &|s| s.probe_ms), "ms");
        let pool_peak = med(algo, &|s| s.pool_peak_pages as f64);
        m.push(format!("{a}.pool_peak_pages"), pool_peak, "pages");
        m.push(
            format!("{a}.pool_use"),
            pool_peak / spec.buffer_pages as f64,
            "ratio",
        );
        let busy = med(algo, &|s| s.busy_ms);
        let wall = med(algo, &|s| s.total_ms);
        m.push(format!("{a}.worker_busy_ms"), busy, "ms");
        m.push(format!("{a}.worker_idle_ms"), threads * wall - busy, "ms");
        m.push(
            format!("{a}.par_efficiency"),
            busy / (threads * wall),
            "ratio",
        );
        let untraced_p50 = median(&untraced[algo as usize]);
        m.push(format!("{a}.traced_join_ms_p50"), wall, "ms");
        m.push(format!("{a}.trace_overhead_ms"), wall - untraced_p50, "ms");
    }
    let nocap_rest = med(Algo::Nocap, &|s| s.rest_partitions as f64);
    let nocap_spilled = med(Algo::Nocap, &|s| s.spilled_rest_partitions as f64);
    m.push(
        "nocap.spilled_rest_share",
        if nocap_rest > 0.0 {
            nocap_spilled / nocap_rest
        } else {
            0.0
        },
        "ratio",
    );

    // device
    let d = &rec.device;
    let joins = d.joins.max(1) as f64;
    m.push("device.read_ops", d.read_ops as f64 / joins, "count");
    m.push("device.write_ops", d.write_ops as f64 / joins, "count");
    m.push(
        "device.read_us_mean",
        d.read_ns as f64 / 1e3 / d.read_ops.max(1) as f64,
        "us",
    );
    m.push(
        "device.write_us_mean",
        d.write_ns as f64 / 1e3 / d.write_ops.max(1) as f64,
        "us",
    );
    m.push(
        "device.readahead_hit_rate",
        d.readahead_hits as f64 / d.seq_reads.max(1) as f64,
        "ratio",
    );
    m.push(
        "device.pages_per_pwrite",
        d.physical_write_pages as f64 / d.physical_writes.max(1) as f64,
        "pages",
    );
    m.push(
        "device.write_amp",
        d.physical_write_pages as f64 / joins / base_pages,
        "ratio",
    );
    Ok(m)
}
