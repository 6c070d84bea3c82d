//! The three join pipelines, timed from outside at each layer boundary.
//!
//! * NOCAP: sharded stats collection → `plan_nocap` → parallel execution.
//! * DHH: the same stats collection → its sketch-driven parallel executor.
//! * GHJ: the parallel executor alone (it takes no statistics).

use std::time::Instant;

use nocap::{plan_nocap, NocapConfig, NocapJoin, NocapPlan};
use nocap_joins::{DhhJoin, GraceHashJoin};
use nocap_model::{JoinRunReport, JoinSpec};
use nocap_obs::Obs;
use nocap_stats::{StatsCollector, StatsSummary};
use nocap_storage::{BufferPool, IoStats};
use nocap_workload::GeneratedWorkload;

/// Pages of sketch memory per statistics shard (the fixed shard grid
/// charges `STATS_SHARDS` times this against the buffer budget, so it must
/// fit the tightest workload's budget).
pub const STATS_PAGES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    Nocap,
    Dhh,
    Ghj,
}

pub const ALGOS: [Algo; 3] = [Algo::Nocap, Algo::Dhh, Algo::Ghj];

impl Algo {
    /// The metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Nocap => "nocap",
            Algo::Dhh => "dhh",
            Algo::Ghj => "ghj",
        }
    }
}

/// Clock readings at the layer boundaries of one join. `stats_end` and
/// `plan_end` are `None` for a pipeline without that layer.
pub struct Stamps {
    pub start: Instant,
    pub stats_end: Option<Instant>,
    pub plan_end: Option<Instant>,
    pub end: Instant,
}

impl Stamps {
    pub fn total_ms(&self) -> f64 {
        ms(self.start, self.end)
    }
}

pub fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// What one join produced.
pub struct Joined {
    pub report: JoinRunReport,
    pub stamps: Stamps,
    /// Device I/O of the statistics pass (zero for GHJ).
    pub stats_io: IoStats,
    pub summary: Option<StatsSummary>,
    pub plan: Option<NocapPlan>,
}

/// The three executors of one workload, built once.
pub struct Engines {
    spec: JoinSpec,
    threads: usize,
    nocap: NocapJoin,
    dhh: DhhJoin,
    ghj: GraceHashJoin,
}

impl Engines {
    pub fn new(spec: JoinSpec, threads: usize) -> Self {
        Engines {
            spec,
            threads,
            nocap: NocapJoin::new(spec, NocapConfig::default()),
            dhh: DhhJoin::with_defaults(spec),
            ghj: GraceHashJoin::new(spec),
        }
    }

    /// Runs one join of `algo` over the workload, from statistics through
    /// output. With a recording `obs` the device events of the stats pass
    /// and of the executor land in the report's trace.
    pub fn run(
        &self,
        algo: Algo,
        wl: &GeneratedWorkload,
        obs: &Obs,
    ) -> nocap_storage::Result<Joined> {
        let start = Instant::now();
        if algo == Algo::Ghj {
            let report = self.ghj.run_parallel_obs(&wl.r, &wl.s, self.threads, obs)?;
            let end = Instant::now();
            return Ok(Joined {
                report,
                stamps: Stamps {
                    start,
                    stats_end: None,
                    plan_end: None,
                    end,
                },
                stats_io: IoStats::new(),
                summary: None,
                plan: None,
            });
        }

        let device = wl.s.device();
        let _io_trace = obs.attach_io(device);
        let before = device.stats();
        let pool = BufferPool::new(self.spec.buffer_pages);
        let summary = StatsCollector::collect_parallel_with_budget_obs(
            &pool,
            STATS_PAGES,
            self.spec.page_size,
            &wl.s,
            self.threads,
            obs,
        )?;
        drop(pool);
        let stats_io = device.stats().since(&before);
        let stats_end = Instant::now();

        let (report, plan, plan_end) = match algo {
            Algo::Nocap => {
                let plan = plan_nocap(
                    &summary.planner_mcvs(),
                    wl.r.num_records(),
                    summary.stream_len(),
                    &self.spec,
                    &self.nocap.config().planner,
                );
                let plan_end = Instant::now();
                let report = self.nocap.run_parallel_with_plan_obs(
                    &wl.r,
                    &wl.s,
                    &plan,
                    self.threads,
                    obs,
                )?;
                (report, Some(plan), Some(plan_end))
            }
            Algo::Dhh => {
                let report = self.dhh.run_parallel_with_collected_stats_obs(
                    &wl.r,
                    &wl.s,
                    &summary,
                    self.threads,
                    obs,
                )?;
                (report, None, None)
            }
            Algo::Ghj => unreachable!("GHJ returned before the stats pass"),
        };
        let end = Instant::now();
        Ok(Joined {
            report,
            stamps: Stamps {
                start,
                stats_end: Some(stats_end),
                plan_end,
                end,
            },
            stats_io,
            summary: Some(summary),
            plan,
        })
    }
}
