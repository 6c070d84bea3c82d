//! # nocap
//!
//! The paper's contribution: **OCAP** (Optimal Correlation-Aware
//! Partitioning, §3) and **NOCAP** (Near-Optimal Correlation-Aware
//! Partitioning, §4) for primary-key / foreign-key storage-based joins.
//!
//! * [`ocap`](mod@ocap) — the theoretically I/O-optimal partitioner. Given the full
//!   correlation table it finds, via dynamic programming over the canonical
//!   partitionings of Theorem 3.1, which keys to cache in memory and how to
//!   cut the remaining keys into partitions so that the per-partition
//!   nested-block joins cost the fewest I/Os. OCAP is an *offline analysis
//!   tool* (its inputs don't fit the memory budget); the experiments use it
//!   as the lower bound drawn in Figure 8.
//! * [`planner`] — the NOCAP plan search (Algorithm 10): using only the
//!   top-k most-common-value statistics, split the keys into an in-memory
//!   set `K_mem`, designated disk partitions `K_disk` and the residual
//!   `K_rest`, subject to the strict §4.1 memory breakdown.
//! * [`rounded_hash`] — the rounded hash function of §4.2 that keeps most
//!   residual partitions an exact multiple of the NBJ chunk size.
//! * [`exec`] — the NOCAP operator (Algorithms 8 and 9): its configuration,
//!   the residual-partition geometry and graceful degradation.
//! * [`exec_par`] — the entry points ([`NocapJoin::run_parallel_obs`] and
//!   friends): run a [`NocapPlan`] against real
//!   [`Relation`](nocap_storage::Relation)s on a
//!   [`BlockDevice`](nocap_storage::BlockDevice) through the hybrid-hash
//!   body NOCAP shares with DHH ([`nocap_par::run_hybrid`]: sharded
//!   partitioning scans and a fanned-out probe phase on the `nocap-par`
//!   worker pool), producing a measured [`JoinRunReport`](nocap_model::JoinRunReport)
//!   whose output and modeled I/O are the same for every thread count
//!   (`threads = 1` is the sequential run).
//! * [`plan`] — the [`NocapPlan`] data structure shared by the planner and
//!   the executor.
//!
//! ```
//! use nocap::{NocapConfig, NocapJoin};
//! use nocap_model::{CorrelationTable, JoinSpec};
//! use nocap_obs::Obs;
//! use nocap_storage::{Record, RecordLayout, Relation, SimDevice};
//!
//! // A tiny skewed workload: key 0 matches 50 S records, the others 1 each.
//! let device = SimDevice::new_ref();
//! let spec = JoinSpec::paper_synthetic(64, 32);
//! let r = Relation::bulk_load(
//!     device.clone(),
//!     RecordLayout::new(56),
//!     spec.page_size,
//!     (0..100u64).map(|k| Record::with_fill(k, 56, 1)),
//! )
//! .unwrap();
//! let s_keys = (0..100u64).flat_map(|k| {
//!     std::iter::repeat(k).take(if k == 0 { 50 } else { 1 })
//! });
//! let s = Relation::bulk_load(
//!     device.clone(),
//!     RecordLayout::new(56),
//!     spec.page_size,
//!     s_keys.map(|k| Record::with_fill(k, 56, 2)),
//! )
//! .unwrap();
//!
//! // MCV statistics (here: exact counts for the top 10 keys).
//! let ct = CorrelationTable::from_counts(
//!     (0..100u64).map(|k| if k == 0 { 50 } else { 1 }),
//! );
//! let mcvs = ct.top_k(10);
//!
//! device.reset_stats();
//! let join = NocapJoin::new(spec, NocapConfig::default());
//! let report = join.run_parallel_obs(&r, &s, &mcvs, 1, &Obs::off()).unwrap();
//! assert_eq!(report.output_records, 149);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exec;
pub mod exec_par;
pub mod ocap;
pub mod plan;
pub mod planner;
pub mod rounded_hash;

pub use exec::{NocapConfig, NocapJoin, RestGeometry};
pub use ocap::dp::{partition_dp, DpOptions, DpSolution};
pub use ocap::{ocap, OcapConfig, OcapSolution};
pub use plan::NocapPlan;
pub use planner::{plan_nocap, PlannerConfig};
pub use rounded_hash::RoundedHash;
