//! # nocap-par
//!
//! The multi-threaded partitioned-join execution engine.
//!
//! The partitioning passes over R and S are embarrassingly parallel: every
//! record is routed independently by a hash of its key. This crate provides
//! the building blocks that let an executor shard those scans across worker
//! threads **without changing the modeled I/O or violating the paper's
//! memory budget**:
//!
//! * [`pool`] — a scoped [`run_workers`] fan-out helper, the work-queue
//!   helpers [`sum_tasks_obs`] (the partition-wise probe phase) and
//!   [`ordered_tasks_obs`] (SMJ's sort chunks), and [`default_threads`]
//!   (the `NOCAP_THREADS` environment knob). All fan-outs are
//!   **fail-clean**: worker panics are caught and surfaced as
//!   `StorageError::WorkerPanicked`, and a [`cancel`] token
//!   ([`CancelToken`]) propagates the first error so siblings stop at their
//!   next task boundary instead of finishing doomed work. The `*_obs`
//!   helpers ([`run_workers_obs`], [`sum_tasks_obs`], [`ordered_tasks_obs`])
//!   record per-worker / per-task spans through `nocap-obs` (nothing with
//!   `Obs::off()`), producing the per-worker timelines of the
//!   chrome://tracing output without perturbing execution.
//! * [`shard`] — [`page_shards`] splits a relation's pages into contiguous
//!   per-worker morsels; [`SharedPartitionWriter`] / [`SharedWriterSet`]
//!   are mutex-protected spill writers that keep the one-output-buffer-page
//!   -per-partition invariant, so a partition that receives `n` records
//!   costs exactly `⌈n / b⌉` random writes no matter how many workers fed
//!   it or in which order.
//! * [`quota`] — [`even_caps`] carves a page budget into per-partition
//!   quotas (the deterministic destaging policy of NOCAP's residual
//!   partitions and of DHH's partitions).
//! * [`stage`] — [`ParallelStager`], the DHH-style residual stager both
//!   NOCAP and DHH partition R through: per-worker staging buffers, a
//!   shared atomic record count per partition, and quota-triggered
//!   destaging whose outcome depends only on each partition's total record
//!   count — never on thread interleaving — which is what makes an
//!   executor's I/O counts identical at every thread count.
//! * [`quota_stage`] — [`QuotaStager`], the single-threaded reference model
//!   of the above (columnar `RecordBatch` staging, zero-copy inserts,
//!   routing left to the caller); the tests pin [`ParallelStager`] against
//!   it.
//! * [`hybrid`] — [`run_hybrid`], the one hybrid-hash executor body NOCAP
//!   and DHH share: partition R (in-memory keys, designated partitions,
//!   quota-staged residuals), spill and build, partition and probe S, then
//!   the fanned-out pairwise probe. Each algorithm hands it a
//!   [`HybridPlan`] of its own decisions.
//!
//! The crate is deliberately generic: routing (which partition a record
//! belongs to) stays with the caller, so `nocap` (rounded-hash routing),
//! GHJ (plain hash), DHH (modulo hash over the shared quota geometry) and
//! any future operator reuse the same machinery; [`run_hybrid`] takes the
//! router as a parameter of the plan. The same worker pool and
//! page sharding also drive `nocap-stats`' sharded parallel collection
//! (`StatsCollector::collect_parallel`), whose fixed shard grid plays the
//! role the per-partition quotas play here: a decomposition fixed by the
//! data, never by the worker count, so every thread count computes the
//! same artifact.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cancel;
pub mod hybrid;
pub mod pool;
pub mod quota;
pub mod quota_stage;
pub mod shard;
pub mod stage;

pub use cancel::CancelToken;
pub use hybrid::{run_hybrid, HybridPlan};
pub use pool::{
    default_threads, ordered_tasks_obs, run_workers, run_workers_cancel, run_workers_obs,
    sum_tasks_obs,
};
pub use quota::even_caps;
pub use quota_stage::{QuotaStager, QuotaStagerBuild};
pub use shard::{page_shards, SharedPartitionWriter, SharedWriterSet};
pub use stage::{ParallelStager, StagerBuild, WorkerStage};
