//! # nocap-joins
//!
//! The baseline storage-based join algorithms the paper compares NOCAP
//! against (§2, §5):
//!
//! * [`naive`] — an in-memory nested-loop reference join used only as a test
//!   oracle.
//! * [`nbj`] — Nested Block Join: stream the inner relation through memory
//!   in chunks, scanning the outer relation once per chunk.
//! * [`ghj`] — Grace Hash Join: uniformly hash-partition both relations,
//!   recursing when a partition still does not fit, then join partition
//!   pairs (falling back to chunk-wise NBJ exactly like the paper's "GHJ
//!   augmented to fall back to NBJ").
//! * [`smj`] — Sort-Merge Join on the external sorter, fusing the final
//!   merge pass with the join.
//! * [`dhh`] — Dynamic Hybrid Hash join (Algorithms 1 and 2): partitions are
//!   staged in memory and destaged on demand (POB bits), with the
//!   PostgreSQL-style skew optimization controlled by two fixed thresholds
//!   (2 % of memory for the skew hash table, triggered when the MCV mass
//!   exceeds 2 % of S). Histojoin is its [`DhhConfig::histojoin`] preset:
//!   the same skew optimization with a zero trigger threshold, as
//!   configured in the paper's evaluation.
//!
//! Every executor takes a [`JoinSpec`](nocap_model::JoinSpec), draws its
//! memory from a [`BufferPool`](nocap_storage::BufferPool) capped at the
//! spec's budget and returns a [`JoinRunReport`](nocap_model::JoinRunReport)
//! with the measured I/O trace. Each has exactly one executor body, taking
//! the worker-thread count (where it parallelizes) and an observability
//! handle; `threads = 1` is the sequential run. DHH's body is the
//! hybrid-hash procedure it shares with NOCAP,
//! [`nocap_par::run_hybrid`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dhh;
pub mod ghj;
pub mod naive;
pub mod nbj;
pub mod smj;

pub mod testutil;

pub use dhh::{DhhConfig, DhhJoin};
pub use ghj::GraceHashJoin;
pub use naive::naive_join_count;
pub use nbj::NestedBlockJoin;
pub use smj::{merge_join_runs, SortMergeJoin, SMJ_MIN_BUDGET_PAGES};
