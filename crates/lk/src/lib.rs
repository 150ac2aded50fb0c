//! # lk
//!
//! The Lin-Kernighan family of TSP heuristics, re-implemented from
//! scratch following the architecture of Applegate, Cook & Rohe's
//! `linkern` (the engine the paper wraps):
//!
//! - [`construct`] — initial tours: **Quick-Borůvka** (the paper's
//!   default, §2.1), nearest-neighbor, greedy edge matching, and a
//!   space-filling-curve order.
//! - [`two_opt`] / [`or_opt`] — classic neighborhood
//!   searches with candidate lists and don't-look bits.
//! - [`lin_kernighan`] — the variable-depth LK search, run on a
//!   [`vpath`] (the open path as runs of the untouched tour) so that
//!   only committed chains flip the tour.
//! - `spatial` — the search's cities renumbered along a Hilbert curve
//!   for large instances, every decision still taken in the caller's
//!   labels.
//! - [`kick`] — the four double-bridge kicking strategies of §2.1:
//!   Random, Geometric, Close, Random-walk.
//! - [`candidates`] — candidate-list construction for the engine:
//!   k-NN, Helsgaun α-nearness, or a hybrid of the two.
//! - [`chained`] — the Chained Lin-Kernighan driver (kick → re-optimize
//!   → accept/revert), with time / kick / target-length budgets and
//!   convergence traces.
//! - [`lkh_lite`] — an LK steered by α-nearness candidate lists
//!   (stand-in for Helsgaun's LKH in the paper's Table 2).
//! - [`multilevel`] — Walshaw-style multilevel coarsening around CLK.
//! - [`tour_merge`] — union-graph tour merging in the spirit of Cook &
//!   Seymour.
//! - [`shard`] — divide-and-optimize sharding: spatial partition,
//!   per-shard CLK, boundary stitching, and windowed seam refinement
//!   for instances beyond one node's working set.
//!
//! All randomness is injected through explicit RNGs; all searches are
//! allocation-free on their hot paths (buffers live in [`Optimizer`]).

pub mod budget;
pub mod candidates;
pub mod chained;
pub mod construct;
pub mod kick;
pub mod lin_kernighan;
pub mod lkh_lite;
pub mod multilevel;
pub mod or_opt;
pub mod search;
pub mod shard;
mod spatial;
pub mod tour_merge;
pub mod two_opt;
pub mod vpath;

pub use budget::{Budget, Stopwatch, Trace};
pub use candidates::{build_candidate_lists, CandidateKind};
pub use chained::{ChainedLk, ChainedLkConfig, ClkEngine, ClkResult, Progress};
pub use kick::{Kick, KickStrategy};
pub use lin_kernighan::LkConfig;
pub use search::Optimizer;
pub use shard::{shard_solve, ShardConfig, ShardSolveResult, ShardStats};
