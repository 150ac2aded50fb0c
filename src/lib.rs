//! # dist-clk
//!
//! A from-scratch Rust reproduction of *"A Distributed Chained
//! Lin-Kernighan Algorithm for TSP Problems"* (Fischer & Merz, IPPS 2005).
//!
//! This facade crate re-exports the public API of every workspace crate:
//!
//! - [`tsp_core`] — instances, metrics, TSPLIB IO, generators, tours,
//!   neighbor lists.
//! - [`lk`] — tour construction, 2-opt/Or-opt, Lin-Kernighan,
//!   Chained LK with the four double-bridge kicking strategies, and
//!   sharding for instances beyond one engine.
//! - [`heldkarp`] — Held-Karp 1-tree lower bound and α-nearness.
//! - [`p2p`] — the peer-to-peer substrate (hub bootstrap, hypercube
//!   topology, in-memory and TCP transports).
//! - [`distclk`] — the distributed evolutionary algorithm itself.
//! - [`bench`] — the experiment library regenerating the paper's tables
//!   and figures, with the Table 2 comparison baselines (LKH-lite,
//!   multilevel CLK, tour merging).

pub use ::bench;
pub use distclk;
pub use heldkarp;
pub use lk;
pub use p2p;
pub use tsp_core;
