//! # heldkarp
//!
//! Held-Karp 1-tree lower bound for symmetric TSP instances, plus the
//! α-nearness candidate lists derived from it (Helsgaun's LKH uses these
//! to steer its 5-opt search; the CLK engine's α/hybrid candidates and
//! the `bench` crate's LKH-lite baseline do the same).
//!
//! The paper reports tour qualities relative to the optimum *or the
//! Held-Karp lower bound* for instances whose optimum is unknown
//! (fi10639, pla33810, pla85900) — this crate provides that reference
//! value for our synthetic stand-ins.
//!
//! ## Pieces
//!
//! - [`mst`] — Prim's algorithm under π-shifted costs: the array
//!   version over the complete graph (O(n²)) and a heap version over a
//!   sparse k-nearest-neighbour graph (O(n·K·log n)), whose heap holds
//!   each fringe city once and lowers its key in place.
//! - [`onetree`] — minimum 1-trees: an MST over `V \ {special}` plus the
//!   two cheapest edges incident to the special node.
//! - [`ascent`] — subgradient ascent on the Lagrangian dual: maximizes
//!   `w(π) = len(T_π) − 2·Σπ` over node potentials π. One loop, two
//!   instances: [`held_karp_bound`] builds every 1-tree on the complete
//!   graph (the reference bound), [`sparse_ascent`] only the first and
//!   the last — the last so that its `w(π)` is still a valid bound — and
//!   the iterations between them on the sparse graph.
//! - [`alpha`] — α-nearness: `α(i,j)` is the 1-tree length increase when
//!   edge `(i,j)` is forced into the tree; candidate lists sorted by α
//!   are markedly better than plain nearest neighbors for LK moves.
//!   [`alpha_candidate_lists`] is the one builder, on the sparse ascent.
//!   The α rows run in blocks through `tsp_core::fan_out`, so the lists
//!   are the same at any thread count.

pub mod alpha;
pub mod ascent;
pub mod mst;
pub mod onetree;

pub use alpha::{alpha_candidate_lists, alpha_lists_from_tree};
pub use ascent::{held_karp_bound, sparse_ascent, AscentConfig, AscentResult};
pub use onetree::OneTree;
