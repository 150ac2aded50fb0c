//! The Table 2 comparators: stand-ins for the solver families the
//! paper compares DistCLK against (§4.3). They are yardsticks for
//! [`crate::experiments::table2`], not engines the system runs, and use
//! only the public `lk`, `heldkarp` and `tsp_core` API.
//!
//! - [`lkh_lite`] — an LK steered by α-nearness candidate lists
//!   (stand-in for Helsgaun's LKH).
//! - [`multilevel`] — Walshaw-style multilevel coarsening around CLK.
//! - [`tour_merge`] — union-graph tour merging in the spirit of Cook &
//!   Seymour.

pub mod lkh_lite;
pub mod multilevel;
pub mod tour_merge;
