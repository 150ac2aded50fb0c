//! # tsp-core
//!
//! Foundation crate for the `dist-clk` workspace: the data model for
//! symmetric Traveling Salesman Problem instances and tours, exactly as
//! needed by the Chained Lin-Kernighan family of heuristics and by the
//! distributed algorithm of Fischer & Merz (IPPS 2005).
//!
//! ## Contents
//!
//! - [`metric`] — TSPLIB edge-weight functions (`EUC_2D`, `CEIL_2D`,
//!   `ATT`, `GEO`, explicit matrices). All distances are integral
//!   (`i64`), following TSPLIB's rounding rules, so tour lengths are
//!   exact and portable across platforms.
//! - [`instance`] — [`Instance`]: a named set of cities plus a metric.
//! - [`tour`] — [`Tour`]: an array-based cyclic permutation with a
//!   position index, supporting the O(1) queries and segment operations
//!   local search needs, plus the double-bridge move.
//! - [`twolevel`] — [`TwoLevelList`]: the two-level doubly-linked tour
//!   with O(√n) flips, and [`tourops`] — the [`TourOps`]/[`TourRep`]
//!   traits that let local search run on either representation.
//! - [`neighbors`] — k-nearest-neighbor candidate lists with cached
//!   candidate distances.
//! - [`fan_out`](mod@fan_out) — the one primitive that spreads work
//!   over cores (k-NN builds, shard engines); nested calls run inline.
//! - [`kdtree`] — the spatial index used to build candidate lists and
//!   to answer nearest-neighbor queries during tour construction.
//! - [`tsplib`] — a parser and writer for the TSPLIB file format, so
//!   real benchmark instances (fl1577, pr2392, …) drop in when available.
//! - [`generate`] — deterministic synthetic instance generators
//!   mirroring the structure of the paper's testbed (uniform `E`-style,
//!   clustered `C`-style, drill-plate `fl`-style, road-network-like, and
//!   rectangular grids with provably known optima).
//!
//! ## Example
//!
//! ```
//! use tsp_core::{generate, Tour};
//!
//! let inst = generate::uniform(100, 1_000_000.0, 42);
//! let tour = Tour::identity(inst.len());
//! assert_eq!(tour.len(), 100);
//! assert!(tour.is_valid());
//! let total = tour.length(&inst);
//! assert!(total > 0);
//! ```

pub mod fan_out;
pub mod generate;
pub mod instance;
pub mod kdtree;
pub mod metric;
pub mod neighbors;
pub mod partition;
pub mod tour;
pub mod tourops;
pub mod tsplib;
pub mod twolevel;

pub use fan_out::fan_out;
pub use instance::{Instance, Point};
pub use metric::Metric;
pub use neighbors::NeighborLists;
pub use partition::{Partition, PartitionNode, SubInstance};
pub use tour::Tour;
pub use tourops::{TourOps, TourRep};
pub use twolevel::TwoLevelList;

/// Crate-wide error type.
#[derive(Debug)]
pub enum Error {
    /// I/O failure while reading or writing a TSPLIB file.
    Io(std::io::Error),
    /// The TSPLIB input violated the format (message, line number if known).
    Parse(String, Option<usize>),
    /// The request was structurally invalid (e.g. a tour over the wrong
    /// number of cities).
    Invalid(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Parse(msg, Some(line)) => write!(f, "parse error at line {line}: {msg}"),
            Error::Parse(msg, None) => write!(f, "parse error: {msg}"),
            Error::Invalid(msg) => write!(f, "invalid request: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;
