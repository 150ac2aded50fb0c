//! Spatial city labels: the search's cities renumbered along a Hilbert
//! curve.
//!
//! A generator or a TSPLIB file numbers its cities in any order, so the
//! cities one LK chain touches — neighbours in the plane — sit all over
//! the tour's position array, the don't-look bits and the coordinates.
//! On a large instance the search then waits on those loads, not on its
//! arithmetic. [`Spatial`] renumbers the cities by their Hilbert index,
//! so that cities near in the plane are near in memory, and keeps both
//! permutations to map tours in and out at the engine's boundary.
//!
//! The renumbering changes no decision of the search. Every decision
//! that reads a label is still taken in the caller's labels:
//! - construction runs on the caller's instance, before any mapping;
//! - the anchor queue is filled in caller-label order
//!   ([`Optimizer::activate_all`](crate::search::Optimizer::activate_all));
//! - each candidate row keeps the caller's order, and its cached
//!   distances are read from the caller's row;
//! - kicks draw caller labels, walk the caller's rows and break the
//!   Close pool's distance ties by caller label, and only the four cut
//!   cities are mapped in.
//!
//! Everything else reads positions, lengths or equality: flips choose
//! their side by city count, the virtual path works on tour indices.

use tsp_core::{Instance, NeighborLists, Tour, TourOps};

use crate::construct::hilbert_order;

/// The instance and candidate rows in spatial labels, plus the two
/// permutations. Memory: coordinates (16 B), two labels (8 B) and an
/// id-only row (4 B per candidate) per city; the rows' distances stay in
/// the caller's lists.
pub(crate) struct Spatial {
    /// City `i` sits at the coordinates of the caller's `label[i]`.
    inst: Instance,
    /// Candidate ids in spatial labels, `k` per city, each row in the
    /// order of the caller's row.
    rows: Vec<u32>,
    k: usize,
    /// Spatial label → caller label.
    label: Vec<u32>,
    /// Caller label → spatial label.
    city: Vec<u32>,
}

impl Spatial {
    /// Renumber `inst` (geometric) along a Hilbert curve, ties by caller
    /// label, and translate `neighbors` (which must cover `inst`).
    pub(crate) fn new(inst: &Instance, neighbors: &NeighborLists) -> Spatial {
        let label = hilbert_order(inst);
        let mut city = vec![0u32; label.len()];
        for (i, &l) in label.iter().enumerate() {
            city[l as usize] = i as u32;
        }
        let points = label.iter().map(|&l| inst.point(l as usize)).collect();
        let rows = label
            .iter()
            .flat_map(|&l| neighbors.of(l as usize))
            .map(|&o| city[o as usize])
            .collect();
        Spatial {
            inst: Instance::new(inst.name(), points, inst.metric().clone()),
            rows,
            k: neighbors.k(),
            label,
            city,
        }
    }

    /// The instance in spatial labels.
    #[inline(always)]
    pub(crate) fn instance(&self) -> &Instance {
        &self.inst
    }

    /// The candidates of spatial city `c`, in spatial labels.
    #[inline(always)]
    pub(crate) fn row(&self, c: usize) -> &[u32] {
        &self.rows[c * self.k..(c + 1) * self.k]
    }

    /// The caller's label of spatial city `c`.
    #[inline(always)]
    pub(crate) fn label(&self, c: usize) -> usize {
        self.label[c] as usize
    }

    /// The spatial city of the caller's label `l`.
    #[inline(always)]
    pub(crate) fn city(&self, l: usize) -> usize {
        self.city[l] as usize
    }

    /// The visiting order of `tour` (caller labels) in spatial labels:
    /// every city keeps its position.
    pub(crate) fn order_in(&self, tour: &Tour) -> Vec<u32> {
        tour.order()
            .iter()
            .map(|&l| self.city[l as usize])
            .collect()
    }

    /// The visiting order of `tour` (spatial labels) in caller labels:
    /// every city keeps its position.
    pub(crate) fn order_out(&self, tour: &Tour) -> Vec<u32> {
        tour.order()
            .iter()
            .map(|&c| self.label[c as usize])
            .collect()
    }

    /// The tour `rep` (spatial labels) holds, in caller labels and in
    /// the canonical rotation of [`TourOps::to_order`]: from the
    /// caller's city 0 along `next`.
    pub(crate) fn tour_out<T: TourOps>(&self, rep: &T) -> Tour {
        let mut order = Vec::with_capacity(rep.len());
        let mut c = self.city(0);
        for _ in 0..rep.len() {
            order.push(self.label[c]);
            c = rep.next(c);
        }
        Tour::from_order(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};
    use tsp_core::{generate, TourRep};

    #[test]
    fn labels_are_inverse_permutations_and_rows_translate() {
        let inst = generate::uniform(500, 10_000.0, 3);
        let nl = NeighborLists::build(&inst, 8);
        let s = Spatial::new(&inst, &nl);
        for c in 0..inst.len() {
            assert_eq!(s.city(s.label(c)), c);
            assert_eq!(s.instance().point(c), inst.point(s.label(c)));
            let back: Vec<u32> = s
                .row(c)
                .iter()
                .map(|&o| s.label(o as usize) as u32)
                .collect();
            assert_eq!(back, nl.of(s.label(c)));
        }
    }

    #[test]
    fn tours_map_in_and_out_canonically() {
        let inst = generate::clustered_dimacs(300, 4);
        let nl = NeighborLists::build(&inst, 6);
        let s = Spatial::new(&inst, &nl);
        let tour = Tour::random(300, &mut SmallRng::seed_from_u64(5));
        let inside = Tour::from_order(s.order_in(&tour));
        assert_eq!(inside.length(s.instance()), tour.length(&inst));
        assert_eq!(s.order_out(&inside), tour.order());
        assert_eq!(s.tour_out(&inside), tour.to_tour());
    }

    #[test]
    fn duplicate_points_tie_by_caller_label() {
        let pts = vec![tsp_core::Point::new(1.0, 1.0); 5];
        let inst = Instance::new("dups", pts, tsp_core::Metric::Euc2d);
        let s = Spatial::new(&inst, &NeighborLists::build(&inst, 3));
        assert!((0..5).all(|c| s.label(c) == c));
    }
}
