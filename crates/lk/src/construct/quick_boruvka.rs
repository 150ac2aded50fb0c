//! Quick-Borůvka tour construction (Applegate, Cook & Rohe).
//!
//! As described in the paper (§2.1): vertices are processed in
//! coordinate order; each city that does not yet have two adjacent tour
//! edges selects the minimum-weight incident edge that neither closes a
//! subtour nor touches a city that already has two edges. The algorithm
//! iterates (at most twice in the original; we iterate until no city is
//! eligible), which always ends on one Hamiltonian path.
//!
//! "Nearest eligible city to `v`" is answered from `v`'s candidate row
//! when the row proves the answer, and by a k-d tree search otherwise;
//! both give the city the search alone would, so the tour does not
//! depend on whether rows were given.

use tsp_core::kdtree::KdTree;
use tsp_core::{Instance, NeighborLists, Tour};

use super::Queries;

/// Union-find with path halving.
struct UnionFind(Vec<u32>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n as u32).collect())
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] as usize != x {
            let p = self.0[x] as usize;
            self.0[x] = self.0[p];
            x = self.0[x] as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.0[ra] = rb as u32;
    }
}

/// Build a tour with Quick-Borůvka. `rows`, when given, must cover
/// `inst`; only rows that are [`NeighborLists::is_nearest`] are read.
/// Returns the tour and where its nearest-city queries were answered.
///
/// # Panics
///
/// Panics if the instance is not geometric (sorting needs coordinates).
pub fn quick_boruvka(inst: &Instance, rows: Option<&NeighborLists>) -> (Tour, Queries) {
    assert!(
        inst.metric().is_geometric(),
        "Quick-Borůvka sorts by coordinates"
    );
    let n = inst.len();
    let rows = rows.filter(|r| r.is_nearest());
    if let Some(r) = rows {
        assert_eq!(r.len(), n, "candidate rows must cover the instance");
    }
    let tree = KdTree::build(inst);
    let by_coord = coordinate_order(inst);

    let mut degree = vec![0u8; n];
    // adj[c] = up to two tour neighbors of c.
    let mut adj = vec![[u32::MAX; 2]; n];
    let mut uf = UnionFind::new(n);
    let mut edges = 0usize;
    let mut queries = Queries::default();

    // Main passes: stop early once n-1 edges (a Hamiltonian path) exist.
    let mut progress = true;
    while progress && edges < n - 1 {
        progress = false;
        for &v in &by_coord {
            let v = v as usize;
            if degree[v] >= 2 || edges >= n - 1 {
                continue;
            }
            let root_v = uf.find(v);
            let from_row = rows.and_then(|r| {
                row_answer(inst, r.of(v), v, |c| degree[c] < 2 && uf.find(c) != root_v)
            });
            let pick = match from_row {
                Some(w) => {
                    queries.row_answers += 1;
                    Some(w)
                }
                None => {
                    queries.tree_searches += 1;
                    tree.nearest_filtered(inst.point(v), |c| degree[c] >= 2 || uf.find(c) == root_v)
                }
            };
            if let Some(w) = pick {
                for (a, b) in [(v, w), (w, v)] {
                    adj[a][degree[a] as usize] = b as u32;
                    degree[a] += 1;
                }
                uf.union(v, w);
                edges += 1;
                progress = true;
            }
        }
    }
    // A pass that adds no edge found no eligible partner for any city of
    // degree < 2. Two fragments would give each other one — every
    // fragment has an end of degree < 2 (a lone city has degree 0) — so
    // only one is left: the passes end on a Hamiltonian path.
    debug_assert_eq!(edges, n - 1);

    // Walk the Hamiltonian path into a tour order. Find one endpoint.
    let start = (0..n).find(|&c| degree[c] == 1).unwrap_or(0);
    let mut order = Vec::with_capacity(n);
    let mut prev = u32::MAX;
    let mut cur = start as u32;
    loop {
        order.push(cur);
        let a = adj[cur as usize];
        let next = if a[0] != prev && a[0] != u32::MAX {
            a[0]
        } else {
            a[1]
        };
        if next == u32::MAX || order.len() == n {
            break;
        }
        prev = cur;
        cur = next;
    }
    debug_assert_eq!(order.len(), n);
    (Tour::from_order(order), queries)
}

/// The cities sorted by (x, y, id), the order the passes visit them in.
/// The coordinates are compared with `total_cmp`, which agrees with
/// `partial_cmp` once `-0.0` reads `0.0`; ids are distinct, so the order
/// is total and an unstable sort gives the one order there is.
fn coordinate_order(inst: &Instance) -> Vec<u32> {
    let key = |c: u32| {
        let p = inst.point(c as usize);
        (p.x + 0.0, p.y + 0.0)
    };
    let mut order: Vec<u32> = (0..inst.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let ((ax, ay), (bx, by)) = (key(a), key(b));
        ax.total_cmp(&bx).then(ay.total_cmp(&by)).then(a.cmp(&b))
    });
    order
}

/// The nearest city to `v` that `eligible` accepts, if `row` — `v`'s
/// row, the `k` nearest cities by (squared distance, id) — proves it:
/// the row's first eligible city must be strictly nearer than every
/// other eligible city of the row and than the row's last city, hence
/// than every city outside it. Then it is the one city a tree search
/// for the nearest eligible city returns, whatever its visiting order.
/// `None` when the row proves nothing.
fn row_answer(
    inst: &Instance,
    row: &[u32],
    v: usize,
    mut eligible: impl FnMut(usize) -> bool,
) -> Option<usize> {
    let p = inst.point(v);
    let sq = |c: u32| inst.point(c as usize).sq_dist(&p);
    let at = row.iter().position(|&c| eligible(c as usize))?;
    let d = sq(row[at]);
    if d >= sq(*row.last()?) {
        return None;
    }
    let tie = row[at + 1..]
        .iter()
        .take_while(|&&c| sq(c) == d)
        .any(|&c| eligible(c as usize));
    (!tie).then_some(row[at] as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::generate;

    #[test]
    fn produces_valid_tour() {
        for n in [10, 57, 200] {
            let inst = generate::uniform(n, 10_000.0, n as u64);
            let t = quick_boruvka(&inst, None).0;
            assert!(t.is_valid(), "n={n}");
        }
    }

    #[test]
    fn coordinate_order_is_the_stable_partial_cmp_order() {
        // Signed zeros compare equal under `partial_cmp`; the order must
        // then fall through to y and id exactly as the stable sort did.
        let xs = [0.0, -0.0, 1.5, -0.0, 0.0, -2.0, 1.5, 0.0];
        let ys = [-0.0, 0.0, 3.0, -0.0, 0.0, 1.0, -1.0, -0.0];
        let pts = xs.iter().zip(ys).map(|(&x, y)| tsp_core::Point::new(x, y));
        let inst = Instance::new("zeros", pts.collect(), tsp_core::Metric::Euc2d);
        let mut want: Vec<u32> = (0..xs.len() as u32).collect();
        want.sort_by(|&a, &b| {
            let (pa, pb) = (inst.point(a as usize), inst.point(b as usize));
            pa.x.partial_cmp(&pb.x)
                .unwrap()
                .then(pa.y.partial_cmp(&pb.y).unwrap())
                .then(a.cmp(&b))
        });
        assert_eq!(coordinate_order(&inst), want);
    }

    #[test]
    fn quality_beats_random_substantially() {
        let inst = generate::uniform(300, 10_000.0, 9);
        let qb = quick_boruvka(&inst, None).0.length(&inst);
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(1);
        let rand_len = Tour::random(300, &mut rng).length(&inst);
        assert!(
            (qb as f64) < 0.5 * rand_len as f64,
            "QB {qb} vs random {rand_len}"
        );
    }

    #[test]
    fn works_on_clustered_data() {
        let inst = generate::clustered(150, 100_000.0, 5, 1000.0, 2);
        let t = quick_boruvka(&inst, None).0;
        assert!(t.is_valid());
    }

    #[test]
    fn works_on_grid() {
        let inst = generate::grid_known_optimum(8, 8, 100.0);
        let t = quick_boruvka(&inst, None).0;
        assert!(t.is_valid());
        // QB on a grid should be within 2x of optimal.
        assert!(t.length(&inst) <= 2 * inst.known_optimum().unwrap());
    }
}
