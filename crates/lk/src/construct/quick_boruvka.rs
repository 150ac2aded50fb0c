//! Quick-Borůvka tour construction (Applegate, Cook & Rohe).
//!
//! As described in the paper (§2.1): vertices are processed in
//! coordinate order; each city that does not yet have two adjacent tour
//! edges selects the minimum-weight incident edge that neither closes a
//! subtour nor touches a city that already has two edges. The algorithm
//! iterates (at most twice in the original; we iterate until no city is
//! eligible) and finally stitches the remaining path fragments into a
//! Hamiltonian cycle.

use tsp_core::kdtree::KdTree;
use tsp_core::{Instance, Tour};

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

/// Build a tour with Quick-Borůvka.
///
/// # Panics
///
/// Panics if the instance is not geometric (sorting needs coordinates).
pub fn quick_boruvka(inst: &Instance) -> Tour {
    assert!(
        inst.metric().is_geometric(),
        "Quick-Borůvka sorts by coordinates"
    );
    let n = inst.len();
    let tree = KdTree::build(inst);
    let mut degree = vec![0u8; n];
    // adj[c] = up to two tour neighbors of c.
    let mut adj = vec![[u32::MAX; 2]; n];
    let mut uf = UnionFind::new(n);
    let mut edges = 0usize;

    // Process cities sorted by (x, y) as the paper describes.
    let mut by_coord: Vec<u32> = (0..n as u32).collect();
    by_coord.sort_by(|&a, &b| {
        let (pa, pb) = (inst.point(a as usize), inst.point(b as usize));
        pa.x.partial_cmp(&pb.x)
            .unwrap()
            .then(pa.y.partial_cmp(&pb.y).unwrap())
            .then(a.cmp(&b))
    });

    let add_edge =
        |a: usize, b: usize, degree: &mut Vec<u8>, adj: &mut Vec<[u32; 2]>, uf: &mut UnionFind| {
            adj[a][degree[a] as usize] = b as u32;
            adj[b][degree[b] as usize] = a as u32;
            degree[a] += 1;
            degree[b] += 1;
            uf.union(a, b);
        };

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
            let pick = tree.nearest_filtered(inst.point(v), |c| {
                c == v || degree[c] >= 2 || uf.find(c) == root_v
            });
            if let Some(w) = pick {
                add_edge(v, w, &mut degree, &mut adj, &mut uf);
                edges += 1;
                progress = true;
            }
        }
    }

    // Stitch remaining fragments: connect endpoints (degree < 2) of
    // distinct components nearest-first until one Hamiltonian path
    // remains, then close the cycle implicitly by the walk below.
    while edges < n - 1 {
        // Pick any endpoint and its nearest endpoint in another component.
        let v = (0..n)
            .find(|&c| degree[c] < 2)
            .expect("endpoint must exist");
        let root_v = uf.find(v);
        let mut best = usize::MAX;
        let mut best_d = i64::MAX;
        for (c, &deg_c) in degree.iter().enumerate() {
            if c != v && deg_c < 2 && uf.find(c) != root_v {
                let d = inst.dist(v, c);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
        }
        add_edge(v, best, &mut degree, &mut adj, &mut uf);
        edges += 1;
    }

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
    Tour::from_order(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::generate;

    #[test]
    fn produces_valid_tour() {
        for n in [10, 57, 200] {
            let inst = generate::uniform(n, 10_000.0, n as u64);
            let t = quick_boruvka(&inst);
            assert!(t.is_valid(), "n={n}");
        }
    }

    #[test]
    fn quality_beats_random_substantially() {
        let inst = generate::uniform(300, 10_000.0, 9);
        let qb = quick_boruvka(&inst).length(&inst);
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
        let t = quick_boruvka(&inst);
        assert!(t.is_valid());
    }

    #[test]
    fn works_on_grid() {
        let inst = generate::grid_known_optimum(8, 8, 100.0);
        let t = quick_boruvka(&inst);
        assert!(t.is_valid());
        // QB on a grid should be within 2x of optimal.
        assert!(t.length(&inst) <= 2 * inst.known_optimum().unwrap());
    }
}
