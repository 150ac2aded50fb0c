//! Greedy edge-matching construction.
//!
//! Sorts candidate edges by length and inserts every edge that keeps
//! degrees ≤ 2 and closes no subtour — the classic "Greedy" tour of the
//! DIMACS challenge. To stay near O(n log n) we only consider each
//! city's `k` nearest neighbors as candidate edges (k = 10 suffices for
//! a valid matching on geometric data; the fragments left over are
//! joined endpoint to nearest endpoint).

use tsp_core::{Instance, NeighborLists, Tour};

/// Build a tour by greedy shortest-edge matching.
pub fn greedy_matching(inst: &Instance) -> Tour {
    let n = inst.len();
    let k = 10.min(n - 1);
    let nl = NeighborLists::build(inst, k);

    // Candidate edges, deduplicated (a < b).
    let mut edges: Vec<(i64, u32, u32)> = Vec::with_capacity(n * k / 2);
    for a in 0..n {
        for &b in nl.of(a) {
            let b = b as usize;
            if a < b {
                edges.push((inst.dist(a, b), a as u32, b as u32));
            } else if !nl.of(b).contains(&(a as u32)) {
                // Keep asymmetric pairs too (b's list may not contain a).
                edges.push((inst.dist(a, b), b as u32, a as u32));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();

    let mut degree = vec![0u8; n];
    let mut adj = vec![[u32::MAX; 2]; n];
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: usize) -> usize {
        while parent[x] as usize != x {
            let p = parent[x] as usize;
            parent[x] = parent[p];
            x = parent[x] as usize;
        }
        x
    }
    let mut added = 0usize;
    let push = |a: usize, b: usize, degree: &mut Vec<u8>, adj: &mut Vec<[u32; 2]>| {
        adj[a][degree[a] as usize] = b as u32;
        adj[b][degree[b] as usize] = a as u32;
        degree[a] += 1;
        degree[b] += 1;
    };

    for &(_, a, b) in &edges {
        if added == n - 1 {
            break;
        }
        let (a, b) = (a as usize, b as usize);
        if degree[a] >= 2 || degree[b] >= 2 {
            continue;
        }
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra == rb {
            continue;
        }
        parent[ra] = rb as u32;
        push(a, b, &mut degree, &mut adj);
        added += 1;
    }

    // Stitch remaining fragments greedily by nearest endpoints.
    while added < n - 1 {
        let v = (0..n).find(|&c| degree[c] < 2).expect("endpoint exists");
        let rv = find(&mut parent, v);
        let mut best = usize::MAX;
        let mut best_d = i64::MAX;
        for (c, &deg_c) in degree.iter().enumerate() {
            if c != v && deg_c < 2 && find(&mut parent, c) != rv {
                let d = inst.dist(v, c);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
        }
        let rb = find(&mut parent, best);
        parent[rv] = rb as u32;
        push(v, best, &mut degree, &mut adj);
        added += 1;
    }

    // Walk the path.
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
    Tour::from_order(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::generate;

    #[test]
    fn valid_on_various_sizes() {
        for n in [12, 80, 250] {
            let inst = generate::uniform(n, 10_000.0, n as u64 + 1);
            let t = greedy_matching(&inst);
            assert!(t.is_valid(), "n={n}");
        }
    }

    #[test]
    fn good_quality_on_uniform_data() {
        // Greedy is typically within ~15-25% of optimal; random is ~O(sqrt n)
        // times worse. Just require a healthy margin.
        let inst = generate::uniform(400, 10_000.0, 3);
        let g = greedy_matching(&inst).length(&inst);
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(4);
        let r = Tour::random(400, &mut rng).length(&inst);
        assert!((g as f64) < 0.4 * r as f64, "greedy {g} vs random {r}");
    }

    #[test]
    fn valid_on_clustered() {
        let inst = generate::clustered_dimacs(120, 7);
        assert!(greedy_matching(&inst).is_valid());
    }
}
