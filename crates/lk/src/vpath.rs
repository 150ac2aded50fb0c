//! The Hamiltonian path an LK chain works on, kept *virtually*: a short
//! list of runs of an untouched base tour.
//!
//! Removing the edge `(t1, last)` from a tour leaves the path
//! `t1 … last`. Number its cities by walking distance from `t1`
//! (`seq(x) = ±(index(x) − index(t1)) mod n`, the sign being the side
//! of `t1` the path leaves on): the path starts as the single run
//! `0 ..= n−1`. An LK step `(c, v = succ(c))` turns `t1 … c v … last`
//! into `t1 … c last … v`, i.e. it splits the run after `c` and reverses
//! the *list of runs* behind the split, toggling each run's direction —
//! O(depth) work on ≤ depth + 1 runs, and not one city of the base tour
//! moves. Undoing is a copy: [`VPath::mark`] saves the runs, and
//! [`VPath::rewind`] puts them back however many steps were taken since.
//! (Karapetyan & Gutin, arXiv 1003.5330, state LK in exactly these
//! terms: operations on a path, independent of the tour structure.)

use tsp_core::TourOps;

/// A maximal stretch of the base path, `lo ..= hi` in sequence numbers,
/// traversed `hi → lo` when `rev`. The end cities are cached so that
/// crossing from one run into the next needs no inverse of `seq`.
#[derive(Debug, Clone, Copy)]
struct Run {
    lo: u32,
    hi: u32,
    lo_city: u32,
    hi_city: u32,
    rev: bool,
}

impl Run {
    /// The city this run is entered at.
    #[inline]
    fn first_city(&self) -> usize {
        (if self.rev { self.hi_city } else { self.lo_city }) as usize
    }
}

/// What [`VPath::succ`] found: the path successor of a city plus where
/// the city sits, which is all [`VPath::step`] needs to split there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Succ {
    /// The path successor (the neighbour on the `last` side).
    pub city: usize,
    /// Whether the successor lies across a run boundary, in the next run;
    /// otherwise it is the queried city's neighbour on the base tour.
    pub across: bool,
    /// Index of the run holding the queried city.
    run: u32,
    /// Sequence number of the queried city.
    seq: u32,
}

/// The path `t1 … last` as runs of a base tour that is only read.
///
/// Empty until [`VPath::reset`]. Every method takes the base tour it was
/// reset on; the tour must not be flipped while the path is in use (the
/// LK search holds it by shared reference, so it cannot be).
#[derive(Debug, Default)]
pub struct VPath {
    runs: Vec<Run>,
    /// The runs as they were at each mark still held, oldest first.
    saved: Vec<Run>,
    n: u32,
    /// `index(t1)`.
    origin: u32,
    /// Whether sequence numbers grow along the base tour's `next`.
    along_next: bool,
}

impl VPath {
    /// Become the path that leaves `t1` along `next` (`along_next`) or
    /// along `prev` and ends at `t1`'s other tour neighbour, which is
    /// returned.
    pub fn reset<T: TourOps>(&mut self, tour: &T, t1: usize, along_next: bool) -> usize {
        self.n = tour.len() as u32;
        self.origin = tour.index(t1) as u32;
        self.along_next = along_next;
        let last = if along_next {
            tour.prev(t1)
        } else {
            tour.next(t1)
        };
        self.runs.clear();
        self.saved.clear();
        self.runs.push(Run {
            lo: 0,
            hi: self.n - 1,
            lo_city: t1 as u32,
            hi_city: last as u32,
            rev: false,
        });
        last
    }

    #[inline]
    fn seq<T: TourOps>(&self, tour: &T, c: usize) -> u32 {
        let i = tour.index(c) as u32;
        let d = if self.along_next {
            i + self.n - self.origin
        } else {
            self.origin + self.n - i
        };
        if d >= self.n {
            d - self.n
        } else {
            d
        }
    }

    /// The city after `c` on the path. `c` must not be the path's end.
    ///
    /// The runs are scanned from the tail: candidates lie near `last`,
    /// and the runs that recent steps cut sit at that end of the list.
    /// `lo <= seq <= hi` is one unsigned compare of the offset from `lo`.
    #[inline]
    pub fn succ<T: TourOps>(&self, tour: &T, c: usize) -> Succ {
        let seq = self.seq(tour, c);
        let r = self
            .runs
            .iter()
            .rposition(|run| seq.wrapping_sub(run.lo) <= run.hi - run.lo)
            .expect("the runs cover every sequence number");
        let run = &self.runs[r];
        let across = seq == if run.rev { run.lo } else { run.hi };
        let city = if across {
            debug_assert!(r + 1 < self.runs.len(), "the path's end has no successor");
            self.runs[r + 1].first_city()
        } else if run.rev == self.along_next {
            tour.prev(c)
        } else {
            tour.next(c)
        };
        Succ {
            city,
            across,
            run: r as u32,
            seq,
        }
    }

    /// Apply the LK step at `c`, where `s` is `succ(c)` on the current
    /// path: `… c v … last` becomes `… c last … v`.
    pub fn step(&mut self, c: usize, s: Succ) {
        let r = s.run as usize;
        let run = self.runs[r];
        let (c, v) = (c as u32, s.city as u32);
        if !s.across {
            let (head, tail) = if run.rev {
                (
                    Run {
                        lo: s.seq,
                        lo_city: c,
                        ..run
                    },
                    Run {
                        hi: s.seq - 1,
                        hi_city: v,
                        ..run
                    },
                )
            } else {
                (
                    Run {
                        hi: s.seq,
                        hi_city: c,
                        ..run
                    },
                    Run {
                        lo: s.seq + 1,
                        lo_city: v,
                        ..run
                    },
                )
            };
            // The cut-off piece ends up last and reversed whatever lies
            // between: reverse the rest, then append it.
            self.runs[r] = head;
            self.reverse_tail(r + 1);
            self.runs.push(Run {
                rev: !tail.rev,
                ..tail
            });
        } else {
            self.reverse_tail(r + 1);
        }
    }

    /// Save the path as it is now and return the mark to come back to.
    /// Marks nest: [`VPath::rewind`] and [`VPath::release`] take the
    /// newest mark still held.
    pub fn mark(&mut self) -> usize {
        let mark = self.saved.len();
        self.saved.extend_from_slice(&self.runs);
        mark
    }

    /// Put the path back as it was at `mark`, undoing every step taken
    /// since, and keep the mark.
    pub fn rewind(&mut self, mark: usize) {
        self.runs.clear();
        self.runs.extend_from_slice(&self.saved[mark..]);
    }

    /// Drop `mark`; the path stays as it is.
    pub fn release(&mut self, mark: usize) {
        self.saved.truncate(mark);
    }

    /// Reverse the path behind the first `head` runs.
    #[inline]
    fn reverse_tail(&mut self, head: usize) {
        let tail = &mut self.runs[head..];
        tail.reverse();
        for run in tail {
            run.rev = !run.rev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsp_core::Tour;

    /// Walk the whole virtual path from `t1`.
    fn walk(path: &VPath, tour: &Tour, t1: usize) -> Vec<usize> {
        let mut out = vec![t1];
        for _ in 1..tour.len() {
            out.push(path.succ(tour, *out.last().unwrap()).city);
        }
        out
    }

    #[test]
    fn fresh_path_is_the_tour_cut_at_t1() {
        let tour = Tour::identity(7);
        let mut path = VPath::default();
        assert_eq!(path.reset(&tour, 3, true), 2);
        assert_eq!(walk(&path, &tour, 3), [3, 4, 5, 6, 0, 1, 2]);
        assert_eq!(path.reset(&tour, 3, false), 4);
        assert_eq!(walk(&path, &tour, 3), [3, 2, 1, 0, 6, 5, 4]);
    }

    #[test]
    fn step_reverses_the_tail_and_rewind_restores_it() {
        let tour = Tour::identity(8);
        let mut path = VPath::default();
        path.reset(&tour, 0, true);
        let outer = path.mark();
        // 0 1 2 | 3 4 5 6 7  →  0 1 2 7 6 5 4 3
        let s = path.succ(&tour, 2);
        assert!(!s.across);
        path.step(2, s);
        assert_eq!(walk(&path, &tour, 0), [0, 1, 2, 7, 6, 5, 4, 3]);
        let inner = path.mark();
        // 0 1 2 7 6 | 5 4 3  →  0 1 2 7 6 3 4 5 (splits a reversed run)
        path.step(6, path.succ(&tour, 6));
        assert_eq!(walk(&path, &tour, 0), [0, 1, 2, 7, 6, 3, 4, 5]);
        // Cut at a run boundary: no split. 0 1 2 | 7 6 3 4 5
        let s = path.succ(&tour, 2);
        assert!(s.across);
        path.step(2, s);
        assert_eq!(walk(&path, &tour, 0), [0, 1, 2, 5, 4, 3, 6, 7]);
        // Two unmarked steps undone at once, the mark kept for another try.
        path.rewind(inner);
        assert_eq!(walk(&path, &tour, 0), [0, 1, 2, 7, 6, 5, 4, 3]);
        path.step(6, path.succ(&tour, 6));
        path.rewind(inner);
        assert_eq!(walk(&path, &tour, 0), [0, 1, 2, 7, 6, 5, 4, 3]);
        path.release(inner);
        path.rewind(outer);
        assert_eq!(walk(&path, &tour, 0), [0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(path.runs.len(), 1);
        path.release(outer);
        assert!(path.saved.is_empty());
    }
}
