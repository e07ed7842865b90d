//! Link-by-rank union-find — the structure inside CCLLRPC (Wu, Otoo &
//! Suzuki, the paper's ref \[36\]): array-based, union by rank, with path
//! compression. Gupta et al. cite the Patwary–Blair–Manne finding that
//! this is *not* the best choice, which motivates RemSP; we implement it
//! faithfully as the baseline.
//!
//! Rank trees may be rooted at a non-minimal element, so the analysis
//! phase uses [`crate::flatten::flatten_generic`] (the paper's Algorithm 3
//! requires the monotone invariant that rank linking does not maintain).

use crate::flatten::flatten_generic;
use crate::{EquivalenceStore, UnionFind};

/// Array-based union-find with union-by-rank and full path compression.
#[derive(Debug, Clone, Default)]
pub struct RankUF {
    p: Vec<u32>,
    rank: Vec<u8>,
    flattened: bool,
}

impl RankUF {
    /// Read-only view of the parent array.
    pub fn parents(&self) -> &[u32] {
        &self.p
    }

    #[inline]
    fn find_root(&self, mut x: usize) -> usize {
        while self.p[x] as usize != x {
            x = self.p[x] as usize;
        }
        x
    }
}

impl EquivalenceStore for RankUF {
    #[inline]
    fn new_label(&mut self, label: u32) {
        debug_assert_eq!(label as usize, self.p.len(), "dense registration");
        self.p.push(label);
        self.rank.push(0);
    }

    #[inline]
    fn merge(&mut self, x: u32, y: u32) -> u32 {
        self.union(x, y)
    }
}

impl UnionFind for RankUF {
    fn new() -> Self {
        Self::default()
    }

    fn with_capacity(cap: usize) -> Self {
        RankUF {
            p: Vec::with_capacity(cap),
            rank: Vec::with_capacity(cap),
            flattened: false,
        }
    }

    #[inline]
    fn make_set(&mut self) -> u32 {
        let id = self.p.len() as u32;
        self.p.push(id);
        self.rank.push(0);
        id
    }

    /// Two-pass full path compression (the CCLLRPC choice): find the
    /// root, then point every node on the path at it.
    #[inline]
    fn find(&mut self, x: u32) -> u32 {
        let mut x = x as usize;
        let root = self.find_root(x);
        while self.p[x] as usize != root {
            let next = self.p[x] as usize;
            self.p[x] = root as u32;
            x = next;
        }
        root as u32
    }

    #[inline]
    fn union(&mut self, x: u32, y: u32) -> u32 {
        debug_assert!(!self.flattened, "union after flatten");
        let rx = self.find(x) as usize;
        let ry = self.find(y) as usize;
        if rx == ry {
            return rx as u32;
        }
        let (winner, loser) = if self.rank[rx] >= self.rank[ry] {
            (rx, ry)
        } else {
            (ry, rx)
        };
        self.p[loser] = winner as u32;
        if self.rank[winner] == self.rank[loser] {
            self.rank[winner] += 1;
        }
        winner as u32
    }

    fn len(&self) -> usize {
        self.p.len()
    }

    fn flatten(&mut self) -> u32 {
        assert!(!self.flattened, "flatten called twice");
        self.flattened = true;
        flatten_generic(&mut self.p)
    }

    #[inline]
    fn resolve(&self, x: u32) -> u32 {
        debug_assert!(self.flattened, "resolve before flatten");
        self.p[x as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_by_rank_keeps_trees_shallow() {
        let mut uf = RankUF::new();
        for _ in 0..8 {
            uf.make_set();
        }
        // balanced merges: rank should never exceed log2(n)
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(4, 5);
        uf.union(6, 7);
        uf.union(0, 2);
        uf.union(4, 6);
        uf.union(0, 4);
        assert_eq!(uf.count_sets(), 1);
        assert!(uf.rank.iter().all(|&r| r <= 3));
    }

    #[test]
    fn full_compression_flattens_paths() {
        let mut uf = RankUF::new();
        for _ in 0..5 {
            uf.make_set();
        }
        uf.union(0, 1);
        uf.union(0, 2);
        uf.union(0, 3);
        uf.union(0, 4);
        let root = uf.find(4);
        for i in 0..5 {
            assert_eq!(uf.find(i), root);
            assert_eq!(uf.p[i as usize], root);
        }
    }

    #[test]
    fn flatten_orders_by_smallest_member() {
        let mut uf = RankUF::new();
        for _ in 0..6 {
            uf.make_set();
        }
        // Arrange a set whose rank-root is NOT its minimum: union(5, 4)
        // then union(4, 1): root stays 5 (rank 1) even though min is 1.
        uf.union(5, 4);
        uf.union(4, 1);
        uf.union(2, 3);
        let k = uf.flatten();
        assert_eq!(k, 2);
        // {1,4,5} has the smaller minimum -> final label 1; {2,3} -> 2.
        assert_eq!(uf.resolve(1), 1);
        assert_eq!(uf.resolve(4), 1);
        assert_eq!(uf.resolve(5), 1);
        assert_eq!(uf.resolve(2), 2);
        assert_eq!(uf.resolve(3), 2);
        assert_eq!(uf.resolve(0), 0);
    }

    #[test]
    fn merge_is_union() {
        let mut uf = RankUF::new();
        for i in 0..3u32 {
            uf.new_label(i);
        }
        uf.merge(1, 2);
        assert!(uf.same(1, 2));
    }
}
