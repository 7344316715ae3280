//! The three-dimensional dependence graph of the DSCF (Section 3, Fig. 2).
//!
//! Each point of the dependence graph (DG) is identified by a vector
//! `v = (f, a, n)`: the multiplication `X_{n,f+a} · conj(X_{n,f-a})` plus its
//! accumulation into `S_f^a`. Each accumulation edge runs from the `n-1`
//! plane to the `n` plane with displacement `(0, 0, 1)`.
//!
//! The structure of one plane (a single `n`, Fig. 1) records which spectral
//! value and which conjugated spectral value feed each multiplication — the
//! interconnection pattern that Step 1 later turns into the systolic
//! communication structure.

use crate::vecmat::IVec;
use std::fmt;

/// A node of the DSCF dependence graph: the multiply–accumulate for
/// frequency `f`, offset `a`, integration step `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DgNode {
    /// Spectral frequency index `f`.
    pub f: i32,
    /// Frequency offset `a`.
    pub a: i32,
    /// Integration (block) index `n`.
    pub n: usize,
}

impl DgNode {
    /// Creates a node.
    pub fn new(f: i32, a: i32, n: usize) -> Self {
        DgNode { f, a, n }
    }

    /// The node as the paper's column vector `(f, a, n)^T`.
    pub fn as_vector(&self) -> IVec {
        IVec::of3(self.f as i64, self.a as i64, self.n as i64)
    }

    /// Index of the spectral value `X_{n, f+a}` consumed by this node.
    pub fn direct_input_index(&self) -> i32 {
        self.f + self.a
    }

    /// Index of the conjugated spectral value `X*_{n, f-a}` consumed by
    /// this node.
    pub fn conjugate_input_index(&self) -> i32 {
        self.f - self.a
    }
}

impl fmt::Display for DgNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(f={}, a={}, n={})", self.f, self.a, self.n)
    }
}

/// A directed edge of the dependence graph, identified (as in the paper) by
/// its source node and displacement vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DgEdge {
    /// Source node.
    pub from: DgNode,
    /// Displacement `Δv` to the destination node.
    pub displacement: (i32, i32, i32),
}

impl DgEdge {
    /// The destination node of the edge.
    pub fn to(&self) -> DgNode {
        DgNode::new(
            self.from.f + self.displacement.0,
            self.from.a + self.displacement.1,
            self.from.n + self.displacement.2 as usize,
        )
    }

    /// The displacement as a vector.
    pub fn displacement_vector(&self) -> IVec {
        IVec::of3(
            self.displacement.0 as i64,
            self.displacement.1 as i64,
            self.displacement.2 as i64,
        )
    }
}

/// The dependence graph of a DSCF evaluation: all `(f, a, n)` nodes with
/// `|f|, |a| ≤ max_offset` and `n < num_blocks`, plus the accumulation edges
/// between consecutive `n` planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependenceGraph {
    max_offset: usize,
    num_blocks: usize,
}

impl DependenceGraph {
    /// Creates the DG for the given grid half-width `M` and integration
    /// length `N`.
    pub fn new(max_offset: usize, num_blocks: usize) -> Self {
        DependenceGraph {
            max_offset,
            num_blocks,
        }
    }

    /// The DG of the paper's evaluation: `M = 63` (127×127 grid).
    pub fn paper(num_blocks: usize) -> Self {
        DependenceGraph::new(63, num_blocks)
    }

    /// Grid half-width `M`.
    pub fn max_offset(&self) -> usize {
        self.max_offset
    }

    /// Number of integration planes `N`.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Number of points per axis, `P = 2M + 1`.
    pub fn grid_size(&self) -> usize {
        2 * self.max_offset + 1
    }

    /// Total number of nodes, `P² · N`.
    pub fn node_count(&self) -> usize {
        self.grid_size() * self.grid_size() * self.num_blocks
    }

    /// Total number of accumulation edges, `P² · (N - 1)`.
    pub fn edge_count(&self) -> usize {
        self.grid_size() * self.grid_size() * self.num_blocks.saturating_sub(1)
    }

    /// Returns `true` if `(f, a)` lies on the grid.
    pub fn contains(&self, f: i32, a: i32) -> bool {
        let m = self.max_offset as i32;
        (-m..=m).contains(&f) && (-m..=m).contains(&a)
    }

    /// Iterates over all nodes in `(n, f, a)` lexicographic order.
    pub fn nodes(&self) -> impl Iterator<Item = DgNode> + '_ {
        let m = self.max_offset as i32;
        (0..self.num_blocks).flat_map(move |n| {
            (-m..=m).flat_map(move |f| (-m..=m).map(move |a| DgNode::new(f, a, n)))
        })
    }

    /// Iterates over the nodes of a single integration plane `n`.
    pub fn plane(&self, n: usize) -> impl Iterator<Item = DgNode> + '_ {
        let m = self.max_offset as i32;
        (-m..=m).flat_map(move |f| (-m..=m).map(move |a| DgNode::new(f, a, n)))
    }

    /// Iterates over the accumulation edges (displacement `(0, 0, 1)`).
    pub fn edges(&self) -> impl Iterator<Item = DgEdge> + '_ {
        let blocks = self.num_blocks.saturating_sub(1);
        let m = self.max_offset as i32;
        (0..blocks).flat_map(move |n| {
            (-m..=m).flat_map(move |f| {
                (-m..=m).map(move |a| DgEdge {
                    from: DgNode::new(f, a, n),
                    displacement: (0, 0, 1),
                })
            })
        })
    }
}

/// One multiplication of Fig. 1: the `(f, a)` node of a single plane together
/// with the spectral indices of its two operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fig1Entry {
    /// Frequency `f` (the row of Fig. 1).
    pub f: i32,
    /// Offset `a` (the column of Fig. 1).
    pub a: i32,
    /// Spectral index `f + a` of the non-conjugated operand (solid line).
    pub direct_index: i32,
    /// Spectral index `f - a` of the conjugated operand (dotted line).
    pub conjugate_index: i32,
}

/// Reconstructs the structure of Fig. 1: for frequencies `f_range` and
/// offsets `a ∈ -max_a ..= max_a`, the operand indices of every
/// multiplication in one plane.
pub fn fig1_structure(f_range: std::ops::RangeInclusive<i32>, max_a: i32) -> Vec<Fig1Entry> {
    let mut entries = Vec::new();
    for f in f_range {
        for a in -max_a..=max_a {
            entries.push(Fig1Entry {
                f,
                a,
                direct_index: f + a,
                conjugate_index: f - a,
            });
        }
    }
    entries
}

/// Summary of how often each spectral value is consumed within one plane —
/// the fan-out that the shared communication structure of Section 3.2
/// exploits (all uses of `X*_v` lie on one dotted line).
pub fn operand_fanout(entries: &[Fig1Entry]) -> std::collections::BTreeMap<i32, (usize, usize)> {
    let mut map: std::collections::BTreeMap<i32, (usize, usize)> =
        std::collections::BTreeMap::new();
    for e in entries {
        map.entry(e.direct_index).or_default().0 += 1;
        map.entry(e.conjugate_index).or_default().1 += 1;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_operand_indices_follow_eq3() {
        let node = DgNode::new(2, -3, 5);
        assert_eq!(node.direct_input_index(), -1); // f + a
        assert_eq!(node.conjugate_input_index(), 5); // f - a
        assert_eq!(node.as_vector().as_slice(), &[2, -3, 5]);
        assert_eq!(node.to_string(), "(f=2, a=-3, n=5)");
    }

    #[test]
    fn edge_destination_and_displacement() {
        let e = DgEdge {
            from: DgNode::new(1, 2, 3),
            displacement: (0, 0, 1),
        };
        assert_eq!(e.to(), DgNode::new(1, 2, 4));
        assert_eq!(e.displacement_vector().as_slice(), &[0, 0, 1]);
    }

    #[test]
    fn graph_counts_match_grid() {
        let dg = DependenceGraph::new(3, 4);
        assert_eq!(dg.grid_size(), 7);
        assert_eq!(dg.node_count(), 7 * 7 * 4);
        assert_eq!(dg.edge_count(), 7 * 7 * 3);
        assert_eq!(dg.nodes().count(), dg.node_count());
        assert_eq!(dg.edges().count(), dg.edge_count());
        assert_eq!(dg.plane(0).count(), 49);
        assert_eq!(dg.max_offset(), 3);
        assert_eq!(dg.num_blocks(), 4);
    }

    #[test]
    fn paper_graph_has_127_by_127_planes() {
        let dg = DependenceGraph::paper(1);
        assert_eq!(dg.grid_size(), 127);
        assert_eq!(dg.node_count(), 16129);
        assert_eq!(dg.edge_count(), 0);
    }

    #[test]
    fn contains_checks_grid_bounds() {
        let dg = DependenceGraph::new(3, 1);
        assert!(dg.contains(3, -3));
        assert!(!dg.contains(4, 0));
        assert!(!dg.contains(0, -4));
    }

    #[test]
    fn single_block_graph_has_no_edges() {
        let dg = DependenceGraph::new(2, 1);
        assert_eq!(dg.edges().count(), 0);
    }

    #[test]
    fn all_edges_are_pure_n_displacements() {
        let dg = DependenceGraph::new(2, 3);
        for e in dg.edges() {
            assert_eq!(e.displacement, (0, 0, 1));
            assert_eq!(e.from.f, e.to().f);
            assert_eq!(e.from.a, e.to().a);
        }
    }

    #[test]
    fn fig1_structure_matches_the_paper_example() {
        // Fig. 1: f = i..i+3 with i = 0 and a = -3..3.
        let entries = fig1_structure(0..=3, 3);
        assert_eq!(entries.len(), 4 * 7);
        // The dotted line of X*_{n,3} (conjugate index 3) starts at the
        // left-most multiplication of the f=0 row (a=-3) and is also used by
        // f=1,a=-2 ... f=3,a=0 — a diagonal of constant f - a.
        let uses_of_conj3: Vec<_> = entries
            .iter()
            .filter(|e| e.conjugate_index == 3)
            .map(|e| (e.f, e.a))
            .collect();
        assert!(uses_of_conj3.contains(&(0, -3)));
        assert!(uses_of_conj3.contains(&(1, -2)));
        assert!(uses_of_conj3.contains(&(2, -1)));
        assert!(uses_of_conj3.contains(&(3, 0)));
        assert_eq!(uses_of_conj3.len(), 4);
        // Solid lines have constant f + a.
        let uses_of_direct3: Vec<_> = entries
            .iter()
            .filter(|e| e.direct_index == 3)
            .map(|e| (e.f, e.a))
            .collect();
        assert!(uses_of_direct3.contains(&(0, 3)));
        assert!(uses_of_direct3.contains(&(3, 0)));
    }

    #[test]
    fn operand_fanout_counts_both_flows() {
        let entries = fig1_structure(0..=3, 3);
        let fanout = operand_fanout(&entries);
        // Index 3 is used 4 times as a direct operand and 4 times conjugated.
        assert_eq!(fanout[&3], (4, 4));
        assert_eq!(fanout[&0], (4, 4));
        // Extreme index 6 = 3 + 3 appears once per flow (f=3,a=3 and f=3,a=-3).
        assert_eq!(fanout[&6], (1, 1));
        assert_eq!(fanout[&-3], (1, 1));
    }
}
