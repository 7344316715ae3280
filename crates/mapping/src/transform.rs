//! Space–time transformations of the dependence graph (Section 3.1).
//!
//! A [`SpaceTimeMapping`] pairs a processor-assignment matrix `P` with a
//! scheduling vector `s`: dependence-graph node `v` executes on processor
//! `P^T·v` at time `s^T·v`. The paper applies two such mappings in sequence:
//!
//! 1. `P1`/`s1` (eq. 4) folds the integration dimension `n`, turning each
//!    node into a multiply–accumulate with a local register (Fig. 3);
//! 2. `P2`/`s2` (eq. 5) folds the frequency dimension `f`, giving a linear
//!    array of `P = 2M+1` processors that time-multiplex the frequencies
//!    (Fig. 4), i.e. processor `a` executes `(f, a)` at time `t = f`.

use crate::dg::{DependenceGraph, DgNode};
use crate::error::MappingError;
use crate::vecmat::{paper, IMat, IVec};
use std::collections::HashMap;

/// A processor assignment plus schedule, applied with the paper's
/// `v_new = P^T·v_old`, `t = s^T·v_old` convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceTimeMapping {
    assignment: IMat,
    schedule: IVec,
}

/// The result of mapping a single DG node: its processor coordinates and
/// execution time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MappedNode {
    /// The original node.
    pub node: DgNode,
    /// Processor coordinates `P^T·v`.
    pub processor: Vec<i64>,
    /// Execution time `s^T·v`.
    pub time: i64,
}

impl SpaceTimeMapping {
    /// Creates a mapping from an assignment matrix and a scheduling vector.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::DimensionMismatch`] if the matrix row count
    /// differs from the schedule dimension (both must equal the DG node
    /// dimension).
    pub fn new(assignment: IMat, schedule: IVec) -> Result<Self, MappingError> {
        if assignment.rows() != schedule.dim() {
            return Err(MappingError::DimensionMismatch {
                context: "space-time mapping",
                expected: assignment.rows(),
                actual: schedule.dim(),
            });
        }
        Ok(SpaceTimeMapping {
            assignment,
            schedule,
        })
    }

    /// The paper's first mapping, `P1`/`s1` (eq. 4): fold the `n` dimension.
    pub fn paper_step1() -> Self {
        SpaceTimeMapping::new(paper::p1(), paper::s1()).expect("paper mapping is consistent")
    }

    /// The paper's second mapping, `P2`/`s2` (eq. 5): fold the `f`
    /// dimension. This operates on the already-2-D `(f, a)` nodes.
    pub fn paper_step2() -> Self {
        SpaceTimeMapping::new(paper::p2(), paper::s2()).expect("paper mapping is consistent")
    }

    /// The assignment matrix.
    pub fn assignment(&self) -> &IMat {
        &self.assignment
    }

    /// The scheduling vector.
    pub fn schedule(&self) -> &IVec {
        &self.schedule
    }

    /// Maps one node vector.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::DimensionMismatch`] if the node dimension
    /// does not match the mapping.
    pub fn map_vector(&self, v: &IVec) -> Result<(Vec<i64>, i64), MappingError> {
        let processor = self.assignment.apply_transposed(v)?;
        let time = self.schedule.dot(v)?;
        Ok((processor.as_slice().to_vec(), time))
    }

    /// Maps a 3-D DG node.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::DimensionMismatch`] if this mapping does not
    /// act on 3-D nodes.
    pub fn map_node(&self, node: DgNode) -> Result<MappedNode, MappingError> {
        let (processor, time) = self.map_vector(&node.as_vector())?;
        Ok(MappedNode {
            node,
            processor,
            time,
        })
    }

    /// Maps every node of a dependence graph.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::DimensionMismatch`] for dimension mismatches.
    pub fn map_graph(&self, dg: &DependenceGraph) -> Result<Vec<MappedNode>, MappingError> {
        dg.nodes().map(|node| self.map_node(node)).collect()
    }

    /// Checks that no processor executes two different nodes at the same
    /// time step — the fundamental validity condition of a space–time
    /// mapping.
    ///
    /// # Errors
    ///
    /// * [`MappingError::ScheduleConflict`] at the first conflict found,
    /// * [`MappingError::DimensionMismatch`] for dimension mismatches.
    pub fn check_conflict_free(&self, dg: &DependenceGraph) -> Result<(), MappingError> {
        let mut seen: HashMap<(Vec<i64>, i64), DgNode> = HashMap::new();
        for node in dg.nodes() {
            let mapped = self.map_node(node)?;
            let key = (mapped.processor.clone(), mapped.time);
            if let Some(previous) = seen.insert(key, node) {
                return Err(MappingError::ScheduleConflict {
                    processor: format!("{:?} (also used by {previous})", mapped.processor),
                    time: mapped.time,
                });
            }
        }
        Ok(())
    }

    /// Number of distinct processors used when mapping `dg`.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::DimensionMismatch`] for dimension mismatches.
    pub fn processor_count(&self, dg: &DependenceGraph) -> Result<usize, MappingError> {
        let mut processors = std::collections::HashSet::new();
        for node in dg.nodes() {
            processors.insert(self.map_node(node)?.processor);
        }
        Ok(processors.len())
    }

    /// Total schedule length (makespan) when mapping `dg`: latest minus
    /// earliest time step plus one.
    ///
    /// # Errors
    ///
    /// Returns [`MappingError::DimensionMismatch`] for dimension mismatches.
    pub fn makespan(&self, dg: &DependenceGraph) -> Result<i64, MappingError> {
        let mut min_t = i64::MAX;
        let mut max_t = i64::MIN;
        for node in dg.nodes() {
            let t = self.schedule.dot(&node.as_vector())?;
            min_t = min_t.min(t);
            max_t = max_t.max(t);
        }
        if min_t > max_t {
            return Ok(0);
        }
        Ok(max_t - min_t + 1)
    }
}

/// The combined two-stage mapping of the paper applied to a 3-D node:
/// processor = `a`, time within a plane = `f`, plane sequencing over `n`.
///
/// After `P1`/`s1` every `(f, a)` pair is one processor working at plane-time
/// `n`; after `P2`/`s2` the `(f, a)` plane collapses onto processor `a`
/// working at time `f`. The full execution order used by the downstream
/// simulators is therefore `(n, f)` lexicographic with processors indexed by
/// `a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CombinedAssignment {
    /// Processor index (= offset `a`).
    pub processor: i32,
    /// Time step within one integration plane (= frequency `f`, shifted to
    /// start at 0: `f + M`).
    pub time_in_plane: usize,
    /// Integration plane `n`.
    pub plane: usize,
}

/// Applies the combined paper mapping to one node for a grid of half-width
/// `max_offset`.
pub fn combined_paper_assignment(node: DgNode, max_offset: usize) -> CombinedAssignment {
    CombinedAssignment {
        processor: node.a,
        time_in_plane: (node.f + max_offset as i32) as usize,
        plane: node.n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vecmat::paper;

    #[test]
    fn mapping_requires_consistent_dimensions() {
        assert!(SpaceTimeMapping::new(paper::p1(), IVec::of2(1, 0)).is_err());
        assert!(SpaceTimeMapping::new(paper::p1(), paper::s1()).is_ok());
    }

    #[test]
    fn paper_step1_folds_n_and_schedules_planes_in_order() {
        let mapping = SpaceTimeMapping::paper_step1();
        let mapped = mapping.map_node(DgNode::new(2, -1, 5)).unwrap();
        assert_eq!(mapped.processor, vec![2, -1]);
        assert_eq!(mapped.time, 5);
        // Operations in plane n-1 are executed before those in plane n.
        let earlier = mapping.map_node(DgNode::new(2, -1, 4)).unwrap();
        assert!(earlier.time < mapped.time);
    }

    #[test]
    fn paper_step1_is_conflict_free() {
        let dg = DependenceGraph::new(3, 4);
        let mapping = SpaceTimeMapping::paper_step1();
        mapping.check_conflict_free(&dg).unwrap();
        // One processor per (f, a) pair.
        assert_eq!(mapping.processor_count(&dg).unwrap(), 49);
        assert_eq!(mapping.makespan(&dg).unwrap(), 4);
    }

    #[test]
    fn step2_alone_on_a_plane_would_conflict_across_planes() {
        // P2/s2 maps (f, a) -> processor a at time f. Applied to a multi
        // -plane graph *projected* to 2-D, different n values would collide;
        // the paper avoids this by applying it after the n-fold. Here we
        // verify the conflict detection machinery by constructing a mapping
        // on 3-D nodes that ignores n entirely.
        let ignore_n =
            SpaceTimeMapping::new(IMat::from_rows(3, 1, vec![0, 1, 0]), IVec::of3(1, 0, 0))
                .unwrap();
        let single_plane = DependenceGraph::new(2, 1);
        ignore_n.check_conflict_free(&single_plane).unwrap();
        let two_planes = DependenceGraph::new(2, 2);
        assert!(matches!(
            ignore_n.check_conflict_free(&two_planes),
            Err(MappingError::ScheduleConflict { .. })
        ));
    }

    #[test]
    fn paper_step2_maps_frequencies_to_time() {
        let mapping = SpaceTimeMapping::paper_step2();
        let (proc, time) = mapping.map_vector(&IVec::of2(5, -3)).unwrap();
        assert_eq!(proc, vec![-3]);
        assert_eq!(time, 5);
        // Results for f = 0 are calculated at t = 0 (the paper's phrasing).
        let (_, t0) = mapping.map_vector(&IVec::of2(0, 2)).unwrap();
        assert_eq!(t0, 0);
    }

    #[test]
    fn combined_assignment_matches_two_stage_composition() {
        let m = 3usize;
        let dg = DependenceGraph::new(m, 2);
        for node in dg.nodes() {
            let combined = combined_paper_assignment(node, m);
            // Stage 1: processor (f, a), time n.
            let s1 = SpaceTimeMapping::paper_step1().map_node(node).unwrap();
            // Stage 2 applied to the stage-1 processor coordinates.
            let (p2, t2) = SpaceTimeMapping::paper_step2()
                .map_vector(&IVec::of2(s1.processor[0], s1.processor[1]))
                .unwrap();
            assert_eq!(combined.processor as i64, p2[0]);
            assert_eq!(combined.time_in_plane as i64, t2 + m as i64);
            assert_eq!(combined.plane as i64, s1.time);
        }
    }

    #[test]
    fn processor_count_after_both_steps_is_p() {
        // After the combined mapping the number of processors is 2M+1.
        let m = 5usize;
        let dg = DependenceGraph::new(m, 3);
        let mut processors = std::collections::HashSet::new();
        for node in dg.nodes() {
            processors.insert(combined_paper_assignment(node, m).processor);
        }
        assert_eq!(processors.len(), 2 * m + 1);
    }

    #[test]
    fn map_graph_returns_all_nodes() {
        let dg = DependenceGraph::new(2, 2);
        let mapping = SpaceTimeMapping::paper_step1();
        let mapped = mapping.map_graph(&dg).unwrap();
        assert_eq!(mapped.len(), dg.node_count());
    }
}
