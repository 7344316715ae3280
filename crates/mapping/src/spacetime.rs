//! The space–time-delay diagram of Fig. 5.
//!
//! Section 3.2 determines the interconnection pattern by following one
//! spectral value through the processor array. After the `P2`/`s2` mapping,
//! processor `a` consumes
//!
//! * the conjugated value `X*_{n,v}` at time `t = v + a` (dotted lines), and
//! * the direct value `X_{n,v}` at time `t = v - a` (solid lines).
//!
//! Removing the dependence on absolute time (matrices `P2a1`/`P2a2`, eq. 6)
//! leaves the *time delay* `Δt` relative to the value's first use, which is
//! what Fig. 5 plots against the processor number: the conjugated flow
//! advances one processor per clock from `a = -M` to `a = +M`, the direct
//! flow advances in the opposite direction.

use std::fmt;

/// Which of the two operand flows a diagram describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flow {
    /// The conjugated values `X*_{n,v}` (dotted lines in Fig. 1), travelling
    /// from processor `-M` towards `+M`.
    Conjugate,
    /// The direct values `X_{n,v}` (solid lines in Fig. 1), travelling from
    /// processor `+M` towards `-M`.
    Direct,
}

impl Flow {
    /// The per-processor-step time delay direction: +1 for the conjugate
    /// flow (delay grows with `a`), -1 for the direct flow.
    pub fn delay_slope(self) -> i32 {
        match self {
            Flow::Conjugate => 1,
            Flow::Direct => -1,
        }
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Flow::Conjugate => f.write_str("conjugate (dotted)"),
            Flow::Direct => f.write_str("direct (solid)"),
        }
    }
}

/// One entry of the space–time-delay diagram: spectral value `value_index`
/// is consumed by `processor` after a delay of `delay` clock cycles relative
/// to its first use in the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpaceTimeEntry {
    /// Spectral index `v` of the value (`X_{n,v}` or `X*_{n,v}`).
    pub value_index: i32,
    /// Processor number `a` that consumes the value.
    pub processor: i32,
    /// Time delay `Δt` (cycles after the value's first use).
    pub delay: i32,
}

/// The space–time-delay diagram for one flow over a processor array of
/// half-width `M` (Fig. 5 shows the conjugate flow for `M = 3`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceTimeDiagram {
    flow: Flow,
    max_offset: usize,
    entries: Vec<SpaceTimeEntry>,
}

impl SpaceTimeDiagram {
    /// Builds the diagram for `flow` on an array with processors
    /// `-M ..= M`, following the spectral values `value_indices`.
    pub fn new(
        flow: Flow,
        max_offset: usize,
        value_indices: impl IntoIterator<Item = i32>,
    ) -> Self {
        let m = max_offset as i32;
        let mut entries = Vec::new();
        for v in value_indices {
            for a in -m..=m {
                // Absolute use time: t = v + a (conjugate) or t = v - a (direct).
                // The first use is at the entry processor (a = -M resp. +M),
                // so the delay is measured from there.
                let delay = match flow {
                    Flow::Conjugate => a + m,
                    Flow::Direct => m - a,
                };
                entries.push(SpaceTimeEntry {
                    value_index: v,
                    processor: a,
                    delay,
                });
            }
        }
        SpaceTimeDiagram {
            flow,
            max_offset,
            entries,
        }
    }

    /// The diagram of Fig. 5: conjugate flow, `M = 3`, values
    /// `X*_{n,0} .. X*_{n,3}`.
    pub fn figure5() -> Self {
        SpaceTimeDiagram::new(Flow::Conjugate, 3, 0..=3)
    }

    /// The flow this diagram describes.
    pub fn flow(&self) -> Flow {
        self.flow
    }

    /// The array half-width `M`.
    pub fn max_offset(&self) -> usize {
        self.max_offset
    }

    /// All entries.
    pub fn entries(&self) -> &[SpaceTimeEntry] {
        &self.entries
    }

    /// The entries for one spectral value, ordered by processor number.
    pub fn trajectory(&self, value_index: i32) -> Vec<SpaceTimeEntry> {
        let mut t: Vec<_> = self
            .entries
            .iter()
            .copied()
            .filter(|e| e.value_index == value_index)
            .collect();
        t.sort_by_key(|e| e.processor);
        t
    }

    /// The maximum delay in the diagram — the number of register stages a
    /// value needs to traverse the whole array (2M for both flows).
    pub fn max_delay(&self) -> i32 {
        self.entries.iter().map(|e| e.delay).max().unwrap_or(0)
    }

    /// Total registers required to realise this flow with one register per
    /// unit delay per processor boundary (the "minimal register structure"
    /// of Fig. 6): the array needs `2M` registers in a chain, one between
    /// each pair of adjacent processors.
    pub fn register_chain_length(&self) -> usize {
        2 * self.max_offset
    }

    /// Renders the diagram as the ASCII analogue of Fig. 5: one row per
    /// delay value, one column per processor, a mark where a value is
    /// consumed.
    pub fn render(&self) -> String {
        let m = self.max_offset as i32;
        let max_delay = self.max_delay();
        let mut out = String::new();
        out.push_str(&format!(
            "space-time delay diagram ({} flow), processors -{m}..{m}\n",
            self.flow
        ));
        out.push_str("   dt | ");
        for a in -m..=m {
            out.push_str(&format!("{a:>4}"));
        }
        out.push('\n');
        for delay in 0..=max_delay {
            out.push_str(&format!("{delay:>5} | "));
            for a in -m..=m {
                let values: Vec<_> = self
                    .entries
                    .iter()
                    .filter(|e| e.processor == a && e.delay == delay)
                    .map(|e| e.value_index)
                    .collect();
                if values.is_empty() {
                    out.push_str("   .");
                } else {
                    out.push_str(&format!("{:>4}", format!("x{}", values.len())));
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_properties() {
        assert_eq!(Flow::Conjugate.delay_slope(), 1);
        assert_eq!(Flow::Direct.delay_slope(), -1);
        assert!(Flow::Conjugate.to_string().contains("dotted"));
        assert!(Flow::Direct.to_string().contains("solid"));
    }

    #[test]
    fn figure5_matches_the_paper() {
        let diagram = SpaceTimeDiagram::figure5();
        assert_eq!(diagram.max_offset(), 3);
        assert_eq!(diagram.flow(), Flow::Conjugate);
        // Four values, seven processors each.
        assert_eq!(diagram.entries().len(), 4 * 7);
        // X*_{n,3}: used by the leftmost processor (a=-3) at delay 0, by the
        // adjacent processor (a=-2) at delay 1, ... (the paper's narrative).
        let trajectory = diagram.trajectory(3);
        assert_eq!(trajectory.len(), 7);
        assert_eq!(trajectory[0].processor, -3);
        assert_eq!(trajectory[0].delay, 0);
        assert_eq!(trajectory[1].processor, -2);
        assert_eq!(trajectory[1].delay, 1);
        assert_eq!(trajectory[6].processor, 3);
        assert_eq!(trajectory[6].delay, 6);
        assert_eq!(diagram.max_delay(), 6);
    }

    #[test]
    fn direct_flow_travels_in_the_opposite_direction() {
        let diagram = SpaceTimeDiagram::new(Flow::Direct, 3, 0..=3);
        let trajectory = diagram.trajectory(2);
        // First use at a = +3 (delay 0), last at a = -3 (delay 6).
        let first = trajectory.iter().find(|e| e.delay == 0).unwrap();
        assert_eq!(first.processor, 3);
        let last = trajectory.iter().find(|e| e.delay == 6).unwrap();
        assert_eq!(last.processor, -3);
    }

    #[test]
    fn delays_increase_by_one_per_processor_hop() {
        for flow in [Flow::Conjugate, Flow::Direct] {
            let diagram = SpaceTimeDiagram::new(flow, 5, [7]);
            let trajectory = diagram.trajectory(7);
            for pair in trajectory.windows(2) {
                let dp = pair[1].processor - pair[0].processor;
                let dd = pair[1].delay - pair[0].delay;
                assert_eq!(dp, 1);
                assert_eq!(dd, flow.delay_slope());
            }
        }
    }

    #[test]
    fn register_chain_length_is_2m() {
        assert_eq!(SpaceTimeDiagram::figure5().register_chain_length(), 6);
        assert_eq!(
            SpaceTimeDiagram::new(Flow::Direct, 63, 0..1).register_chain_length(),
            126
        );
    }

    #[test]
    fn render_contains_all_processors_and_delays() {
        let diagram = SpaceTimeDiagram::figure5();
        let text = diagram.render();
        assert!(text.contains("-3"));
        assert!(text.contains('6'));
        // Each delay row 0..6 appears.
        assert_eq!(text.lines().count(), 2 + 7);
    }

    #[test]
    fn empty_value_set_yields_empty_diagram() {
        let diagram = SpaceTimeDiagram::new(Flow::Conjugate, 2, std::iter::empty());
        assert!(diagram.entries().is_empty());
        assert_eq!(diagram.max_delay(), 0);
        assert!(diagram.trajectory(0).is_empty());
    }
}
