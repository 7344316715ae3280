//! The interconnection network between memories, register files and the ALU.
//!
//! The Montium's crossbar is configured (not switched per cycle) by the
//! control/configuration block; a kernel's configuration selects which memory
//! feeds which register-file port and which register feeds which ALU input.
//! The simulator models this as a named set of point-to-point connections
//! that a kernel declares before running — enough to check that a kernel's
//! resource usage is realisable and to report it in the Fig. 11 style.

use std::fmt;

/// An endpoint of the interconnection network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// A memory bank (1-based, M01..M10).
    Memory(usize),
    /// A register file (1-based, RF01..RF05).
    RegisterFile(usize),
    /// One of the ALU operand inputs.
    AluInput(usize),
    /// The ALU result output.
    AluOutput,
    /// The external communication interface (to other tiles).
    Communication,
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Port::Memory(id) => write!(f, "M{id:02}"),
            Port::RegisterFile(id) => write!(f, "RF{id:02}"),
            Port::AluInput(i) => write!(f, "ALU.in{i}"),
            Port::AluOutput => write!(f, "ALU.out"),
            Port::Communication => write!(f, "CCC"),
        }
    }
}

/// A directed connection through the crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Connection {
    /// Source port.
    pub from: Port,
    /// Destination port.
    pub to: Port,
}

impl fmt::Display for Connection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.from, self.to)
    }
}

/// A kernel's crossbar configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InterconnectConfig {
    connections: Vec<Connection>,
}

impl InterconnectConfig {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        InterconnectConfig::default()
    }

    /// Adds a connection.
    pub fn connect(&mut self, from: Port, to: Port) -> &mut Self {
        self.connections.push(Connection { from, to });
        self
    }

    /// All connections.
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// Number of connections.
    pub fn len(&self) -> usize {
        self.connections.len()
    }

    /// Returns `true` if no connections are configured.
    pub fn is_empty(&self) -> bool {
        self.connections.is_empty()
    }

    /// Checks the configuration against the tile's resource counts: memory
    /// and register-file identifiers must exist and no destination port may
    /// be driven by two sources.
    ///
    /// Returns a list of human-readable problems (empty when valid).
    pub fn validate(&self, num_memories: usize, num_register_files: usize) -> Vec<String> {
        let mut problems = Vec::new();
        let mut driven: std::collections::HashMap<Port, usize> = std::collections::HashMap::new();
        for c in &self.connections {
            for port in [c.from, c.to] {
                match port {
                    Port::Memory(id) if id == 0 || id > num_memories => {
                        problems.push(format!(
                            "connection `{c}` references missing memory M{id:02}"
                        ));
                    }
                    Port::RegisterFile(id) if id == 0 || id > num_register_files => {
                        problems.push(format!(
                            "connection `{c}` references missing register file RF{id:02}"
                        ));
                    }
                    _ => {}
                }
            }
            *driven.entry(c.to).or_default() += 1;
        }
        for (port, count) in driven {
            if count > 1 && !matches!(port, Port::RegisterFile(_)) {
                problems.push(format!("port {port} is driven by {count} sources"));
            }
        }
        problems
    }

    /// The crossbar configuration of the CFD kernel (Fig. 11): the two
    /// communication memories feed the ALU inputs, the accumulation memories
    /// exchange data with the ALU via a register file, and the communication
    /// block reaches M09/M10.
    pub fn cfd_kernel(num_memories: usize) -> Self {
        let mut config = InterconnectConfig::new();
        let m_conj = num_memories.saturating_sub(1); // M09
        let m_direct = num_memories; // M10
        config
            .connect(Port::Memory(m_direct), Port::AluInput(0))
            .connect(Port::Memory(m_conj), Port::AluInput(1))
            .connect(Port::Memory(1), Port::RegisterFile(1))
            .connect(Port::RegisterFile(1), Port::AluInput(2))
            .connect(Port::AluOutput, Port::RegisterFile(2))
            .connect(Port::RegisterFile(2), Port::Memory(1))
            .connect(Port::Communication, Port::Memory(m_conj))
            .connect(Port::Communication, Port::Memory(m_direct));
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_display_like_the_paper() {
        assert_eq!(Port::Memory(9).to_string(), "M09");
        assert_eq!(Port::RegisterFile(2).to_string(), "RF02");
        assert_eq!(Port::AluInput(0).to_string(), "ALU.in0");
        assert_eq!(Port::AluOutput.to_string(), "ALU.out");
        assert_eq!(Port::Communication.to_string(), "CCC");
        let c = Connection {
            from: Port::Memory(1),
            to: Port::AluInput(0),
        };
        assert_eq!(c.to_string(), "M01 -> ALU.in0");
    }

    #[test]
    fn cfd_kernel_configuration_is_valid_for_a_montium() {
        let config = InterconnectConfig::cfd_kernel(10);
        assert!(!config.is_empty());
        assert_eq!(config.len(), 8);
        assert!(config.validate(10, 5).is_empty());
        // M09 and M10 feed the ALU operand inputs.
        assert!(config
            .connections()
            .iter()
            .any(|c| c.from == Port::Memory(9) && matches!(c.to, Port::AluInput(_))));
        assert!(config
            .connections()
            .iter()
            .any(|c| c.from == Port::Memory(10) && matches!(c.to, Port::AluInput(_))));
    }

    #[test]
    fn validation_flags_missing_resources_and_double_drivers() {
        let mut config = InterconnectConfig::new();
        config
            .connect(Port::Memory(11), Port::AluInput(0))
            .connect(Port::RegisterFile(6), Port::AluInput(1))
            .connect(Port::Memory(1), Port::AluInput(0));
        let problems = config.validate(10, 5);
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("M11")));
        assert!(problems.iter().any(|p| p.contains("RF06")));
        assert!(problems.iter().any(|p| p.contains("driven by 2")));
    }

    #[test]
    fn empty_configuration_is_trivially_valid() {
        let config = InterconnectConfig::new();
        assert!(config.is_empty());
        assert!(config.validate(10, 5).is_empty());
    }
}
