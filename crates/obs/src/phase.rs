//! The paper's task categories, shared by the simulator and the trainers.

/// Category of a timeline slice — the Fig. 1 / Fig. 2 legend.
///
/// The simulator tags its tasks (`spdkfac_core::graph::Task::phase`) with
/// the same type, so measured and simulated timelines attribute to the same
/// buckets; `Update` covers everything else (preconditioning, SGD step,
/// factor install).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Feed-forward and back-propagation compute (green blocks in Fig. 1).
    FfBp,
    /// Gradient all-reduce (light brown).
    GradComm,
    /// Kronecker-factor construction compute (blue).
    FactorComp,
    /// Kronecker-factor all-reduce (dark brown).
    FactorComm,
    /// Matrix-inversion compute.
    InverseComp,
    /// Inverse-result broadcast (red).
    InverseComm,
    /// Everything else: preconditioning, factor install, parameter update.
    Update,
}

impl Phase {
    /// Every phase, in breakdown display order.
    pub const ALL: [Phase; 7] = [
        Phase::FfBp,
        Phase::GradComm,
        Phase::FactorComp,
        Phase::FactorComm,
        Phase::InverseComp,
        Phase::InverseComm,
        Phase::Update,
    ];

    /// Display name (matches the simulator's Chrome-trace slice names).
    pub fn name(self) -> &'static str {
        match self {
            Phase::FfBp => "FF&BP",
            Phase::GradComm => "GradComm",
            Phase::FactorComp => "FactorComp",
            Phase::FactorComm => "FactorComm",
            Phase::InverseComp => "InverseComp",
            Phase::InverseComm => "InverseComm",
            Phase::Update => "Update",
        }
    }

    /// `true` for network (communication) phases.
    pub fn is_comm(self) -> bool {
        matches!(
            self,
            Phase::GradComm | Phase::FactorComm | Phase::InverseComm
        )
    }

    /// Inverse of [`Phase::index`].
    pub fn from_index(i: usize) -> Option<Phase> {
        Phase::ALL.get(i).copied()
    }

    /// Stable small index (also the `ALL` position).
    pub fn index(self) -> usize {
        match self {
            Phase::FfBp => 0,
            Phase::GradComm => 1,
            Phase::FactorComp => 2,
            Phase::FactorComm => 3,
            Phase::InverseComp => 4,
            Phase::InverseComm => 5,
            Phase::Update => 6,
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_consistent_with_index() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Phase::from_index(i), Some(*p));
        }
        assert_eq!(Phase::from_index(7), None);
    }

    #[test]
    fn comm_phases() {
        assert!(Phase::GradComm.is_comm());
        assert!(Phase::FactorComm.is_comm());
        assert!(Phase::InverseComm.is_comm());
        assert!(!Phase::FfBp.is_comm());
        assert!(!Phase::InverseComp.is_comm());
        assert!(!Phase::Update.is_comm());
    }
}
