//! Shared vocabulary types of the MDCD protocol.

use core::fmt;

/// Which MDCD algorithm variant an engine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The original protocol (paper §2.1): Type-2 checkpoints on
    /// validation, no pseudo dirty bit, no `Ndc` matching, no blocking
    /// awareness.
    Original,
    /// The modified protocol (paper §3, Appendix A), ready for coordination
    /// with the adapted TB protocol.
    Modified,
}

/// The role a process plays in the guarded configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProcessRole {
    /// `P1act`: active low-confidence version.
    Active,
    /// `P1sdw`: shadow high-confidence version.
    Shadow,
    /// `P2`: the second (high-confidence) application component.
    Peer,
}

impl ProcessRole {
    /// The paper's name for the process in this role.
    pub fn name(self) -> &'static str {
        match self {
            ProcessRole::Active => "P1act",
            ProcessRole::Shadow => "P1sdw",
            ProcessRole::Peer => "P2",
        }
    }
}

impl fmt::Display for ProcessRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a volatile checkpoint is being established.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckpointKind {
    /// Immediately before a process state becomes potentially contaminated.
    Type1,
    /// Right after a potentially contaminated state is validated (original
    /// protocol only).
    Type2,
    /// `P1act`'s checkpoint driven by its pseudo dirty bit (modified
    /// protocol only, paper §3).
    Pseudo,
}

/// The kind's name as traces spell it.
impl fmt::Display for CheckpointKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CheckpointKind::Type1 => "type-1",
            CheckpointKind::Type2 => "type-2",
            CheckpointKind::Pseudo => "pseudo",
        })
    }
}

/// A process's local recovery decision after a software error is detected
/// (paper §2.1): roll back to the most recent volatile checkpoint when the
/// state is potentially contaminated, roll forward otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryDecision {
    /// Restore the most recent volatile checkpoint.
    RollBack,
    /// Continue from the current state.
    RollForward,
}

impl fmt::Display for RecoveryDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryDecision::RollBack => write!(f, "roll-back"),
            RecoveryDecision::RollForward => write!(f, "roll-forward"),
        }
    }
}

/// Engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MdcdConfig {
    /// Algorithm variant.
    pub variant: Variant,
    /// Whether `P1act` emits Type-2 checkpoints on validation events. The
    /// original protocol exempts `P1act` from checkpointing; the
    /// *write-through* baseline of paper §3 re-enables it so every process
    /// can persist a Type-2 checkpoint to stable storage.
    pub active_type2: bool,
}

impl MdcdConfig {
    /// The original protocol as published.
    pub fn original() -> Self {
        MdcdConfig {
            variant: Variant::Original,
            active_type2: false,
        }
    }

    /// The original protocol with `P1act` Type-2 checkpoints, as required by
    /// the write-through baseline.
    pub fn write_through() -> Self {
        MdcdConfig {
            variant: Variant::Original,
            active_type2: true,
        }
    }

    /// The modified, coordination-ready protocol.
    pub fn modified() -> Self {
        MdcdConfig {
            variant: Variant::Modified,
            active_type2: false,
        }
    }
}

impl Default for MdcdConfig {
    fn default() -> Self {
        MdcdConfig::modified()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_match_paper() {
        assert_eq!(ProcessRole::Active.to_string(), "P1act");
        assert_eq!(ProcessRole::Shadow.to_string(), "P1sdw");
        assert_eq!(ProcessRole::Peer.to_string(), "P2");
        assert_eq!(CheckpointKind::Type1.to_string(), "type-1");
        assert_eq!(RecoveryDecision::RollForward.to_string(), "roll-forward");
    }

    #[test]
    fn config_presets() {
        assert_eq!(MdcdConfig::original().variant, Variant::Original);
        assert!(!MdcdConfig::original().active_type2);
        assert!(MdcdConfig::write_through().active_type2);
        assert_eq!(MdcdConfig::default(), MdcdConfig::modified());
    }
}
