//! Per-scheme protocol policy.
//!
//! The four schemes of the paper's evaluation (§5) differ in exactly three
//! choices: which MDCD configuration runs, which TB variant (if any) drives
//! stable checkpointing, and whether validations write through to stable
//! storage. [`SchemePolicy`] names those choices once; the host and
//! recovery layers consult the policy instead of matching on
//! [`Scheme`] themselves.

use synergy_mdcd::MdcdConfig;
use synergy_tb::TbVariant;

use crate::config::Scheme;

/// The protocol choices one scheme makes, consulted by the host and
/// recovery layers.
pub trait SchemePolicy: Send + Sync {
    /// The scheme's display name (matches the [`Scheme`] variant).
    fn name(&self) -> &'static str;

    /// The MDCD configuration this scheme runs.
    fn mdcd_config(&self) -> MdcdConfig;

    /// The TB variant this scheme runs, if any.
    fn tb_variant(&self) -> Option<TbVariant>;

    /// Whether Type-2 checkpoints are written through to stable storage
    /// at every validation (the §3 write-through baseline).
    fn stable_on_validation(&self) -> bool {
        false
    }

    /// Whether hardware recovery picks an epoch line — the newest stable
    /// epoch committed by *every* live process. TB schemes number their
    /// checkpoints by epoch and a crash can tear one process's in-flight
    /// write while its peers commit theirs; epoch-less schemes restore
    /// each process's newest record independently.
    fn epoch_line_recovery(&self) -> bool {
        self.tb_variant().is_some()
    }
}

/// The paper's contribution: modified MDCD + adapted TB, coordinated
/// through dirty bits and `Ndc` matching (§3–§4).
struct Coordinated;

impl SchemePolicy for Coordinated {
    fn name(&self) -> &'static str {
        "Coordinated"
    }

    fn mdcd_config(&self) -> MdcdConfig {
        MdcdConfig::modified()
    }

    fn tb_variant(&self) -> Option<TbVariant> {
        Some(TbVariant::Adapted)
    }
}

/// The write-through baseline of §3: original MDCD whose Type-2
/// checkpoints are persisted on every validation; no TB timers.
struct WriteThrough;

impl SchemePolicy for WriteThrough {
    fn name(&self) -> &'static str {
        "WriteThrough"
    }

    fn mdcd_config(&self) -> MdcdConfig {
        MdcdConfig::write_through()
    }

    fn tb_variant(&self) -> Option<TbVariant> {
        None
    }

    fn stable_on_validation(&self) -> bool {
        true
    }
}

/// The invalid simple combination of §4.1: original MDCD and original TB
/// running concurrently with no coordination.
struct Naive;

impl SchemePolicy for Naive {
    fn name(&self) -> &'static str {
        "Naive"
    }

    fn mdcd_config(&self) -> MdcdConfig {
        MdcdConfig::original()
    }

    fn tb_variant(&self) -> Option<TbVariant> {
        Some(TbVariant::Original)
    }
}

/// Original MDCD alone: software fault tolerance only, hardware faults
/// lose all progress.
struct MdcdOnly;

impl SchemePolicy for MdcdOnly {
    fn name(&self) -> &'static str {
        "MdcdOnly"
    }

    fn mdcd_config(&self) -> MdcdConfig {
        MdcdConfig::original()
    }

    fn tb_variant(&self) -> Option<TbVariant> {
        None
    }
}

/// The policy for `scheme`. This is the only place a [`Scheme`] value is
/// matched; everything downstream goes through the returned trait object.
pub(crate) fn policy_for(scheme: Scheme) -> &'static dyn SchemePolicy {
    match scheme {
        Scheme::Coordinated => &Coordinated,
        Scheme::WriteThrough => &WriteThrough,
        Scheme::Naive => &Naive,
        Scheme::MdcdOnly => &MdcdOnly,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_mdcd::Variant;

    #[test]
    fn policies_mirror_the_paper_table() {
        let co = policy_for(Scheme::Coordinated);
        assert_eq!(co.mdcd_config().variant, Variant::Modified);
        assert_eq!(co.tb_variant(), Some(TbVariant::Adapted));
        assert!(!co.stable_on_validation());
        assert!(co.epoch_line_recovery());

        let wt = policy_for(Scheme::WriteThrough);
        assert_eq!(wt.mdcd_config().variant, Variant::Original);
        assert!(wt.stable_on_validation());
        assert!(!wt.epoch_line_recovery());

        let naive = policy_for(Scheme::Naive);
        assert_eq!(naive.tb_variant(), Some(TbVariant::Original));
        assert!(naive.epoch_line_recovery());

        let mdcd = policy_for(Scheme::MdcdOnly);
        assert_eq!(mdcd.tb_variant(), None);
        assert!(!mdcd.epoch_line_recovery());
    }

    #[test]
    fn policy_names_match_variants() {
        for (scheme, name) in [
            (Scheme::Coordinated, "Coordinated"),
            (Scheme::WriteThrough, "WriteThrough"),
            (Scheme::Naive, "Naive"),
            (Scheme::MdcdOnly, "MdcdOnly"),
        ] {
            assert_eq!(policy_for(scheme).name(), name);
        }
    }
}
