//! Malicious validator behaviours.
//!
//! The feedback loop gives voting power to clients, so Byzantine clients
//! may lie in either direction (paper §IV-B):
//!
//! - **stealth accept**: vote "clean" on models their coordinator
//!   poisoned, to push a backdoored model past the quorum;
//! - **denial of service**: vote "poisoned" on every model, to stall
//!   training by having genuine updates rejected.

/// A validator's vote about the current global model.
///
/// Matches the paper's encoding: `d_i = 1` means "poisoned" (reject),
/// `d_i = 0` means "clean" (accept).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vote {
    /// `d_i = 0`: the model looks clean.
    Accept,
    /// `d_i = 1`: the model looks poisoned.
    Reject,
}

impl Vote {
    /// The paper's bit encoding (`1` = reject).
    pub fn as_bit(self) -> u8 {
        match self {
            Vote::Accept => 0,
            Vote::Reject => 1,
        }
    }
}

/// How a (possibly malicious) validating client produces its vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VoterBehavior {
    /// Runs the real validation function on local data.
    #[default]
    Honest,
    /// Colludes with the attacker: always votes "clean".
    StealthAccept,
    /// Mounts a denial-of-service: always votes "poisoned".
    DenialOfService,
}

impl VoterBehavior {
    /// Produces the final vote given what the honest validation function
    /// would have said.
    pub fn cast(self, honest_vote: Vote) -> Vote {
        match self {
            VoterBehavior::Honest => honest_vote,
            VoterBehavior::StealthAccept => Vote::Accept,
            VoterBehavior::DenialOfService => Vote::Reject,
        }
    }

    /// Whether this behaviour needs the honest validation to run at all
    /// (malicious voters can skip the computation).
    pub fn needs_validation(self) -> bool {
        matches!(self, VoterBehavior::Honest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_passes_through() {
        assert_eq!(VoterBehavior::Honest.cast(Vote::Accept), Vote::Accept);
        assert_eq!(VoterBehavior::Honest.cast(Vote::Reject), Vote::Reject);
    }

    #[test]
    fn stealth_always_accepts() {
        assert_eq!(VoterBehavior::StealthAccept.cast(Vote::Reject), Vote::Accept);
    }

    #[test]
    fn dos_always_rejects() {
        assert_eq!(VoterBehavior::DenialOfService.cast(Vote::Accept), Vote::Reject);
    }

    #[test]
    fn bit_encoding_matches_paper() {
        assert_eq!(Vote::Accept.as_bit(), 0);
        assert_eq!(Vote::Reject.as_bit(), 1);
    }

    #[test]
    fn only_honest_voters_need_validation() {
        assert!(VoterBehavior::Honest.needs_validation());
        assert!(!VoterBehavior::StealthAccept.needs_validation());
        assert!(!VoterBehavior::DenialOfService.needs_validation());
    }
}
