//! The feedback loop's server side: quorum voting (Algorithm 1, §IV-B).

use baffle_attack::voting::Vote;

/// The server's decision about the round's global update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Enough validators flagged the model: discard it and keep the
    /// previous global model (`G^r ← G^{r−1}`).
    Rejected,
    /// The update is integrated (`G^r ← G'`).
    Accepted,
}

impl Decision {
    /// Whether the update was accepted.
    pub fn is_accepted(self) -> bool {
        matches!(self, Decision::Accepted)
    }
}

/// The quorum rule of Algorithm 1: reject iff at least `q` of the `n`
/// validators vote "poisoned".
///
/// Following footnote 1 of the paper, non-responding validators count as
/// implicit accepts — the server rejects only on **q explicit reject
/// votes**, so dropouts cannot stall training.
///
/// # Example
///
/// ```
/// use baffle_core::{QuorumRule, Decision, Vote};
///
/// let rule = QuorumRule::new(10, 5).unwrap();
/// let votes = vec![Vote::Reject; 5];
/// assert_eq!(rule.decide(&votes), Decision::Rejected);
/// let votes = vec![Vote::Reject, Vote::Reject, Vote::Accept];
/// assert_eq!(rule.decide(&votes), Decision::Accepted);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumRule {
    n: usize,
    q: usize,
}

/// Error constructing a [`QuorumRule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidQuorum {
    n: usize,
    q: usize,
}

impl std::fmt::Display for InvalidQuorum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "quorum threshold q={} is not in 1..={} (n validators)", self.q, self.n)
    }
}

impl std::error::Error for InvalidQuorum {}

impl QuorumRule {
    /// Creates the rule for `n` validators with quorum threshold `q`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidQuorum`] unless `1 ≤ q ≤ n`.
    pub fn new(n: usize, q: usize) -> Result<Self, InvalidQuorum> {
        if q == 0 || q > n {
            return Err(InvalidQuorum { n, q });
        }
        Ok(Self { n, q })
    }

    /// Number of validators `n`.
    pub fn validators(&self) -> usize {
        self.n
    }

    /// Quorum threshold `q`.
    pub fn threshold(&self) -> usize {
        self.q
    }

    /// Applies the rule to the received votes (missing votes are implicit
    /// accepts).
    pub fn decide(&self, votes: &[Vote]) -> Decision {
        let rejects = votes.iter().filter(|v| matches!(v, Vote::Reject)).count();
        if rejects >= self.q {
            Decision::Rejected
        } else {
            Decision::Accepted
        }
    }
}

/// The feasible quorum range `n_M < q ≤ n − n_M` of §IV-B for `n`
/// validators of which up to `n_m` are malicious, in the ideal case where
/// every honest validator judges correctly (`ρ = 1`).
///
/// Returns `None` when no such `q` exists (i.e. `n_m ≥ n/2`: no honest
/// majority).
pub fn quorum_bounds(n: usize, n_m: usize) -> Option<(usize, usize)> {
    let lo = n_m + 1; // q > n_M
    let hi = n.checked_sub(n_m)?; // q ≤ n − n_M
    if lo <= hi {
        Some((lo, hi))
    } else {
        None
    }
}

/// The paper's ρ-relaxed quorum recommendation `q := ρ·(n − n_M)`
/// (§IV-B), where `ρ` is the empirical fraction of honest validators that
/// judge the model correctly. Rounded to the nearest integer and clamped
/// to at least 1.
///
/// # Panics
///
/// Panics if `rho` is not in `(0, 1]` or `n_m ≥ n`.
pub fn recommended_quorum(n: usize, n_m: usize, rho: f64) -> usize {
    assert!(rho > 0.0 && rho <= 1.0, "recommended_quorum: rho must be in (0, 1], got {rho}");
    assert!(n_m < n, "recommended_quorum: n_m={n_m} must be below n={n}");
    ((rho * (n - n_m) as f64).round() as usize).max(1)
}

/// Maximum number of malicious validators tolerable given `ρ` (§VI-C):
/// `n_M < (1 − ρ̄)·n / (2 − ρ̄)` where `ρ̄ = 1 − ρ` is the error rate of
/// honest validators. The paper states the bound as
/// `n_M < (1 − ρ)·n / (2 − ρ)` with its ρ denoting the *erring* fraction;
/// we follow the paper's formula literally.
///
/// # Panics
///
/// Panics if `rho` is not in `[0, 1)`.
pub fn max_tolerable_malicious(n: usize, rho: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho), "max_tolerable_malicious: rho must be in [0, 1)");
    (1.0 - rho) * n as f64 / (2.0 - rho)
}

/// The outcome of one round's vote count — see [`tally`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Whether the update is integrated or discarded.
    pub decision: Decision,
    /// Explicit reject votes among those received.
    pub reject_votes: usize,
    /// Whether `quorum` exceeded the voters that exist and was lowered to
    /// their number — a misconfiguration the caller may want to surface.
    pub quorum_clamped: bool,
}

/// The decision step of Algorithm 1, for every driver of the protocol:
/// counts the explicit rejects among `votes`, clamps `quorum` to the
/// `voters` that exist (so a threshold nobody could reach does not turn
/// the defense off), and applies the [`QuorumRule`]. `votes` may be
/// shorter than `voters`: a voter that stayed silent or abstained is an
/// implicit accept (footnote 1). Zero voters accept.
///
/// # Panics
///
/// Panics if `quorum` is zero.
pub fn tally(votes: &[Vote], voters: usize, quorum: usize) -> Tally {
    let voters = voters.max(1);
    let rule = QuorumRule::new(voters, quorum.min(voters)).expect("quorum threshold is positive");
    Tally {
        decision: rule.decide(votes),
        reject_votes: votes.iter().filter(|v| matches!(v, Vote::Reject)).count(),
        quorum_clamped: rule.threshold() != quorum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_at_exact_quorum() {
        let rule = QuorumRule::new(10, 3).unwrap();
        assert_eq!(rule.decide(&[Vote::Reject; 3]), Decision::Rejected);
        assert_eq!(rule.decide(&[Vote::Reject, Vote::Reject]), Decision::Accepted);
    }

    #[test]
    fn missing_votes_are_implicit_accepts() {
        // Only 2 of 10 validators respond, both rejecting; q = 3 not met.
        let rule = QuorumRule::new(10, 3).unwrap();
        assert_eq!(rule.decide(&[Vote::Reject, Vote::Reject]), Decision::Accepted);
    }

    #[test]
    fn accepts_do_not_count_towards_quorum() {
        let rule = QuorumRule::new(5, 2).unwrap();
        let votes = [Vote::Accept, Vote::Accept, Vote::Accept, Vote::Accept, Vote::Reject];
        assert_eq!(rule.decide(&votes), Decision::Accepted);
    }

    #[test]
    fn invalid_quorums_are_rejected() {
        assert!(QuorumRule::new(5, 0).is_err());
        assert!(QuorumRule::new(5, 6).is_err());
        assert!(QuorumRule::new(5, 5).is_ok());
        let err = QuorumRule::new(5, 6).unwrap_err();
        assert!(err.to_string().contains("q=6"));
    }

    #[test]
    fn quorum_bounds_match_section_4b() {
        // n = 10, n_M = 3: 3 < q ≤ 7.
        assert_eq!(quorum_bounds(10, 3), Some((4, 7)));
        // No honest majority: no feasible quorum.
        assert_eq!(quorum_bounds(10, 5), None);
        assert_eq!(quorum_bounds(10, 0), Some((1, 10)));
    }

    #[test]
    fn recommended_quorum_formula() {
        // Paper §IV-B: q := ρ (n − n_M). With ρ = 0.5, n = 10, n_M = 0 → 5.
        assert_eq!(recommended_quorum(10, 0, 0.5), 5);
        assert_eq!(recommended_quorum(10, 2, 0.5), 4);
        assert_eq!(recommended_quorum(10, 9, 0.1), 1);
    }

    #[test]
    fn tolerable_malicious_matches_paper_examples() {
        // §VI-C: ρ = 0.4 → n_M < 3.75; ρ = 0.5 → n_M < 3.33 (n = 10).
        assert!((max_tolerable_malicious(10, 0.4) - 3.75).abs() < 1e-9);
        assert!((max_tolerable_malicious(10, 0.5) - 10.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn tally_rejects_at_exactly_the_quorum() {
        let below = tally(&[Vote::Reject, Vote::Reject, Vote::Accept], 10, 3);
        assert_eq!(
            below,
            Tally { decision: Decision::Accepted, reject_votes: 2, quorum_clamped: false }
        );
        let at = tally(&[Vote::Reject, Vote::Reject, Vote::Accept, Vote::Reject], 10, 3);
        assert_eq!(
            at,
            Tally { decision: Decision::Rejected, reject_votes: 3, quorum_clamped: false }
        );
    }

    #[test]
    fn tally_counts_missing_votes_as_accepts() {
        // 2 of 10 voters answered, both rejecting: q = 3 is not met, and
        // the silent eight do not count as a clamp.
        let t = tally(&[Vote::Reject, Vote::Reject], 10, 3);
        assert_eq!(t.decision, Decision::Accepted);
        assert!(!t.quorum_clamped);
    }

    #[test]
    fn tally_clamps_an_unreachable_quorum_and_says_so() {
        // q = 9 over 3 voters: lowered to 3, so unanimity still rejects.
        let t = tally(&[Vote::Reject; 3], 3, 9);
        assert_eq!(
            t,
            Tally { decision: Decision::Rejected, reject_votes: 3, quorum_clamped: true }
        );
        assert_eq!(tally(&[Vote::Reject; 2], 3, 9).decision, Decision::Accepted);
        assert!(!tally(&[], 3, 3).quorum_clamped, "q = voters is reachable");
    }

    #[test]
    fn tally_of_zero_voters_accepts() {
        let t = tally(&[], 0, 1);
        assert_eq!(
            t,
            Tally { decision: Decision::Accepted, reject_votes: 0, quorum_clamped: false }
        );
        assert!(tally(&[], 0, 2).quorum_clamped);
    }

    #[test]
    fn rejection_monotone_in_reject_votes() {
        // Adding reject votes can only flip Accepted → Rejected.
        let rule = QuorumRule::new(10, 4).unwrap();
        let mut votes = vec![Vote::Accept; 10];
        let mut last_rejected = false;
        for i in 0..10 {
            votes[i] = Vote::Reject;
            let rejected = rule.decide(&votes) == Decision::Rejected;
            assert!(rejected || !last_rejected);
            last_rejected = rejected;
        }
        assert!(last_rejected);
    }
}
