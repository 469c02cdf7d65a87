//! Deterministic fault injection for the in-process transport.
//!
//! A [`FaultPlan`] describes everything that can go wrong on the wire:
//! per-link [`LinkPolicy`]s (i.i.d. drop, delay with jitter, duplication,
//! reordering, payload byte-corruption) plus **round-scoped scripted
//! events** — partition node X during rounds `a..=b`, crash-stop client
//! Y at round `r` and restart it at round `r'`, or drop every message of
//! one kind to one destination in a given round. All randomness is drawn
//! from one seeded RNG owned by the [`Network`](crate::transport::Network),
//! so a plan replays the same fault decisions for the same send sequence.
//!
//! The probabilistic faults model a flaky link; the scripted events model
//! the failures the paper's footnote 1 glosses over (silent validators)
//! plus the ones it does not mention at all: node crashes and partitions
//! that leave a validator's cached history window stale or gapped. The
//! recovery machinery those faults flush out — acknowledged history sync,
//! client window repair, server checkpointing — lives in
//! [`crate::server`], [`crate::client`] and
//! [`baffle_fl::history_sync`].

use crate::message::{Message, NodeId};
use baffle_nn::wire;
use bytes::{Bytes, BytesMut};
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::RangeInclusive;
use std::time::Duration;

/// Per-link fault probabilities and latency. The default is a perfect
/// link ([`LinkPolicy::lossless`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPolicy {
    /// Probability of dropping a message outright.
    pub drop_prob: f64,
    /// Base one-way latency added to every message.
    pub delay: Duration,
    /// Uniform extra latency in `[0, jitter]` added per message.
    pub jitter: Duration,
    /// Probability of delivering a message twice.
    pub duplicate_prob: f64,
    /// Probability of holding a message back by an extra uniform delay
    /// in `(0, reorder_window]`, letting later sends overtake it.
    pub reorder_prob: f64,
    /// Maximum holdback applied to a reordered message.
    pub reorder_window: Duration,
    /// Probability of flipping bits in the message's wire payload.
    /// Corruption touches only payload bytes (past the codec header), so
    /// the damage is detectable by the [`baffle_nn::wire`] checksum and
    /// attributable to the link rather than the sender.
    pub corrupt_prob: f64,
}

impl LinkPolicy {
    /// A perfect link: nothing is dropped, delayed, duplicated,
    /// reordered or corrupted.
    pub const fn lossless() -> Self {
        Self {
            drop_prob: 0.0,
            delay: Duration::ZERO,
            jitter: Duration::ZERO,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_window: Duration::ZERO,
            corrupt_prob: 0.0,
        }
    }

    /// Sets the i.i.d. drop probability (closed interval `[0, 1]` —
    /// `1.0` expresses a total blackout).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`; same for the other `with_*`
    /// probability setters.
    pub fn with_drop(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop_prob must be in [0, 1], got {p}");
        self.drop_prob = p;
        self
    }

    /// Sets the base delay and uniform jitter.
    pub fn with_delay(mut self, base: Duration, jitter: Duration) -> Self {
        self.delay = base;
        self.jitter = jitter;
        self
    }

    /// Sets the duplication probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "duplicate_prob must be in [0, 1], got {p}");
        self.duplicate_prob = p;
        self
    }

    /// Sets the reordering probability and holdback window.
    pub fn with_reorder(mut self, p: f64, window: Duration) -> Self {
        assert!((0.0..=1.0).contains(&p), "reorder_prob must be in [0, 1], got {p}");
        self.reorder_prob = p;
        self.reorder_window = window;
        self
    }

    /// Sets the payload-corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "corrupt_prob must be in [0, 1], got {p}");
        self.corrupt_prob = p;
        self
    }

    /// Whether any probabilistic fault can fire on this link.
    pub fn is_active(&self) -> bool {
        self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.reorder_prob > 0.0
            || self.corrupt_prob > 0.0
            || self.delay > Duration::ZERO
            || self.jitter > Duration::ZERO
    }

    /// Whether this link can defer delivery (needs the delivery pump).
    pub fn needs_pump(&self) -> bool {
        self.delay > Duration::ZERO || self.jitter > Duration::ZERO || self.reorder_prob > 0.0
    }
}

impl Default for LinkPolicy {
    fn default() -> Self {
        Self::lossless()
    }
}

/// Selects the links a [`LinkPolicy`] override applies to. `None` on
/// either side means "any node".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSelector {
    /// Sending side, or any.
    pub from: Option<NodeId>,
    /// Receiving side, or any.
    pub to: Option<NodeId>,
}

impl LinkSelector {
    /// Every link.
    pub const ANY: LinkSelector = LinkSelector { from: None, to: None };

    /// Every link delivering *to* `node`.
    pub fn to(node: NodeId) -> Self {
        Self { from: None, to: Some(node) }
    }

    /// Every link sending *from* `node`.
    pub fn from(node: NodeId) -> Self {
        Self { from: Some(node), to: None }
    }

    /// Whether this selector covers the `(from, to)` link.
    pub fn matches(&self, from: NodeId, to: NodeId) -> bool {
        self.from.is_none_or(|f| f == from) && self.to.is_none_or(|t| t == to)
    }
}

/// A round-scoped scripted failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Node `node` is unreachable during `rounds` (inclusive): every
    /// message to or from it is dropped at the transport.
    Partition {
        /// The partitioned node.
        node: NodeId,
        /// Protocol rounds (1-based, inclusive) the partition spans.
        rounds: RangeInclusive<u64>,
    },
    /// Client `node` crash-stops at the start of round `at_round` (its
    /// actor exits and all in-memory state — including the cached
    /// history window — is lost) and, if `restart_round` is set, rejoins
    /// with fresh state at the start of that round.
    ///
    /// The transport only records this event; executing it (stopping and
    /// respawning the actor) is the deployment harness's job, via
    /// [`FaultPlan::crashes_at`] / [`FaultPlan::restarts_at`].
    Crash {
        /// The crashing client.
        node: NodeId,
        /// Round (1-based) at whose start the client dies.
        at_round: u64,
        /// Round at whose start it rejoins, if ever.
        restart_round: Option<u64>,
    },
    /// Every message of kind `kind` (see [`Message::kind`]) addressed to
    /// `to` is dropped during `rounds` — a surgical fault for regression
    /// tests (e.g. "lose exactly the `ValidateRequest`s of round 2").
    DropKind {
        /// Destination whose inbound messages are filtered, or any.
        to: Option<NodeId>,
        /// Rounds (1-based, inclusive) the filter is active.
        rounds: RangeInclusive<u64>,
        /// The [`Message::kind`] label to drop.
        kind: &'static str,
    },
}

/// A seeded, deterministic description of everything the transport
/// should inflict: a default [`LinkPolicy`], per-link overrides (first
/// matching selector wins), and scripted [`FaultEvent`]s.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for the transport's fault RNG.
    pub seed: u64,
    default_policy: LinkPolicy,
    links: Vec<(LinkSelector, LinkPolicy)>,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan that injects nothing (the transport behaves perfectly).
    pub fn lossless(seed: u64) -> Self {
        Self { seed, ..Self::default() }
    }

    /// A plan applying `policy` to every link.
    pub fn uniform(policy: LinkPolicy, seed: u64) -> Self {
        Self { seed, default_policy: policy, links: Vec::new(), events: Vec::new() }
    }

    /// Adds a per-link policy override. Overrides are consulted in
    /// insertion order; the first matching selector wins.
    pub fn link(mut self, selector: LinkSelector, policy: LinkPolicy) -> Self {
        self.links.push((selector, policy));
        self
    }

    /// Adds a scripted event.
    pub fn event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// The policy governing the `(from, to)` link.
    pub fn policy(&self, from: NodeId, to: NodeId) -> &LinkPolicy {
        self.links
            .iter()
            .find(|(sel, _)| sel.matches(from, to))
            .map(|(_, p)| p)
            .unwrap_or(&self.default_policy)
    }

    /// Whether any link can ever defer delivery.
    pub fn needs_pump(&self) -> bool {
        self.default_policy.needs_pump() || self.links.iter().any(|(_, p)| p.needs_pump())
    }

    /// Whether `node` is partitioned during `round`.
    pub fn is_partitioned(&self, round: u64, node: NodeId) -> bool {
        self.events.iter().any(|e| {
            matches!(e, FaultEvent::Partition { node: n, rounds } if *n == node && rounds.contains(&round))
        })
    }

    /// Whether a scripted [`FaultEvent::DropKind`] filter drops a
    /// message of `kind` addressed to `to` during `round`.
    pub fn drops_kind(&self, round: u64, to: NodeId, kind: &str) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                FaultEvent::DropKind { to: t, rounds, kind: k }
                    if t.is_none_or(|t| t == to) && rounds.contains(&round) && *k == kind
            )
        })
    }

    /// Clients scripted to crash-stop at the start of `round`.
    pub fn crashes_at(&self, round: u64) -> impl Iterator<Item = NodeId> + '_ {
        self.events.iter().filter_map(move |e| match e {
            FaultEvent::Crash { node, at_round, .. } if *at_round == round => Some(*node),
            _ => None,
        })
    }

    /// Clients scripted to rejoin with fresh state at the start of
    /// `round`.
    pub fn restarts_at(&self, round: u64) -> impl Iterator<Item = NodeId> + '_ {
        self.events.iter().filter_map(move |e| match e {
            FaultEvent::Crash { node, restart_round: Some(r), .. } if *r == round => Some(*node),
            _ => None,
        })
    }

    /// The scripted events, for harnesses that execute them.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// A one-line human summary — printed by chaos tests on failure so
    /// a panicking seed reproduces without bisecting: the fault RNG
    /// seed, the default link policy, every per-link override and the
    /// scripted events.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let policy = |p: &LinkPolicy| {
            format!(
                "drop {:.2} · delay {:?}+{:?} · dup {:.2} · reorder {:.2}@{:?} · corrupt {:.2}",
                p.drop_prob,
                p.delay,
                p.jitter,
                p.duplicate_prob,
                p.reorder_prob,
                p.reorder_window,
                p.corrupt_prob
            )
        };
        let mut out =
            format!("fault seed {} | default link: {}", self.seed, policy(&self.default_policy));
        for (selector, p) in &self.links {
            let _ = write!(out, " | link {selector:?}: {}", policy(p));
        }
        for event in &self.events {
            let _ = write!(out, " | event {event:?}");
        }
        out
    }
}

/// Flips 1–4 random bits in one wire payload of `message`, past the
/// codec header so the damage lands in checksummed territory (a real
/// link-layer CRC would catch header damage; the end-to-end checksum is
/// what the protocol itself must survive). Returns `false` when the
/// message carries no corruptible payload.
pub(crate) fn corrupt_message(message: &mut Message, rng: &mut StdRng) -> bool {
    let payload: &mut Bytes = match message {
        Message::TrainRequest { global, .. } => global,
        Message::UpdateSubmission { update, .. } => update,
        Message::ValidateRequest { candidate, history_delta, .. } => {
            // Damage one of the shipped models uniformly: the candidate
            // or a history entry (gapping the client's window is exactly
            // the failure mode the sync protocol must absorb).
            let n = history_delta.len();
            if n > 0 && rng.gen_range(0..=n) > 0 {
                &mut history_delta[rng.gen_range(0..n)].params
            } else {
                candidate
            }
        }
        _ => return false,
    };
    if payload.len() <= wire::HEADER {
        return false;
    }
    let mut buf = BytesMut::from(payload.as_ref());
    for _ in 0..rng.gen_range(1..=4u32) {
        let at = rng.gen_range(wire::HEADER..buf.len());
        buf[at] ^= 1 << rng.gen_range(0..8u32);
    }
    *payload = buf.freeze();
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn selector_matching() {
        let any = LinkSelector::ANY;
        assert!(any.matches(NodeId(0), NodeId(1)));
        let to_two = LinkSelector::to(NodeId(2));
        assert!(to_two.matches(NodeId(7), NodeId(2)));
        assert!(!to_two.matches(NodeId(2), NodeId(7)));
        let from_srv = LinkSelector::from(NodeId::SERVER);
        assert!(from_srv.matches(NodeId::SERVER, NodeId(0)));
        assert!(!from_srv.matches(NodeId(0), NodeId::SERVER));
    }

    #[test]
    fn first_matching_link_override_wins() {
        let plan = FaultPlan::uniform(LinkPolicy::lossless().with_drop(0.1), 1)
            .link(LinkSelector::to(NodeId(3)), LinkPolicy::lossless().with_drop(0.9))
            .link(LinkSelector::ANY, LinkPolicy::lossless());
        assert_eq!(plan.policy(NodeId(0), NodeId(3)).drop_prob, 0.9);
        assert_eq!(plan.policy(NodeId(0), NodeId(4)).drop_prob, 0.0, "ANY override wins");
    }

    #[test]
    fn scripted_events_are_round_scoped() {
        let plan = FaultPlan::lossless(0)
            .event(FaultEvent::Partition { node: NodeId(5), rounds: 2..=3 })
            .event(FaultEvent::Crash { node: NodeId(1), at_round: 4, restart_round: Some(6) })
            .event(FaultEvent::DropKind { to: None, rounds: 2..=2, kind: "validate-request" });
        assert!(!plan.is_partitioned(1, NodeId(5)));
        assert!(plan.is_partitioned(2, NodeId(5)));
        assert!(plan.is_partitioned(3, NodeId(5)));
        assert!(!plan.is_partitioned(4, NodeId(5)));
        assert_eq!(plan.crashes_at(4).collect::<Vec<_>>(), vec![NodeId(1)]);
        assert_eq!(plan.crashes_at(5).count(), 0);
        assert_eq!(plan.restarts_at(6).collect::<Vec<_>>(), vec![NodeId(1)]);
        assert!(plan.drops_kind(2, NodeId(9), "validate-request"));
        assert!(!plan.drops_kind(3, NodeId(9), "validate-request"));
        assert!(!plan.drops_kind(2, NodeId(9), "train-request"));
    }

    #[test]
    fn corruption_is_detectable_and_header_safe() {
        let mut rng = StdRng::seed_from_u64(7);
        let params = vec![0.5f32; 100];
        for _ in 0..50 {
            let mut msg = Message::TrainRequest { round: 1, global: wire::encode_f32(&params) };
            assert!(corrupt_message(&mut msg, &mut rng));
            let Message::TrainRequest { global, .. } = &msg else { unreachable!() };
            let err = wire::decode_f32(global).expect_err("corruption must not decode cleanly");
            assert!(err.is_corruption(), "damage must be attributed to the link: {err}");
        }
    }

    #[test]
    fn messages_without_wire_payloads_are_never_corrupted() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut msg = Message::RoundResult { round: 3, accepted: true };
        assert!(!corrupt_message(&mut msg, &mut rng));
        let mut msg = Message::Shutdown;
        assert!(!corrupt_message(&mut msg, &mut rng));
    }
}
