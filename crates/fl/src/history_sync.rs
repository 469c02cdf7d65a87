//! Incremental history shipping (paper §VI-D), with acknowledgements.
//!
//! The feedback loop requires each validating client to hold the last
//! `ℓ+1` accepted global models. Shipping the full history every time a
//! client is selected costs `(ℓ+1) · |model|` bytes; but a client that
//! was selected recently already holds most of the window, so the server
//! only needs to send the models **accepted since the client's last
//! sync**. The paper estimates this caps steady-state traffic at about
//! two model-equivalents per selection; [`HistorySync`] implements the
//! bookkeeping and makes the estimate measurable.
//!
//! # Acknowledged advancement
//!
//! On a lossy link the server cannot assume a shipped delta arrived: if
//! it advanced a client's sync point at ship time and the message was
//! dropped, every later delta would skip the lost models and the client
//! would hold a **permanently gapped** window. The bookkeeping is
//! therefore a two-step handshake:
//!
//! 1. [`HistorySync::mark_shipped`] records the attempted sync point
//!    without committing it;
//! 2. [`HistorySync::ack`] commits it once the server hears back from
//!    the client for that round (a vote or an abstention both prove the
//!    request arrived).
//!
//! A delta that vanishes in flight is simply re-sent at the client's
//! next selection, because the committed sync point never moved.
//! [`HistorySync::reset`] drops a client's sync state entirely — used
//! when a client declares its window unusable (crash/restart, gapped
//! cache) so the next selection re-ships the full window.

use std::collections::HashMap;

/// Monotone identifier of an accepted global model.
pub type ModelId = u64;

/// Server-side bookkeeping for incremental history shipping.
///
/// # Example
///
/// ```
/// use baffle_fl::history_sync::HistorySync;
///
/// let mut sync = HistorySync::new(3); // history window ℓ+1 = 3
/// for _ in 0..5 {
///     sync.push_accepted();
/// }
/// // A fresh client needs the whole window …
/// assert_eq!(sync.models_to_send(7).count(), 3);
/// sync.mark_shipped(7);
/// sync.ack(7); // the client answered: the delta arrived
/// // … but after one more accepted round, only the newest model.
/// sync.push_accepted();
/// assert_eq!(sync.models_to_send(7).count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HistorySync {
    window: usize,
    next_id: ModelId,
    /// Committed sync points: the client is known to hold everything
    /// below this id (within the window).
    synced_up_to: HashMap<usize, ModelId>,
    /// Shipped-but-unacknowledged sync points. An entry here is
    /// committed by [`HistorySync::ack`] and discarded by
    /// [`HistorySync::reset`]; a stale entry (the client never answered)
    /// is simply overwritten at its next shipment.
    in_flight: HashMap<usize, ModelId>,
}

impl HistorySync {
    /// Creates the bookkeeping for a history window of `window = ℓ+1`
    /// models.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "HistorySync: window must be positive");
        Self { window, next_id: 0, synced_up_to: HashMap::new(), in_flight: HashMap::new() }
    }

    /// Records that a new global model was accepted, returning its id.
    pub fn push_accepted(&mut self) -> ModelId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Number of models accepted so far.
    pub fn accepted(&self) -> u64 {
        self.next_id
    }

    /// The history window size (`ℓ + 1`).
    pub fn window(&self) -> usize {
        self.window
    }

    /// The current history window as model ids (oldest first).
    pub fn window_ids(&self) -> std::ops::Range<ModelId> {
        let lo = self.next_id.saturating_sub(self.window as u64);
        lo..self.next_id
    }

    /// The model ids that must be sent to `client` so it holds the full
    /// current window: the part of the window it is not **confirmed** to
    /// have seen. Unacknowledged shipments do not shrink this — a delta
    /// that may have been lost is re-sent.
    pub fn models_to_send(&self, client: usize) -> std::ops::Range<ModelId> {
        let window = self.window_ids();
        let seen = self.synced_up_to.get(&client).copied().unwrap_or(0);
        seen.max(window.start)..window.end
    }

    /// The committed sync point for `client`, if any: the id below which
    /// the client is confirmed to hold everything (within the window).
    /// A committed point below [`HistorySync::window_ids`]`.start` means
    /// the client has been absent so long that models it never saw were
    /// evicted. No repair is needed — [`HistorySync::models_to_send`]
    /// clamps to the window start, so such a client is simply shipped
    /// the full window — but the condition is worth counting: it marks
    /// a full-window re-ship caused by long absence.
    pub fn sync_point(&self, client: usize) -> Option<ModelId> {
        self.synced_up_to.get(&client).copied()
    }

    /// Records that the full current window was just shipped to
    /// `client`, without committing the sync point. Call
    /// [`HistorySync::ack`] once the client proves receipt.
    pub fn mark_shipped(&mut self, client: usize) {
        self.in_flight.insert(client, self.next_id);
    }

    /// Commits `client`'s most recent shipment: the client answered, so
    /// the delta arrived. Returns `true` if a shipment was pending.
    pub fn ack(&mut self, client: usize) -> bool {
        match self.in_flight.remove(&client) {
            Some(id) => {
                self.synced_up_to.insert(client, id);
                true
            }
            None => false,
        }
    }

    /// Forgets everything about `client`'s sync state, so its next
    /// selection re-ships the full window. Used when the client declares
    /// its cached window unusable (it crashed and restarted, or its
    /// cache is gapped after losses).
    pub fn reset(&mut self, client: usize) {
        self.synced_up_to.remove(&client);
        self.in_flight.remove(&client);
    }

    /// Sets `client`'s committed sync point directly, bypassing the
    /// ship/ack handshake. This is the WAL-replay path: a recovering
    /// server re-applies the commits a journaled round produced without
    /// re-enacting the shipments that earned them. Outside replay the
    /// handshake ([`HistorySync::mark_shipped`] + [`HistorySync::ack`])
    /// is the only safe way to advance a point.
    pub fn commit(&mut self, client: usize, id: ModelId) {
        self.synced_up_to.insert(client, id);
    }

    /// Ship-and-commit in one step — for loss-free simulation paths
    /// where delivery is guaranteed and no acknowledgement exists.
    pub fn mark_synced(&mut self, client: usize) {
        self.mark_shipped(client);
        self.ack(client);
    }

    /// Bytes needed to bring `client` up to date, given a serialized
    /// model size.
    pub fn bytes_to_send(&self, client: usize, model_bytes: usize) -> usize {
        self.models_to_send(client).count() * model_bytes
    }

    /// The committed sync points, sorted by client — for checkpointing.
    /// In-flight shipments are deliberately excluded: an unacknowledged
    /// delta must be treated as lost across a restore, which the
    /// re-shipping logic already handles.
    pub fn committed(&self) -> Vec<(usize, ModelId)> {
        let mut out: Vec<(usize, ModelId)> =
            self.synced_up_to.iter().map(|(&c, &id)| (c, id)).collect();
        out.sort_unstable();
        out
    }

    /// Rebuilds the bookkeeping from checkpointed state (see
    /// [`HistorySync::committed`]).
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn restore(
        window: usize,
        next_id: ModelId,
        committed: impl IntoIterator<Item = (usize, ModelId)>,
    ) -> Self {
        assert!(window > 0, "HistorySync: window must be positive");
        Self {
            window,
            next_id,
            synced_up_to: committed.into_iter().collect(),
            in_flight: HashMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_client_needs_full_window() {
        let mut sync = HistorySync::new(21);
        for _ in 0..100 {
            sync.push_accepted();
        }
        assert_eq!(sync.models_to_send(3).count(), 21);
    }

    #[test]
    fn early_history_smaller_than_window() {
        let mut sync = HistorySync::new(21);
        for _ in 0..5 {
            sync.push_accepted();
        }
        assert_eq!(sync.models_to_send(0).count(), 5);
    }

    #[test]
    fn recently_synced_client_gets_only_the_delta() {
        let mut sync = HistorySync::new(21);
        for _ in 0..50 {
            sync.push_accepted();
        }
        sync.mark_synced(9);
        for _ in 0..2 {
            sync.push_accepted();
        }
        assert_eq!(sync.models_to_send(9).count(), 2);
    }

    #[test]
    fn long_absent_client_is_capped_at_the_window() {
        let mut sync = HistorySync::new(10);
        sync.push_accepted();
        sync.mark_synced(1);
        for _ in 0..500 {
            sync.push_accepted();
        }
        // 500 models passed, but only the current window matters.
        assert_eq!(sync.models_to_send(1).count(), 10);
    }

    #[test]
    fn unacknowledged_shipment_is_resent() {
        let mut sync = HistorySync::new(8);
        for _ in 0..5 {
            sync.push_accepted();
        }
        let first = sync.models_to_send(4);
        sync.mark_shipped(4);
        // The delta vanished in flight: the client never answered, so
        // the next selection must re-ship exactly the same models (plus
        // anything accepted since).
        assert_eq!(sync.models_to_send(4), first.clone());
        sync.push_accepted();
        assert_eq!(sync.models_to_send(4), first.start..6);
    }

    #[test]
    fn ack_commits_the_latest_shipment() {
        let mut sync = HistorySync::new(8);
        for _ in 0..5 {
            sync.push_accepted();
        }
        sync.mark_shipped(2);
        assert!(sync.ack(2), "a pending shipment must acknowledge");
        assert_eq!(sync.models_to_send(2).count(), 0);
        assert!(!sync.ack(2), "double-ack has nothing to commit");
        // An ack with no shipment at all is a no-op.
        assert!(!sync.ack(7));
        assert_eq!(sync.models_to_send(7).count(), 5);
    }

    #[test]
    fn reset_forces_a_full_window_reship() {
        let mut sync = HistorySync::new(4);
        for _ in 0..10 {
            sync.push_accepted();
        }
        sync.mark_synced(3);
        assert_eq!(sync.models_to_send(3).count(), 0);
        // The client restarted (or reported a gapped cache): everything
        // it held is gone, so the full window must go out again.
        sync.reset(3);
        assert_eq!(sync.models_to_send(3), sync.window_ids());
        assert_eq!(sync.models_to_send(3).count(), 4);
    }

    #[test]
    fn reset_discards_in_flight_shipments_too() {
        let mut sync = HistorySync::new(4);
        for _ in 0..6 {
            sync.push_accepted();
        }
        sync.mark_shipped(1);
        sync.reset(1);
        // A late ack for the pre-reset shipment must not resurrect it.
        assert!(!sync.ack(1));
        assert_eq!(sync.models_to_send(1), sync.window_ids());
    }

    #[test]
    fn sync_point_reports_eviction_lag() {
        let mut sync = HistorySync::new(4);
        for _ in 0..4 {
            sync.push_accepted();
        }
        assert_eq!(sync.sync_point(2), None, "never-synced client has no point");
        sync.mark_synced(2);
        assert_eq!(sync.sync_point(2), Some(4));
        // 6 more accepted models push the window past the sync point.
        for _ in 0..6 {
            sync.push_accepted();
        }
        let point = sync.sync_point(2).unwrap();
        assert!(point < sync.window_ids().start, "point {point} must predate the window");
        sync.reset(2);
        assert_eq!(sync.sync_point(2), None);
    }

    #[test]
    fn restore_round_trips_committed_state() {
        let mut sync = HistorySync::new(5);
        for _ in 0..9 {
            sync.push_accepted();
        }
        sync.mark_synced(0);
        sync.push_accepted();
        sync.mark_synced(4);
        sync.mark_shipped(6); // unacked: must NOT survive the round trip
        let mut restored = HistorySync::restore(sync.window(), sync.accepted(), sync.committed());
        for c in [0, 4, 6, 9] {
            assert_eq!(
                restored.models_to_send(c),
                sync.models_to_send(c),
                "client {c} diverged after restore"
            );
        }
        assert!(!restored.ack(6), "in-flight state is dropped across restore");
    }

    #[test]
    fn commit_sets_the_point_without_a_handshake() {
        let mut sync = HistorySync::new(5);
        for _ in 0..8 {
            sync.push_accepted();
        }
        // WAL replay: re-apply a journaled commit directly.
        sync.commit(3, 6);
        assert_eq!(sync.sync_point(3), Some(6));
        assert_eq!(sync.models_to_send(3), 6..8);
        assert!(!sync.ack(3), "commit leaves nothing in flight");
    }

    #[test]
    fn restore_with_no_committed_points_matches_a_fresh_sync() {
        // Empty window of commits: every client is unknown and gets the
        // full (possibly empty) window.
        let mut restored = HistorySync::restore(4, 0, std::iter::empty());
        assert_eq!(restored.accepted(), 0);
        assert_eq!(restored.window_ids(), 0..0);
        assert_eq!(restored.models_to_send(0).count(), 0);
        // And it keeps behaving like a fresh instance afterwards.
        restored.push_accepted();
        assert_eq!(restored.models_to_send(7), 0..1, "first accepted model ships to everyone");
    }

    #[test]
    fn restore_with_a_single_entry_window_survives() {
        // Window of one (ℓ = 0): the degenerate minimum the constructor
        // allows. Only the newest model ever ships.
        let restored = HistorySync::restore(1, 5, [(2usize, 5u64)]);
        assert_eq!(restored.window_ids(), 4..5);
        assert_eq!(restored.models_to_send(2).count(), 0, "client 2 holds the whole window");
        assert_eq!(restored.models_to_send(9), 4..5, "strangers get the single-model window");
    }

    #[test]
    fn restore_where_the_oldest_window_entry_equals_the_committed_point() {
        // The eviction boundary: the client's committed point lands
        // exactly on the oldest surviving window entry. Nothing the
        // client holds was evicted, so this must NOT count as an
        // eviction lag (`sync_point < window start`) and the delta must
        // start exactly at the point — no full-window re-ship.
        let window = 4;
        let next = 10;
        let restored = HistorySync::restore(window, next, [(3usize, 6u64)]);
        assert_eq!(restored.window_ids(), 6..10);
        let point = restored.sync_point(3).unwrap();
        assert_eq!(point, restored.window_ids().start, "point sits on the boundary");
        assert!(point >= restored.window_ids().start, "boundary is not eviction lag");
        assert_eq!(restored.models_to_send(3), 6..10, "delta starts exactly at the point");
    }

    #[test]
    fn bytes_accounting_multiplies_by_model_size() {
        let mut sync = HistorySync::new(4);
        for _ in 0..4 {
            sync.push_accepted();
        }
        assert_eq!(sync.bytes_to_send(0, 1000), 4000);
        sync.mark_synced(0);
        sync.push_accepted();
        assert_eq!(sync.bytes_to_send(0, 1000), 1000);
    }

    #[test]
    fn steady_state_cost_matches_paper_estimate() {
        // Paper §VI-D: with 1/10 selection probability per round and a
        // 20-round window, a client re-selected within the window only
        // downloads the models accepted since — on average ≈ 10 models
        // per selection (selection gap is geometric with mean 10).
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut sync = HistorySync::new(21);
        let clients = 100;
        let mut sent = 0usize;
        let mut selections = 0usize;
        for _ in 0..2_000 {
            sync.push_accepted();
            for c in 0..clients {
                if rng.gen_bool(0.1) {
                    sent += sync.models_to_send(c).count();
                    sync.mark_synced(c);
                    selections += 1;
                }
            }
        }
        let avg = sent as f64 / selections as f64;
        assert!(
            (6.0..14.0).contains(&avg),
            "steady-state models per selection = {avg} (expected ≈ 10, well below the 21 full window)"
        );
    }
}
