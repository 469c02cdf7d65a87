//! Emits a machine-readable wire-cost summary (`results/BENCH_wire.json`
//! when run by `run_experiments.sh`):
//! the §VI-D communication-overhead analysis done with the real codecs
//! and the real transport.
//!
//! Three sections:
//!
//! - **analytic**: exact encoded sizes per codec at three model scales,
//!   and the per-validator history-window cost (ℓ+1 models) they imply —
//!   the paper's "reduce communication by ×10" estimate, recomputed;
//! - **measured**: a small deployment run once per [`WireProfile`] over
//!   the loopback TCP transport, reporting actual frame bytes on the
//!   wire and history bytes shipped per round;
//! - **frames_per_sec**: a loopback microbench of the frame codec +
//!   socket path on minimal envelopes.
//!
//! The binary asserts the headline claim instead of just printing it:
//! quantised history shipping (q4 dense, or the top-k chain in steady
//! state) must undercut lossless f32 by at least 4×.
//!
//! Run with `cargo run --release -p baffle-net --bin wire_report`.

use baffle_fl::WireProfile;
use baffle_net::deployment::{Deployment, DeploymentConfig, DeploymentOutcome};
use baffle_net::fault::FaultPlan;
use baffle_net::message::{Message, NodeId};
use baffle_net::socket::{SocketKind, TransportMode};
use baffle_net::transport::Network;
use baffle_nn::wire::Codec;
use baffle_tensor::pool;
use std::time::Instant;

/// ℓ, the paper's chosen look-back window for the overhead analysis.
const ELL: usize = 20;

struct ModelScale {
    name: &'static str,
    params: usize,
}

/// Steady-state top-k chain cost per entry: one sparse delta keeping
/// `keep` coordinates (u32 index + f32 value each, after the header).
fn topk_entry_bytes(keep: usize) -> usize {
    16 + 8 * keep
}

fn run_profile(profile: WireProfile) -> DeploymentOutcome {
    let mut config = DeploymentConfig::small(77);
    config.transport = TransportMode::Socket(SocketKind::Tcp);
    config.wire_profile = profile;
    Deployment::run(config)
}

fn frames_per_sec() -> f64 {
    let network =
        Network::with_transport(FaultPlan::lossless(0), TransportMode::Socket(SocketKind::Tcp));
    let a = network.register(NodeId(1));
    let b = network.register(NodeId(2));
    let count = 20_000u64;
    let start = Instant::now();
    for round in 0..count {
        a.send(NodeId(2), Message::RoundResult { round, accepted: true });
    }
    for _ in 0..count {
        b.recv().expect("loopback frame lost");
    }
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(network.wire_frames(), count, "every message must cross the wire exactly once");
    count as f64 / elapsed
}

fn main() {
    let scales = [
        ModelScale { name: "cifar-like substrate", params: 32 * 64 + 64 + 64 * 10 + 10 },
        ModelScale { name: "femnist-like substrate", params: 48 * 96 + 96 + 96 * 62 + 62 },
        ModelScale {
            name: "resnet18-scale (paper)",
            params: 512 * 2048 + 2048 + 2048 * 1024 + 1024 + 1024 * 10 + 10,
        },
    ];
    let compact = WireProfile::compact();

    println!("{{");
    println!("  \"bench\": \"wire\",");
    println!("  \"threads\": {},", pool::threads());
    println!("  \"lookback\": {ELL},");

    // ---- analytic: codec sizes and history-window cost ----
    println!("  \"analytic\": [");
    for (i, scale) in scales.iter().enumerate() {
        let n = scale.params;
        let f32_model = Codec::F32.encoded_len(n);
        let q8_model = Codec::Q8.encoded_len(n);
        let q4_model = Codec::Q4.encoded_len(n);
        let window = ELL + 1;
        let f32_history = f32_model * window;
        let q8_history = q8_model * window;
        let q4_history = q4_model * window;
        // Top-k chain in steady state: one dense q8 head amortised over
        // the window, then one sparse delta per subsequent entry.
        let keep = compact.history_keep(n).expect("compact profile keeps some");
        let topk_history = q8_model + topk_entry_bytes(keep) * ELL;
        let q4_reduction = f32_history as f64 / q4_history as f64;
        let topk_reduction = f32_history as f64 / topk_history as f64;
        assert!(
            q4_reduction >= 4.0,
            "{}: q4 history must be >=4x smaller than f32, got {q4_reduction:.2}x",
            scale.name
        );
        assert!(
            topk_reduction >= 4.0,
            "{}: top-k chain history must be >=4x smaller than f32, got {topk_reduction:.2}x",
            scale.name
        );
        println!("    {{");
        println!("      \"model\": \"{}\",", scale.name);
        println!("      \"params\": {n},");
        println!("      \"f32_model_bytes\": {f32_model},");
        println!("      \"q8_model_bytes\": {q8_model},");
        println!("      \"q4_model_bytes\": {q4_model},");
        println!("      \"f32_history_bytes\": {f32_history},");
        println!("      \"q8_history_bytes\": {q8_history},");
        println!("      \"q4_history_bytes\": {q4_history},");
        println!("      \"topk_history_bytes\": {topk_history},");
        println!("      \"q4_history_reduction\": {q4_reduction:.2},");
        println!("      \"topk_history_reduction\": {topk_reduction:.2}");
        println!("    }}{}", if i + 1 < scales.len() { "," } else { "" });
    }
    println!("  ],");

    // ---- measured: one small deployment per profile over loopback TCP ----
    let profiles = [WireProfile::lossless(), WireProfile::quantized(), WireProfile::compact()];
    let mut f32_history_shipped = 0usize;
    println!("  \"profiles\": [");
    for (i, profile) in profiles.iter().enumerate() {
        let start = Instant::now();
        let outcome = run_profile(*profile);
        let run_s = start.elapsed().as_secs_f64();
        let rounds = outcome.rounds.len();
        let history_shipped: usize = outcome.rounds.iter().map(|r| r.history_bytes_shipped).sum();
        assert!(outcome.wire_frames > 0, "socket transport must meter frames");
        if profile.label() == "f32" {
            f32_history_shipped = history_shipped;
        } else {
            assert!(
                history_shipped < f32_history_shipped,
                "{} profile must ship less history than f32 ({history_shipped} >= {f32_history_shipped})",
                profile.label()
            );
        }
        println!("    {{");
        println!("      \"profile\": \"{}\",", profile.label());
        println!("      \"rounds\": {rounds},");
        println!("      \"run_seconds\": {run_s:.3},");
        println!("      \"wire_bytes\": {},", outcome.wire_bytes);
        println!("      \"wire_frames\": {},", outcome.wire_frames);
        println!("      \"wire_bytes_per_round\": {},", outcome.wire_bytes / rounds as u64);
        println!("      \"history_bytes_shipped\": {history_shipped},");
        println!("      \"messages_sent\": {}", outcome.messages_sent);
        println!("    }}{}", if i + 1 < profiles.len() { "," } else { "" });
    }
    println!("  ],");

    // ---- frames/sec over loopback on minimal envelopes ----
    println!("  \"frames_per_sec\": {:.0}", frames_per_sec());
    println!("}}");
}
