#!/bin/sh
# Regenerates every table and figure of the paper (plus the extension
# experiments) into results/. Takes on the order of 1-2 hours at the
# default 5 repetitions; pass --fast through EXP_FLAGS for a smoke run:
#   EXP_FLAGS=--fast ./run_experiments.sh
set -x
cd "$(dirname "$0")"
cargo build --release -p baffle-core -p baffle-baselines --bins
# Paper artifacts.
./target/release/fig2_per_class_error   $EXP_FLAGS --out results/fig2.txt                  > results/fig2.log 2>&1
cargo run --release -p baffle-net --bin wire_report > results/BENCH_wire.json 2> results/wire_report.log
./target/release/fig4_early_poisoning   $EXP_FLAGS --out results/fig4.txt                  > results/fig4.log 2>&1
./target/release/table2_adaptive        $EXP_FLAGS --out results/table2.txt                > results/table2.log 2>&1
./target/release/fig5_vote_distribution $EXP_FLAGS --out results/fig5.txt                  > results/fig5.log 2>&1
./target/release/table1_lookback        $EXP_FLAGS --out results/table1.txt                > results/table1.log 2>&1
./target/release/fig3_quorum            $EXP_FLAGS --out results/fig3.txt                  > results/fig3.log 2>&1
# Extensions.
./target/release/ext_boost_sweep        $EXP_FLAGS --out results/ext_boost_sweep.txt       > results/ext_boost.log 2>&1
./target/release/ext_writer_partition   $EXP_FLAGS --out results/ext_writer_partition.txt  > results/ext_writer.log 2>&1
./target/release/ext_deferred_validation  $EXP_FLAGS --out results/ext_deferred_validation.txt > results/ext_deferred.log 2>&1
./target/release/ext_cnn_substrate        $EXP_FLAGS --out results/ext_cnn_substrate.txt     > results/ext_cnn.log 2>&1
./target/release/ext_malicious_voters   $EXP_FLAGS --out results/ext_malicious_voters.txt  > results/ext_voters.log 2>&1
./target/release/baseline_comparison    $EXP_FLAGS --out results/baseline_comparison.txt   > results/baseline.log 2>&1
./target/release/ablation_detector      $EXP_FLAGS --out results/ablation_detector.txt     > results/ablation.log 2>&1
echo ALL_EXPERIMENTS_DONE
