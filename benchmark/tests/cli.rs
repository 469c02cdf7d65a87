//! The command line's refusals, and the agreement between the tables in
//! `src/spec.rs` and the `/BENCHMARK.json` the driver reads.

use std::process::Command;

fn benchmark() -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_baffle-benchmark"));
    command.env_remove("BAFFLE_TRANSPORT").env_remove("BAFFLE_WIRE_PROFILE");
    command
}

#[test]
fn benchmark_json_is_what_the_tables_say() {
    let printed = benchmark().arg("manifest").output().expect("run manifest");
    assert!(printed.status.success());
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("read /BENCHMARK.json");
    assert_eq!(
        String::from_utf8(printed.stdout).expect("utf-8"),
        committed,
        "regenerate with: cargo run --release --offline -- manifest > ../BENCHMARK.json"
    );
}

#[test]
fn inherited_transport_or_profile_switches_are_refused() {
    for var in ["BAFFLE_TRANSPORT", "BAFFLE_WIRE_PROFILE"] {
        let out = benchmark()
            .env(var, "tcp")
            .args(["--workload", "sim_cifar", "--seed", "1", "--rounds", "1"])
            .output()
            .expect("run benchmark");
        assert_eq!(out.status.code(), Some(2), "{var} must stop the run");
        assert!(out.stdout.is_empty(), "no result may be printed");
        assert!(String::from_utf8_lossy(&out.stderr).contains(var));
    }
}

#[test]
fn malformed_command_lines_print_no_result() {
    let cases: [&[&str]; 4] = [
        &["--workload", "no_such_workload", "--seconds", "1"],
        &["--workload", "sim_cifar"],
        &["--workload", "sim_cifar", "--seconds", "1", "--trace", "2"],
        &["frobnicate"],
    ];
    for args in cases {
        let out = benchmark().args(args).output().expect("run benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
