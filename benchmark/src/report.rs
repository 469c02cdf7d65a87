//! Turning measurements into reports: the single-workload result, the
//! multi-workload `run` / `layers` files with their machine block, and
//! `compare`.

use crate::e2e::{self, Budget, EndToEnd};
use crate::json::{self, obj, Value};
use crate::layers;
use crate::replay::{Fixture, Replay, Shapes};
use crate::spec::{self, Better, Bound, Metric, Workload};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// One workload's result in both shapes.
pub struct Measured {
    /// The one-line object the benchmark contract asks for.
    pub contract: Value,
    /// The same plus checks, sample counts and the workload-specific
    /// end-to-end metrics — what `run` / `layers` files collect.
    pub full: Value,
}

fn metric_object(metrics: &[(String, f64, &str)]) -> Value {
    obj(metrics.iter().map(|(name, value, unit)| {
        (name.as_str(), obj([("value", Value::from(*value)), ("unit", Value::from(*unit))]))
    }))
}

/// The end-to-end metrics every workload has, then the partial ones.
fn end_to_end_metrics(run: &EndToEnd) -> Vec<(String, f64, &'static str)> {
    let values = [
        run.setup_s,
        run.rounds_per_s(),
        run.round_ms_p50(),
        run.round_ms_p95().0,
        run.cpu_ms_per_round,
        run.peak_rss_mb,
    ];
    let partial = [
        run.messages_per_round,
        run.wire_bytes_per_round,
        run.recovery_ms_p50(),
        run.fn_rate(),
        run.fp_rate(),
        run.failed_rounds_share(),
    ];
    spec::END_TO_END
        .iter()
        .zip(values)
        .chain(spec::END_TO_END_PARTIAL.iter().zip(partial))
        .map(|(m, v)| (m.name.to_string(), v, m.unit))
        .collect()
}

/// The traced pass: replay with spans, per-module timings at the
/// workload's shapes, and an end-to-end run for the numbers only a live
/// system has (phase waits, dispatch tallies, transport counters).
fn per_layer_metrics(
    workload: Workload,
    seed: u64,
    budget: Budget,
    out_dir: &Path,
) -> (Vec<(String, f64, &'static str)>, EndToEnd) {
    let scratch = out_dir.join("tmp");
    let fixture = Fixture::build(Shapes::of(workload, seed), seed);
    let replay_log = scratch.join(format!("replay-{}.log", std::process::id()));
    let mut replay = Replay::new(fixture, seed, &replay_log);
    let trace = replay.run();
    let _ = std::fs::remove_file(&replay_log);
    let trace_path = out_dir.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&trace_path, replay.trace_json(workload).compact())
        .unwrap_or_else(|e| panic!("write {}: {e}", trace_path.display()));

    let mut values: BTreeMap<String, f64> =
        layers::measure(&replay, seed, &scratch).into_iter().collect();
    drop(replay);

    let run = e2e::run(workload, seed, budget, &scratch);
    let dispatch = ["blocked", "simd", "banded", "batched", "fma"];
    for (name, per_round) in dispatch.iter().zip(run.dispatch_per_round) {
        values.insert(format!("tensor.gemm.dispatch_{name}"), per_round);
    }
    values.insert("core.validate.cache_hit_ratio".into(), trace.cache_hit_ratio);
    values.insert("net.transport.frames_per_round".into(), run.frames_per_round);
    values.insert("net.scheduler.launch_ms".into(), run.launch_ms);
    values.insert("net.scheduler.rendezvous_us".into(), median(&run.rendezvous_us));
    values.insert("net.server.update_phase_ms_p50".into(), median(&run.update_phase_ms));
    values.insert("net.server.vote_phase_ms_p50".into(), median(&run.vote_phase_ms));
    values.insert("net.server.self_ms_p50".into(), median(&run.server_self_ms));
    values.insert("net.server.evicted_resyncs_per_round".into(), run.evicted_resyncs_per_round);
    values.insert("net.server.duplicate_deliveries".into(), run.duplicate_deliveries as f64);
    values.insert("net.server.history_bytes_per_round".into(), run.history_bytes_per_round);
    values.insert("recovery_samples".into(), run.recovery_ms.len() as f64);
    values.insert("trace.replay_round_ms".into(), trace.replay_round_ms);
    // The replay is serial, so its round compares with the CPU time —
    // not the wall-clock — the live system spends per round.
    values.insert("trace.coverage".into(), trace.replay_round_ms / run.cpu_ms_per_round);
    for (span, self_ms) in &trace.self_ms {
        values.insert(format!("trace.self_ms.{span}"), *self_ms);
    }
    for (name, value, _) in end_to_end_metrics(&run) {
        values.insert(name, value);
    }

    let metrics = spec::per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let value =
                values.get(&name).copied().unwrap_or_else(|| panic!("{name} was never measured"));
            (name, value, unit)
        })
        .collect();
    (metrics, run)
}

/// Runs one workload in this process.
pub fn measure(
    workload: Workload,
    seed: u64,
    budget: Budget,
    trace: bool,
    out_dir: &Path,
) -> Measured {
    let (all, run) = if trace {
        // Half the budget goes to the live run; the replay and the
        // per-module timings have fixed sizes of their own.
        let live = match budget {
            Budget::Seconds(s) => Budget::Seconds(s / 2.0),
            Budget::Rounds(n) => Budget::Rounds((n / 2).max(1)),
        };
        per_layer_metrics(workload, seed, live, out_dir)
    } else {
        let run = e2e::run(workload, seed, budget, &out_dir.join("tmp"));
        (end_to_end_metrics(&run), run)
    };
    // The contract line carries the per-layer list, or the end-to-end
    // metrics every workload has; the result files keep everything.
    let listed = if trace { &all[..] } else { &all[..spec::END_TO_END.len()] };
    let contract = obj([
        ("correct", Value::from(run.correct())),
        ("attempted", Value::from(run.rounds)),
        ("failed", Value::from(run.failed_rounds)),
        ("metrics", metric_object(listed)),
    ]);
    let (_, beyond_p95) = run.round_ms_p95();
    let full = obj([
        ("workload", Value::from(workload.name())),
        ("seed", Value::from(seed)),
        ("trace", Value::from(trace)),
        ("correct", Value::from(run.correct())),
        ("attempted", Value::from(run.rounds)),
        ("failed", Value::from(run.failed_rounds)),
        ("failures", Value::from(run.failures.iter().take(10).cloned().collect::<Vec<_>>())),
        ("wall_s", Value::from(run.wall_s)),
        ("episode_fp_rates", Value::from(run.episode_fp_rates.clone())),
        (
            "samples",
            obj([
                ("round_ms", Value::from(run.round_ms.len())),
                ("round_ms_beyond_p95", Value::from(beyond_p95)),
                ("recovery_ms", Value::from(run.recovery_ms.len())),
                ("poisoned_rounds", Value::from(run.detection.poisoned())),
                ("honest_rounds", Value::from(run.detection.clean())),
            ]),
        ),
        ("metrics", metric_object(&all)),
    ]);
    Measured { contract, full }
}

// --- machine block -----------------------------------------------------------

fn command_line(program: &str, args: &[&str], dir: Option<&Path>) -> Option<String> {
    let mut command = Command::new(program);
    command.args(args).stdin(Stdio::null()).stderr(Stdio::null());
    if let Some(dir) = dir {
        command.current_dir(dir);
    }
    let output = command.output().ok()?;
    output.status.success().then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Where the numbers came from: CPU, parallelism, toolchain, commit and
/// any `BAFFLE_*` switch in force.
fn machine() -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let unknown = || "unknown".to_string();
    let baffle_env: Vec<(String, Value)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("BAFFLE_"))
        .map(|(k, v)| (k, Value::from(v)))
        .collect();
    obj([
        ("cpu_model", Value::from(cpu_model)),
        ("nproc", Value::from(nproc)),
        ("pool_threads", Value::from(baffle_tensor::pool::threads())),
        ("rustc", Value::from(command_line("rustc", &["-V"], None).unwrap_or_else(unknown))),
        (
            "git_sha",
            Value::from(
                command_line("git", &["rev-parse", "HEAD"], Some(manifest)).unwrap_or_else(unknown),
            ),
        ),
        ("baffle_env", Value::Obj(baffle_env)),
    ])
}

/// The benchmark's declaration for the driver — `BENCHMARK.json` at the
/// repository root is this, verbatim (`tests/cli.rs` holds them
/// together).
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let end_to_end: Vec<Value> = spec::END_TO_END
        .iter()
        .map(|m| {
            let Bound::Relative(bound) = m.bound else {
                panic!("{}: end-to-end bounds are shares of the median", m.name)
            };
            obj([
                ("name", Value::from(m.name)),
                ("unit", Value::from(m.unit)),
                ("better", Value::from(m.better.label())),
                ("bound", Value::from(bound)),
            ])
        })
        .collect();
    let per_layer: Vec<Value> = spec::per_layer()
        .into_iter()
        .map(|(name, unit, better)| {
            obj([
                ("name", Value::from(name)),
                ("unit", Value::from(unit)),
                ("better", Value::from(better.label())),
            ])
        })
        .collect();
    let workloads: Vec<Value> = Workload::ALL
        .iter()
        .map(|w| obj([("name", Value::from(w.name())), ("why", Value::from(w.why()))]))
        .collect();
    obj([
        ("command", Value::from(command.to_vec())),
        ("paths", Value::from(vec!["benchmark"])),
        ("run_seconds", Value::from(spec::RUN_SECONDS)),
        ("workloads", Value::Arr(workloads)),
        ("end_to_end", Value::Arr(end_to_end)),
        ("per_layer", Value::Arr(per_layer)),
    ])
}

// --- run / layers ----------------------------------------------------------------

/// What `run` / `layers` were asked to do.
pub struct Plan {
    pub trace: bool,
    pub seed: u64,
    pub repeat: usize,
    pub only: Option<Workload>,
    pub out: Option<PathBuf>,
}

/// Runs every planned workload in a child process of its own (so peak
/// memory and the worker pool are per workload), prints each metric by
/// name with its unit, and writes the collected result file.
pub fn run_all(plan: &Plan, out_dir: &Path) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let workloads: Vec<Workload> = match plan.only {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for repeat in 0..plan.repeat {
        for &workload in &workloads {
            let report_path =
                out_dir.join("tmp").join(format!("report-{}-{repeat}.json", workload.name()));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", workload.name(), "--seed", &plan.seed.to_string()])
                .args(["--rounds", &workload.default_rounds().to_string()])
                .args(["--trace", if plan.trace { "1" } else { "0" }])
                .arg("--report")
                .arg(&report_path)
                .stdin(Stdio::null())
                .stdout(Stdio::null());
            let status = child.status().map_err(|e| format!("start {}: {e}", workload.name()))?;
            if !status.success() {
                return Err(format!("{} exited with {status}", workload.name()));
            }
            let text = std::fs::read_to_string(&report_path)
                .map_err(|e| format!("{}: {e}", report_path.display()))?;
            let _ = std::fs::remove_file(&report_path);
            let report = json::parse(&text)?;
            print_report(&report);
            all_correct &= report.get("correct") == Some(&Value::Bool(true));
            runs.push(report);
        }
    }
    let document = obj([("machine", machine()), ("runs", Value::Arr(runs))]);
    let default_name = if plan.trace { "layers.json" } else { "run.json" };
    let path = plan.out.clone().unwrap_or_else(|| out_dir.join(default_name));
    std::fs::write(&path, document.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if all_correct {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("baffle-benchmark: an output check failed (see \"failures\" in the result file)");
        Ok(ExitCode::FAILURE)
    }
}

fn print_report(report: &Value) {
    let text = |key: &str| report.get(key).and_then(Value::as_str).unwrap_or("?");
    let number = |key: &str| report.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    println!(
        "== {}  seed {}  rounds {}  failed {}  checks {}",
        text("workload"),
        number("seed"),
        number("attempted"),
        number("failed"),
        if report.get("correct") == Some(&Value::Bool(true)) { "green" } else { "RED" },
    );
    for failure in report.get("failures").and_then(Value::as_arr).unwrap_or_default() {
        println!("   check failed: {}", failure.as_str().unwrap_or("?"));
    }
    for (name, metric) in report.get("metrics").and_then(Value::as_obj).unwrap_or_default() {
        let value = metric.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("   {name:<40} {value:>14.4} {unit}");
    }
}

// --- compare -------------------------------------------------------------------------

/// Whether an end-to-end metric exists on a workload.
fn applies(metric: &str, workload: Workload) -> bool {
    match metric {
        "messages_per_round" | "wire_bytes_per_round" => !workload.is_sim(),
        "recovery_ms_p50" => workload == Workload::NetDurableUnix,
        "fn_rate" => workload.is_sim(),
        _ => true,
    }
}

/// Values of `metric` over a file's runs of `workload`.
fn values_of(document: &Value, workload: Workload, metric: &str) -> Vec<f64> {
    document
        .get("runs")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|run| run.get("workload").and_then(Value::as_str) == Some(workload.name()))
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// better).
fn worsening(metric: &Metric, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Prints one row per (workload, end-to-end metric): both medians, the
/// ratio with its base, the bound and a verdict. A metric whose own
/// run-to-run spread exceeds its bound on either side is `unresolved`,
/// not `ok`.
pub fn compare(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "{:<20} {:<22} {:>12} {:>12} {:>8} {:>9} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B/A", "bound", "spread"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    for workload in Workload::ALL {
        for metric in spec::END_TO_END.iter().chain(&spec::END_TO_END_PARTIAL) {
            if !applies(metric.name, workload) {
                continue;
            }
            let (va, vb) =
                (values_of(&a, workload, metric.name), values_of(&b, workload, metric.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let widest = spread(&va).into_iter().chain(spread(&vb)).fold(0.0, f64::max);
            let (bound_text, worse, noisy) = match metric.bound {
                Bound::Relative(r) => {
                    (format!("{:.0} %", r * 100.0), worsening(metric, ma, mb) > r, widest > r)
                }
                Bound::Absolute(d) => (format!("+{d}"), mb - ma > d, false),
                Bound::Exact => ("exact".to_string(), ma != mb, false),
            };
            let verdict = if worse {
                regressed += 1;
                "regressed"
            } else if noisy {
                unresolved += 1;
                "unresolved"
            } else {
                "ok"
            };
            let ratio = if ma == 0.0 { "-".to_string() } else { format!("{:.3}", mb / ma) };
            println!(
                "{:<20} {:<22} {:>12.4} {:>12.4} {:>8} {:>9} {:>6.1}%  {verdict}",
                workload.name(),
                metric.name,
                ma,
                mb,
                ratio,
                bound_text,
                widest * 100.0
            );
        }
    }
    println!("{regressed} regressed, {unresolved} unresolved");
    Ok(if regressed > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}
