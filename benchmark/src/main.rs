//! The BaFFLe benchmark.
//!
//! ```text
//! baffle-benchmark --workload <w> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of stdout is the
//!     result object (end-to-end metrics, or per-layer ones with --trace 1)
//! baffle-benchmark run     [--seed n] [--repeat k] [--workload w] [--out file]
//! baffle-benchmark layers  [--seed n] [--workload w] [--out file]
//!     every workload in a child process of its own, fixed round counts
//! baffle-benchmark compare <a.json> <b.json>
//! baffle-benchmark manifest
//!     prints what `/BENCHMARK.json` must contain
//! ```
//!
//! See `README.md` beside this crate for what is measured and why.

mod alloc;
mod e2e;
mod json;
mod layers;
mod replay;
mod report;
mod spec;
mod stats;

use e2e::Budget;
use spec::Workload;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `--key value` pairs and bare operands of a command line.
struct Args {
    options: HashMap<String, String>,
    operands: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut options = HashMap::new();
        let mut operands = Vec::new();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = args.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    options.insert(key.to_string(), value);
                }
                None => operands.push(arg),
            }
        }
        Ok(Self { options, operands })
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.options
            .get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")))
            .transpose()
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.options
            .get("workload")
            .map(|name| {
                Workload::parse(name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (have {})", known.join(", "))
                })
            })
            .transpose()
    }
}

/// Where run artefacts go: `out/` beside the manifest, spelled relative
/// to the working directory when it lies below it — Unix socket paths
/// are limited to ~100 bytes and the product binds its hub under
/// `TMPDIR`.
fn out_dir() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let base = std::env::current_dir()
        .ok()
        .and_then(|cwd| manifest.strip_prefix(cwd).map(PathBuf::from).ok())
        .unwrap_or(manifest);
    base.join("out")
}

fn real_main() -> Result<ExitCode, String> {
    // The workloads pin transport and wire profile through config
    // fields; an inherited override would silently measure something
    // else under the same name.
    for var in ["BAFFLE_TRANSPORT", "BAFFLE_WIRE_PROFILE"] {
        if std::env::var_os(var).is_some() {
            return Err(format!("{var} is set; unset it — the benchmark fixes it per workload"));
        }
    }
    let out = out_dir();
    let tmp = out.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    // Before any thread exists: keeps the product's socket files and the
    // WAL directories inside the benchmark's own tree.
    std::env::set_var("TMPDIR", &tmp);

    let mut argv = std::env::args().skip(1).peekable();
    let command = match argv.peek() {
        Some(first) if !first.starts_with("--") => argv.next(),
        _ => None,
    };
    let args = Args::parse(argv)?;
    let seed: u64 = args.number("seed")?.unwrap_or(7);
    match command.as_deref() {
        None => {
            let workload = args.workload()?.ok_or("--workload is required")?;
            let budget = match (args.number("seconds")?, args.number("rounds")?) {
                (Some(s), None) => Budget::Seconds(s),
                (None, Some(n)) => Budget::Rounds(n),
                _ => return Err("give exactly one of --seconds and --rounds".into()),
            };
            let trace = match args.options.get("trace").map(String::as_str) {
                None | Some("0") => false,
                Some("1") => true,
                Some(other) => return Err(format!("--trace: want 0 or 1, got {other:?}")),
            };
            let result = report::measure(workload, seed, budget, trace, &out);
            if let Some(path) = args.options.get("report") {
                std::fs::write(path, result.full.pretty()).map_err(|e| format!("{path}: {e}"))?;
            }
            println!("{}", result.contract.compact());
            Ok(ExitCode::SUCCESS)
        }
        Some(mode @ ("run" | "layers")) => {
            let plan = report::Plan {
                trace: mode == "layers",
                seed,
                repeat: args.number("repeat")?.unwrap_or(1),
                only: args.workload()?,
                out: args.options.get("out").map(PathBuf::from),
            };
            report::run_all(&plan, &out)
        }
        Some("compare") => match args.operands.as_slice() {
            [a, b] => report::compare(a, b),
            _ => Err("compare needs two result files".into()),
        },
        Some("manifest") => {
            print!("{}", report::manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => {
            Err(format!("unknown command {other:?} (have run, layers, compare, manifest)"))
        }
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|message| {
        eprintln!("baffle-benchmark: {message}");
        ExitCode::from(2)
    })
}
