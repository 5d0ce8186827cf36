//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sage-fresh|gcn-ns|serve-zipf|cluster-crash> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --attribution-check [--seed <n>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the library's
//! public entry points, untraced. `--trace 1` additionally runs the traced
//! pass and prints the per-layer metrics instead. Either way the run checks
//! the program's outputs, prints every metric by name with its unit, ends
//! with one JSON line, and exits non-zero if a check failed.
//! `--attribution-check` shows that the traced table attributes a fixed
//! delay to the layer it was added to. See `perfbench/NOTES.md`.

mod attribution;
mod catalog;
mod cluster;
mod kernels;
mod replica;
mod report;
mod serve;
mod spans;
mod stats;
mod train;
mod workloads;

use catalog::{emit, Values, END_TO_END, PER_LAYER};
use report::{peak_rss_mb, Outcome};
use workloads::Workload;

/// Where traced runs leave their span dumps (relative to the working
/// directory, the checkout root).
const ARTIFACT_DIR: &str = ".perfbench_out";

/// Write a run artifact; a failure is reported but does not fail the run.
pub(crate) fn write_artifact(name: &str, contents: &str) {
    let path = std::path::Path::new(ARTIFACT_DIR).join(name);
    let written =
        std::fs::create_dir_all(ARTIFACT_DIR).and_then(|()| std::fs::write(&path, contents));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    attribution: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        attribution: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--attribution-check" {
            args.attribution = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                let w = Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?;
                args.workload = Some(w);
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && !args.attribution {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>\n       perfbench --attribution-check [--seed <n>]",
                names.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let header = match args.workload {
        Some(w) if !args.attribution => {
            run_workload(w, &args, &mut out);
            format!(
                "perfbench {} seed={} seconds={} trace={} ({} cores)",
                w.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace),
                std::thread::available_parallelism().map_or(0, |n| n.get()),
            )
        }
        _ => {
            attribution::check(args.seed, &mut out);
            format!("perfbench attribution check seed={}", args.seed)
        }
    };
    print!("{}", out.render(&header));
    if !out.correct() {
        std::process::exit(1);
    }
}

fn run_workload(w: Workload, args: &Args, out: &mut Outcome) {
    let (mut e2e, layers): (Values, Values) = match w {
        Workload::SageFresh | Workload::GcnNs => {
            train::run(w, args.seed, args.seconds, args.trace, out)
        }
        Workload::ServeZipf => serve::run(args.seed, args.seconds, args.trace, out),
        Workload::ClusterCrash => cluster::run(args.seed, args.seconds, args.trace, out),
    };
    match peak_rss_mb() {
        Ok(mb) => {
            e2e.insert("peak_rss_mb", mb);
        }
        Err(e) => out.check(false, || e),
    }
    if args.trace {
        emit(out, PER_LAYER, &layers, false);
    } else {
        emit(out, END_TO_END, &e2e, true);
    }
}
