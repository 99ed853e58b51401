//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <bulk_draw|socket_small|repro_full> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints the run's conditions, every
//! correctness check and metric as readable lines, then one JSON line:
//! the end-to-end metrics (`--trace 0`) or the per-layer profile
//! (`--trace 1`). See `perfbench/NOTES.md`.

mod config;
mod gen;
mod layers;
mod replay;
mod report;
mod workloads;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use report::{Report, END_TO_END};

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const WORKLOADS: [&str; 3] = ["bulk_draw", "socket_small", "repro_full"];

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The checkout's git revision, read from `.git` without leaving the
/// checkout; `unknown` when it is not a git checkout.
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|rev| rev.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The process's resident-memory high-water mark, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn conditions(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let point = match args.workload.as_str() {
        "bulk_draw" => config::describe(&config::BULK),
        "socket_small" => config::describe(&config::CHEAP),
        _ => "null".to_owned(),
    };
    let seed = if args.workload == "repro_full" {
        workloads::REPRO_SEED
    } else {
        args.seed
    };
    println!(
        "# conditions {{\"workload\": \"{}\", \"git_rev\": \"{}\", \"nproc\": {nproc}, \
         \"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \"operating_point\": {point}}}",
        args.workload,
        git_rev(),
        args.seconds,
        u8::from(args.trace),
    );
}

/// The value of metric `name` in a result JSON line.
fn json_metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// The `served_Bps` of an untraced run of the same workload, seed and
/// length: this program run again with `--trace 0`, to completion.
fn untraced_served(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("untraced run: {e}"))?;
    if !out.status.success() {
        return Err(format!("untraced run exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|line| json_metric(line, "served_Bps"))
        .ok_or_else(|| "untraced run printed no served_Bps".to_owned())
}

/// Runs the workload; a traced run first runs it untraced in a child
/// process, then runs it the same way itself, reports `trace.overhead`
/// (the untraced `served_Bps` over its own) and profiles every layer.
fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let golden = workloads::golden(Path::new("."))?;
    let untraced = if args.trace {
        Some(untraced_served(args)?)
    } else {
        None
    };
    match args.workload.as_str() {
        "bulk_draw" => workloads::bulk_draw(args.seed, args.seconds, report)?,
        "socket_small" => workloads::socket_small(args.seed, args.seconds, report)?,
        _ => workloads::repro_full(&golden, args.seconds, report)?,
    }
    if let Some(untraced) = untraced {
        let served = report
            .get("served_Bps")
            .ok_or("served_Bps was not measured")?;
        report.metric("trace.overhead", untraced / served, "ratio");
        layers::profile(args.seed, &golden, report)?;
    }
    let rss = peak_rss_mb().ok_or("cannot read the resident-memory high-water mark")?;
    report.metric("peak_rss_MB", rss, "MB");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!(
                "{msg}\nusage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    conditions(&args);
    let mut report = Report::default();
    if let Err(msg) = run(&args, &mut report) {
        eprintln!("{} failed: {msg}", args.workload);
        return ExitCode::FAILURE;
    }
    let keep: Vec<String> = if args.trace {
        layers::per_layer_names()
    } else {
        END_TO_END.iter().map(|s| (*s).to_owned()).collect()
    };
    let keep: Vec<&str> = keep.iter().map(String::as_str).collect();
    if report.print(&keep) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let mut names: Vec<String> = WORKLOADS.iter().map(|s| (*s).to_owned()).collect();
        names.extend(END_TO_END.iter().map(|s| (*s).to_owned()));
        names.extend(layers::per_layer_names());
        for name in &names {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
        }
        assert_eq!(text.matches("\"name\": ").count(), names.len());
    }

    #[test]
    fn a_metric_is_read_from_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
                    \"served_Bps\": {\"value\": 97012.5, \"unit\": \"B/s\"}}}";
        assert_eq!(json_metric(line, "served_Bps"), Some(97012.5));
        assert_eq!(json_metric(line, "setup_s"), Some(0.5));
        assert_eq!(json_metric(line, "peak_rss_MB"), None);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse(s.split_whitespace().map(str::to_owned));
        let ok = args("--workload bulk_draw --seed 3 --seconds 2 --trace 1").expect("valid");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload bulk_draw --trace 2").is_err());
        assert!(args("--workload bulk_draw --seconds -1").is_err());
        assert!(args("--seed 3").is_err());
    }
}
