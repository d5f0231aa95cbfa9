//! Benchmark of the PUNO simulator: end-to-end host time and paper
//! fidelity on three workloads, and a separate traced run that splits host
//! time across the simulator's layers. See README.md for the workloads and
//! metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits 1 when any output check fails and 2 on bad usage.

mod cells;
mod timed;
mod traced;

use cells::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad --seconds {value:?} (1..=600)"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// `PUNO_*` variables silently change what is measured (result cache,
/// sweep and run threads, NoC express path, prefix forks, observability),
/// so the benchmark refuses to run with any of them set.
fn check_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PUNO_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("unset {} before benchmarking", set.join(", ")))
    }
}

/// Core count and CPU model, recorded with every result.
struct Host {
    cores: usize,
    cpu: String,
}

fn host() -> Host {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Host { cores, cpu }
}

/// Peak resident set size of this process, in MB (VmHWM).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("strings serialize")
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a metric that is not finite is a
            // bug in the benchmark, not a measurement.
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Scratch space of this process: caches and pass directories live here
/// and are removed at exit; the traced run's spans file is written next to
/// it and kept.
fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn main() -> ExitCode {
    let args = match check_env().and_then(|()| parse_args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <paper_grid|mesh8_hc|cache_replay> --seed <n> [--seconds <s>] [--trace <0|1>]");
            return ExitCode::from(2);
        }
    };
    let host = host();
    let root = work_root();
    let work = root.join(format!("{}-{}", args.workload.name(), std::process::id()));
    let outcome = run(&args, &host, &root, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok((ok, line)) => {
            println!("{line}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run the workload; returns whether every check passed, and the result
/// line.
fn run(args: &Args, host: &Host, root: &Path, work: &Path) -> Result<(bool, String), String> {
    std::fs::create_dir_all(work).map_err(|e| format!("create {work:?}: {e}"))?;
    let w = args.workload;
    println!("host: cores={} cpu={}", host.cores, json_str(&host.cpu));
    let (ledger, metrics) = if args.trace {
        let spans_path = root.join(format!("spans-{}-seed{}.json", w.name(), args.seed));
        let (ledger, metrics) = traced::run(
            w,
            args.seed,
            work,
            &spans_path,
            &format!("{} {}", host.cores, host.cpu),
        )?;
        println!("spans: {}", spans_path.display());
        (ledger, metrics)
    } else {
        let t = timed::run(w, args.seed, args.seconds, work)?;
        let gaps = cells::fidelity_gaps(w, &t.ledger.per_seed());
        let ok_frac = (t.ledger.attempted - t.ledger.failed) as f64 / t.ledger.attempted as f64;
        let mut metrics = vec![
            metric("setup_s", t.setup_s, "s"),
            metric("wall_s", median(&t.pass_walls), "s"),
            metric("sim_cycles_per_s", median(&t.pass_rates), "1/s"),
            metric("peak_rss_mb", peak_rss_mb()?, "MB"),
            metric("ok_frac", ok_frac, "frac"),
        ];
        metrics.extend(gaps.into_iter().map(|(name, v)| metric(name, v, "pp")));
        println!("pass walls (s): {:?}", t.pass_walls);
        (t.ledger, metrics)
    };
    println!(
        "fingerprint: workload={} seed={} cells={} fnv1a=0x{:016x}",
        w.name(),
        args.seed,
        ledger.distinct_cells(),
        ledger.fingerprint()
    );
    let ok = ledger.failed == 0 && ledger.attempted > 0;
    Ok((
        ok,
        result_line(ok, ledger.attempted, ledger.failed, &metrics),
    ))
}
