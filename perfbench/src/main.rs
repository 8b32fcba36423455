//! End-to-end and per-layer benchmark of the LSRP simulator.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fattree_coldstart|traffic_chaos_export|corpus> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload is repeated (fresh set-up each time)
//! until `--seconds` of wall-clock time have passed; the fastest
//! repetition's `run_s` and the fastest set-up's `setup_s` are printed.
//! With `--trace 1` one untraced and one traced repetition run, and the
//! traced one times the calls into each layer from outside the library. Every repetition's simulated outputs
//! are checked against the fingerprints recorded in `fingerprints.txt`.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; see `README.md`.

mod checks;
mod layers;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use checks::Checks;

/// The workloads, in the order `README.md` documents them.
const WORKLOADS: [&str; 3] = ["fattree_coldstart", "traffic_chaos_export", "corpus"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?} (one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: must be a finite number >= 0"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collected metrics, in print order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn index(&self, name: &str) -> usize {
        self.0
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} was never declared"))
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics if no metric of that name was pushed: every per-layer name
    /// is declared once, up front.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self.index(name);
        self.0[i].value = value;
    }

    /// A declared metric's value (panics like [`Metrics::set`]).
    pub fn get(&self, name: &str) -> f64 {
        self.0[self.index(name)].value
    }
}

/// The smallest of `xs`: the sample least slowed by other tenants.
/// Contention on a shared host only adds time, and it comes and goes in
/// stretches of a fraction of a second to tens of seconds, so the fastest
/// sample of a run moves far less between runs than their median.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median of `xs` (the mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the parallel workloads use: one per hardware thread.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Provenance of a result: enough to re-run it and to compare it with
/// numbers taken on another machine.
fn stamp(args: &Args) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    // Only ask git inside a repository root: the benchmark also runs in
    // plain source checkouts, where the source digest identifies the code.
    let git_rev = if std::path::Path::new(".git").exists() {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    } else {
        "none (not a git checkout)".to_string()
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"git_rev\": {}, \"source_digest\": {}, \"nproc\": {}, \"rustc\": {}, \"profile\": {}, \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        json_str(&git_rev),
        json_str(&checks::source_digest()),
        nproc(),
        json_str(&rustc),
        json_str(profile),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn result_line(checks: &Checks, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The benchmark reads the scenario corpus and writes its scratch
    // files relative to the repository root; refuse to run anywhere else.
    if !std::path::Path::new("scenarios").is_dir() || !std::path::Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no scenarios/ or crates/ here)");
        return ExitCode::from(2);
    }
    let started = Instant::now();
    let mut checks = Checks::new(&args.workload, args.seed);
    let run = if args.trace {
        workloads::run_traced(&args.workload, args.seed, &mut checks)
    } else {
        workloads::run_untraced(&args.workload, args.seed, args.seconds, &mut checks)
    };
    let (metrics, summary) = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &checks.notes {
        eprintln!("perfbench: {note}");
    }
    println!("stamp {}", stamp(&args));
    #[allow(clippy::cast_precision_loss)]
    let fail_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "summary workload={} seed={} {summary}fail_frac={fail_frac} ratio (failed {} of {} checks) wall_s={:.3}",
        args.workload,
        args.seed,
        checks.failed,
        checks.attempted,
        started.elapsed().as_secs_f64()
    );
    println!("{}", result_line(&checks, &metrics));
    ExitCode::SUCCESS
}
