//! `perfbench` — end-to-end and per-layer wall-clock benchmark of cmp-tlp.
//!
//! ```console
//! $ perfbench --workload fig3-paper --seed 1 --seconds 25 --trace 0 --cmp-tlp PATH
//! ```
//!
//! Runs whole rounds of one workload for about `--seconds`, checks every
//! output, and prints one JSON line: `correct`, `attempted`, `failed` and
//! the metrics — the end-to-end ones with `--trace 0`, the per-layer ones
//! with `--trace 1`. See README.md for the workloads and the metric map.

mod check;
mod host;
mod http;
mod json;
mod serve;
mod stats;
mod sweeps;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics and their units, reported by every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sweep_serial_s", "s"),
    ("sweep_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units. A layer a workload does not
/// exercise reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.run_s", "s"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.runs", "count"),
    ("sim.cycles", "count"),
    ("sim.cycles_fast_forwarded", "count"),
    ("sim.instructions", "count"),
    ("workloads.gang_build_s", "s"),
    ("profiling.profile_s", "s"),
    ("profiling.max_profile_s", "s"),
    ("sweep.cell_s", "s"),
    ("sweep.max_cell_s", "s"),
    ("sweep.critical_path_s", "s"),
    ("pool.busy_fraction", "ratio"),
    ("chipstate.measure_s", "s"),
    ("thermal.fixpoint_s", "s"),
    ("thermal.fixpoint_iterations", "count"),
    ("thermal.steady_solves", "count"),
    ("power.breakdowns", "count"),
    ("journal.records", "count"),
    ("journal.flush_bytes", "bytes"),
    ("journal.checkpoint_overhead_s", "s"),
    ("journal.open_ms", "ms"),
    ("json.parse_ms", "ms"),
    ("json.parse_bytes", "bytes"),
    ("json.render_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.report_ms", "ms"),
    ("serve.metrics_ms", "ms"),
    ("serve.http_requests", "count"),
    ("serve.response_us_p50", "us"),
    ("shard.leases", "count"),
    ("shard.segments_accepted", "count"),
    ("shard.cache_hits", "count"),
    ("shard.cache_misses", "count"),
    ("shard.overhead_s", "s"),
    ("shards_repeat_ms", "ms"),
    ("health_ms", "ms"),
    ("health_tail_ms", "ms"),
    ("status_ms", "ms"),
    ("status_tail_ms", "ms"),
    ("longpoll_done_ms", "ms"),
    ("loadgen.late_ms", "ms"),
    ("obs.trace_overhead_s", "s"),
];

/// Set-ups timed per round; `setup_s` is their median over the run.
pub const SETUPS: usize = 4;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Base seed of every generated sweep (the CLI's default seed).
    pub sweep_seed: u64,
    pub cmp_tlp: Option<PathBuf>,
    pub work_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10.0,
            trace: false,
            sweep_seed: 0x1595_2005,
            cmp_tlp: None,
            work_dir: PathBuf::from(".perfbench-work"),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad {flag} {value:?}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = parse_u64(&value).map_err(bad)?,
                "--seconds" => args.seconds = value.parse().map_err(|_| format!("bad {flag}"))?,
                "--trace" => args.trace = value == "1",
                "--sweep-seed" => args.sweep_seed = parse_u64(&value).map_err(bad)?,
                "--cmp-tlp" => args.cmp_tlp = Some(PathBuf::from(value)),
                "--work-dir" => args.work_dir = PathBuf::from(value),
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }

    /// The sweep seed of round `round`: the same `--seed` gives the same
    /// sequence, every round of a run gets an unrelated seed, and seed 0
    /// starts at the base sweep seed.
    pub fn round_seed(&self, round: usize) -> u64 {
        self.sweep_seed ^ mix64((self.seed << 32) ^ round as u64)
    }
}

/// The SplitMix64 finalizer: a bijection on `u64` that spreads every
/// input bit over the whole output, with `mix64(0) == 0`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_u64(s: &str) -> Result<u64, std::num::ParseIntError> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
}

/// Per-round samples of each metric; a run reports their median, or the
/// first round's value for counts.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn extend(&mut self, name: &'static str, values: &[f64]) {
        self.0.entry(name).or_default().extend_from_slice(values);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Samples,
}

impl Outcome {
    /// Records the result of an output check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            eprintln!("perfbench: check failed: {e}");
            self.errors.push(e);
        }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs whole rounds until the next one would end after `seconds`,
/// judged by the longest round so far. At least one round runs.
pub fn rounds(
    seconds: f64,
    mut round: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut longest = Duration::ZERO;
    let mut n = 0;
    loop {
        let t = Instant::now();
        round(n)?;
        n += 1;
        longest = longest.max(t.elapsed());
        if start.elapsed() + longest > budget {
            return Ok(());
        }
    }
}

/// Peak resident set of a live process, MB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or(format!("{path} has no VmHWM"))
}

fn result_line(out: &Outcome, trace: bool) -> Result<String, String> {
    let names = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let samples = out.metrics.get(name);
        if samples.is_empty() && !trace {
            return Err(format!("no samples of {name}"));
        }
        // Counts come from the first round, whose inputs `--seed` fixes,
        // so they repeat exactly for a seed however many rounds fit.
        let value = match unit {
            "count" | "bytes" => samples.first().copied().unwrap_or(0.0),
            _ => stats::median(samples),
        };
        eprintln!(
            "perfbench: {name}: {} sample(s), min {}, median {value}, max {}",
            samples.len(),
            samples.iter().copied().fold(f64::INFINITY, f64::min),
            stats::max(samples),
        );
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(host::KERNEL_FLAG) {
        println!("{}", host::kernel());
        return;
    }
    let result = Args::parse().and_then(|args| {
        let out = match args.workload.as_str() {
            "fig3-paper" => sweeps::run(&args, |seed| {
                sweeps::fig3_spec(cmp_tlp::workloads::Scale::Paper, seed)
            }),
            "server-sweep" => sweeps::run(&args, sweeps::server_spec),
            "serve-loopback" => serve::run(&args),
            other => Err(format!(
                "unknown workload {other:?} (fig3-paper, server-sweep, serve-loopback)"
            )),
        }?;
        result_line(&out, args.trace)
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
