//! The `serve-loopback` workload: a `cmp-tlp serve` child driven over
//! loopback.
//!
//! Each round starts a fresh daemon (`--threads 1 --rate 0`, so one core
//! stays free for HTTP and the rate limiter sheds nothing) on an empty
//! state directory and runs five phases against it:
//!
//! 1. the quarter-scale Fig. 3 grid through `POST /sweeps`, polled to
//!    completion, then its report;
//! 2. the same grid through `POST /shards` and one `cmp-tlp work` child;
//! 3. repeated `/shards` submissions of it, which the cell cache answers;
//! 4. an open-loop latency phase against `/health` and the finished
//!    job's status;
//! 5. one `?wait=1` long-poll on the finished job.
//!
//! The host-speed kernel (`host`) is timed just before phases 1 and 2,
//! and the run reports their times scaled to the reference host speed.
//!
//! Traced runs also scrape `/metrics` around the phases and, once per
//! run, time a checkpointed quarter-scale sweep in-process.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cmp_tlp::journal::{Journal, JournalMode};
use cmp_tlp::tech::json::Json;
use cmp_tlp::workloads::{AppId, Scale};
use cmp_tlp::{FaultPlan, RetryPolicy};

use crate::check;
use crate::host;
use crate::http::{self, expect};
use crate::stats::{median, tail};
use crate::sweeps::{self, expect_for, fig3_spec};
use crate::{peak_rss_mb, rounds, Args, Outcome, Samples};

/// Offered load of the latency phase, requests/second. The daemon
/// answers `/health` in well under a millisecond and a finished job's
/// status in about 20 ms of one core, so these rates keep it below a
/// fifth of one core.
const HEALTH_RPS: f64 = 40.0;
const STATUS_RPS: f64 = 8.0;
/// Length of the latency phase in each round.
const LATENCY_PHASE: Duration = Duration::from_secs(2);
/// Plain/checkpointed sweep pairs behind `journal.checkpoint_overhead_s`.
const JOURNAL_PAIRS: usize = 3;
/// Interval between status polls while the `/sweeps` job runs.
const POLL: Duration = Duration::from_millis(20);
/// Cache-hit `/shards` resubmissions per round.
const REPEATS: usize = 5;

/// A running daemon; dropping it kills the process and waits for it.
struct Daemon {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Daemon {
    /// Starts a daemon and waits for its first `/health` 200; returns it
    /// with the time that took.
    fn start(bin: &Path, state_dir: &Path) -> Result<(Self, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "1",
                "--rate",
                "0",
            ])
            .arg("--state-dir")
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    let _ = tx.send(rest.split(' ').next().unwrap_or("").to_string());
                }
                lines.push(line);
            }
            lines
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stderr: Some(reader),
        };
        daemon.addr = rx
            .recv_timeout(Duration::from_secs(20))
            .map_err(|_| format!("daemon never listened: {:?}", daemon.stop()))?;
        loop {
            match http::request(&daemon.addr, "GET", "/health", "") {
                Ok(r) if r.status == 200 => break,
                _ if t.elapsed() > Duration::from_secs(20) => {
                    return Err(format!("daemon never healthy: {:?}", daemon.stop()));
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        Ok((daemon, t.elapsed().as_secs_f64()))
    }

    /// Kills the daemon, waits for it, and returns its stderr lines.
    fn stop(&mut self) -> Vec<String> {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

fn submission(seed: u64) -> String {
    let apps: Vec<String> = AppId::ALL
        .iter()
        .map(|a| format!("{:?}", a.name()))
        .collect();
    format!(
        r#"{{"apps": [{}], "core_counts": [1, 2, 4, 8, 16], "scale": "small", "seed": "{seed:#x}"}}"#,
        apps.join(", ")
    )
}

fn field(body: &str, key: &str) -> Result<String, String> {
    crate::json::parse(body)?.str(key).map(str::to_string)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = args
        .cmp_tlp
        .clone()
        .ok_or("serve-loopback needs --cmp-tlp PATH")?;
    let work = args.work_dir.join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut out = Outcome::default();
    let mut s = Samples::default();
    let result = rounds(args.seconds, |round| {
        let dir = work.join(format!("round-{round}"));
        serve_round(args, &bin, &dir, round, &mut out, &mut s)
    })
    .and_then(|()| {
        if args.trace {
            journal_layers(args, &work, &mut s)?;
        }
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&work);
    result?;
    host::scale_sweep_times(&mut s);
    for (name, tail_name) in [
        ("health_ms", "health_tail_ms"),
        ("status_ms", "status_tail_ms"),
    ] {
        let t = tail(s.get(name));
        s.push(tail_name, t);
    }
    out.metrics = s;
    Ok(out)
}

fn serve_round(
    args: &Args,
    bin: &Path,
    dir: &Path,
    round: usize,
    out: &mut Outcome,
    s: &mut Samples,
) -> Result<(), String> {
    let seed = args.round_seed(round);
    let body = submission(seed);
    let expect_report = expect_for(&fig3_spec(Scale::Small, seed));
    // Set-up is short and noisy, so every round times several daemon
    // starts; the last daemon serves the round.
    for i in 1..crate::SETUPS {
        let (mut spare, setup_s) = Daemon::start(bin, &dir.join(format!("spare-{i}")))?;
        s.push("setup_s", setup_s);
        spare.stop();
    }
    let (mut daemon, setup_s) = Daemon::start(bin, &dir.join("state"))?;
    s.push("setup_s", setup_s);
    out.attempted += crate::SETUPS as u64;
    let addr = daemon.addr.clone();
    let mut scrapes = Vec::new();
    let mut scrape = |s: &mut Samples| -> Result<(), String> {
        if args.trace {
            let t = Instant::now();
            scrapes.push(metrics(&addr)?);
            s.push("serve.metrics_ms", ms(t));
        }
        Ok(())
    };
    scrape(s)?;

    // Phase 1: POST /sweeps, poll to completion, fetch the report.
    s.push("host.calibrate_s", host::calibrate()?);
    let t = Instant::now();
    let job = field(&expect(&addr, "POST", "/sweeps", &body, 202)?, "id")?;
    s.push("serve.submit_ms", ms(t));
    out.attempted += 1;
    // Plain polls, not `?wait=`: a long-poll that arrives just after the
    // job completes holds for its whole wait, which made this phase take
    // 1.2 s in most rounds and 6.2 s in some.
    loop {
        out.attempted += 1;
        let status = expect(&addr, "GET", &format!("/sweeps/{job}"), "", 200)?;
        match field(&status, "state")?.as_str() {
            "completed" => break,
            "queued" | "running" => std::thread::sleep(POLL),
            other => return Err(format!("job {job} ended {other}")),
        }
    }
    let tr = Instant::now();
    let report = expect(&addr, "GET", &format!("/sweeps/{job}/report"), "", 200)?;
    s.push("serve.report_ms", ms(tr));
    let sweeps_s = t.elapsed().as_secs_f64();
    s.push("sweep_serial_wall_s", sweeps_s);
    out.attempted += 1;
    out.check(check::check_report(&report, &expect_report));
    if args.trace {
        json_layers(&report, s)?;
    }
    scrape(s)?;

    // Phase 2: the same grid through /shards and one worker process.
    s.push("host.calibrate_s", host::calibrate()?);
    let t = Instant::now();
    let shard = field(&expect(&addr, "POST", "/shards", &body, 201)?, "id")?;
    run_worker(bin, &addr, &shard, &dir.join("work"), round)?;
    let merged = expect(&addr, "GET", &format!("/shards/{shard}/report"), "", 200)?;
    let shards_s = t.elapsed().as_secs_f64();
    s.push("sweep_wall_s", shards_s);
    s.push("shard.overhead_s", shards_s - sweeps_s);
    out.attempted += 3;
    scrape(s)?;

    // Phase 3: cache-hit resubmissions.
    let mut reports = vec![report.clone(), merged];
    for _ in 0..REPEATS {
        let t = Instant::now();
        let id = field(&expect(&addr, "POST", "/shards", &body, 201)?, "id")?;
        reports.push(expect(
            &addr,
            "GET",
            &format!("/shards/{id}/report"),
            "",
            200,
        )?);
        s.push("shards_repeat_ms", ms(t));
        out.attempted += 2;
    }
    let refs: Vec<&str> = reports.iter().map(String::as_str).collect();
    out.check(check::check_identical(
        "/sweeps, /shards and repeat reports",
        &refs,
    ));
    scrape(s)?;

    // Phase 4: open-loop latency.
    let lat = open_loop(&addr, &job, seed ^ 0xA5A5);
    out.attempted += (lat.health_ms.len() + lat.status_ms.len() + lat.failed) as u64;
    out.failed += lat.failed as u64;
    s.extend("health_ms", &lat.health_ms);
    s.extend("status_ms", &lat.status_ms);
    s.extend("loadgen.late_ms", &lat.late_ms);
    scrape(s)?;

    // Phase 5: a long-poll on a job that has already finished.
    let t = Instant::now();
    let done = expect(&addr, "GET", &format!("/sweeps/{job}?wait=1"), "", 200)?;
    s.push("longpoll_done_ms", ms(t));
    out.attempted += 1;
    if field(&done, "state")? != "completed" {
        out.check(Err(format!(
            "long-poll on {job} did not report it completed"
        )));
    }
    scrape(s)?;

    s.push("peak_rss_mb", peak_rss_mb(daemon.child.id())?);
    daemon.stop();
    if args.trace {
        scrape_layers(&scrapes, s);
    }
    Ok(())
}

fn run_worker(bin: &Path, addr: &str, shard: &str, dir: &Path, round: usize) -> Result<(), String> {
    let out = Command::new(bin)
        .args([
            "work",
            "--threads",
            "1",
            "--poll",
            "0.05",
            "--coordinator",
            addr,
            "--shard",
            shard,
        ])
        .args(["--name", &format!("perfbench-{round}")])
        .arg("--work-dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("spawn worker: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "worker exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(())
}

/// SplitMix64: the arrival schedule's own generator.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (crate::mix64(self.0) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrivals over the latency phase: `(due offset, is_status)`.
fn schedule(seed: u64) -> Vec<(Duration, bool)> {
    let mut rng = Rng(seed);
    let rate = HEALTH_RPS + STATUS_RPS;
    let mut at = 0.0;
    let mut arrivals = Vec::new();
    loop {
        at += -(1.0 - rng.next_f64()).ln() / rate;
        if at >= LATENCY_PHASE.as_secs_f64() {
            return arrivals;
        }
        arrivals.push((
            Duration::from_secs_f64(at),
            rng.next_f64() < STATUS_RPS / rate,
        ));
    }
}

/// What the latency phase observed, in milliseconds.
#[derive(Default)]
struct OpenLoop {
    health_ms: Vec<f64>,
    status_ms: Vec<f64>,
    late_ms: Vec<f64>,
    failed: usize,
}

/// Sends the schedule with at most `nproc` requests in flight. Each
/// latency runs from the request's due time, so a stalled generator
/// shows as latency; how late each send was is recorded too.
fn open_loop(addr: &str, job: &str, seed: u64) -> OpenLoop {
    let arrivals = schedule(seed);
    let next = AtomicUsize::new(0);
    let results = Mutex::new(OpenLoop::default());
    let status_path = format!("/sweeps/{job}");
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..crate::nproc() {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(offset, is_status)) = arrivals.get(i) else {
                    return;
                };
                let due = start + offset;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let late = Instant::now().duration_since(due).as_secs_f64() * 1e3;
                let path = if is_status {
                    status_path.as_str()
                } else {
                    "/health"
                };
                let ok = http::request(addr, "GET", path, "").is_ok_and(|r| r.status == 200);
                let latency = Instant::now().duration_since(due).as_secs_f64() * 1e3;
                let mut r = results.lock().expect("no sender panics");
                if !ok {
                    r.failed += 1;
                } else if is_status {
                    r.status_ms.push(latency);
                } else {
                    r.health_ms.push(latency);
                }
                r.late_ms.push(late);
            });
        }
    });
    results.into_inner().expect("no sender panics")
}

/// One `/metrics` scrape as `series → value`.
fn metrics(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = expect(addr, "GET", "/metrics", "", 200)?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect())
}

/// Per-layer metrics from the scrapes taken after each phase:
/// `[start, sweeps, shards, repeats, latency, long-poll]`.
fn scrape_layers(scrapes: &[BTreeMap<String, f64>], s: &mut Samples) {
    let get = |i: usize, k: &str| scrapes[i].get(k).copied().unwrap_or(0.0);
    let delta = |from: usize, to: usize, k: &str| get(to, k) - get(from, k);
    let last = scrapes.len() - 1;
    s.push(
        "serve.http_requests",
        delta(0, last, "tlp_serve_http_requests_total"),
    );
    s.push(
        "shard.leases",
        delta(1, 2, "tlp_shard_leases_granted_total"),
    );
    s.push(
        "shard.segments_accepted",
        delta(1, 2, "tlp_shard_segments_accepted_total"),
    );
    s.push(
        "shard.cache_misses",
        delta(1, 2, "tlp_shard_cache_misses_total"),
    );
    s.push(
        "shard.cache_hits",
        delta(2, 3, "tlp_shard_cache_hits_total"),
    );
    s.push(
        "serve.response_us_p50",
        histogram_p50(&scrapes[3], &scrapes[4], "tlp_serve_response_micros"),
    );
}

/// Median of the samples a histogram gained between two scrapes,
/// interpolated linearly inside its power-of-two bucket.
fn histogram_p50(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    let prefix = format!("{name}_bucket{{le=\"");
    let count = |m: &BTreeMap<String, f64>| m.get(&format!("{name}_count")).copied().unwrap_or(0.0);
    // A scrape omits the buckets past its last non-empty one; those
    // hold every sample.
    let cum = |m: &BTreeMap<String, f64>, le: &str| {
        m.get(&format!("{prefix}{le}\"}}"))
            .copied()
            .unwrap_or_else(|| count(m))
    };
    let mut bounds: Vec<(f64, String)> = after
        .keys()
        .filter_map(|k| k.strip_prefix(&prefix)?.strip_suffix("\"}"))
        .filter_map(|le| Some((le.parse::<f64>().ok()?, le.to_string())))
        .collect();
    bounds.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = (count(after) - count(before)) / 2.0;
    if target <= 0.0 {
        return 0.0;
    }
    let (mut lower, mut below) = (0.0, 0.0);
    for (upper, le) in bounds {
        let at = cum(after, &le) - cum(before, &le);
        if at >= target {
            return lower + (upper - lower) * (target - below) / (at - below).max(1.0);
        }
        (lower, below) = (upper, at);
    }
    lower
}

/// `tlp_tech::json` timings on the fetched report.
fn json_layers(report: &str, s: &mut Samples) -> Result<(), String> {
    let t = Instant::now();
    let doc = Json::parse(report).map_err(|e| format!("Json::parse rejected a report: {e}"))?;
    s.push("json.parse_ms", ms(t));
    s.push("json.parse_bytes", report.len() as f64);
    let t = Instant::now();
    std::hint::black_box(doc.to_string_pretty());
    s.push("json.render_ms", ms(t));
    Ok(())
}

/// The journal layer, timed in-process on the quarter-scale grid: the
/// same sweep without a checkpoint and with one, then traced with one.
fn journal_layers(args: &Args, work: &Path, s: &mut Samples) -> Result<(), String> {
    let spec = fig3_spec(Scale::Small, args.round_seed(0));
    let chip = sweeps::new_chip();
    let path = |name: &str| -> PathBuf { work.join(name) };
    let sweep = || chip.sweep().grid(spec.clone()).threads(1);
    let failed = |e: cmp_tlp::ExperimentError| format!("in-process sweep failed: {e}");

    // The checkpoint overhead is a difference of two noisy times, so it
    // is the median of several pairs, run in alternating order.
    let mut reports = Vec::new();
    let mut checkpoint_s = Vec::new();
    for i in 0..JOURNAL_PAIRS {
        let journal = path(&format!("checkpoint-{i}.journal"));
        let mut pair = [0.0; 2];
        for with_journal in [i % 2 == 0, i % 2 == 1] {
            let t = Instant::now();
            let report = if with_journal {
                sweep().checkpoint(&journal).run()
            } else {
                sweep().run()
            }
            .map_err(failed)?;
            pair[usize::from(with_journal)] = t.elapsed().as_secs_f64();
            reports.push(sweeps::render(&report));
        }
        s.push("journal.checkpoint_overhead_s", pair[1] - pair[0]);
        checkpoint_s.push(pair[1]);
    }
    let t = Instant::now();
    let (traced, trace) = sweep()
        .checkpoint(path("traced.journal"))
        .run_traced()
        .map_err(failed)?;
    s.push(
        "obs.trace_overhead_s",
        t.elapsed().as_secs_f64() - median(&checkpoint_s),
    );
    reports.push(sweeps::render(&traced));
    let refs: Vec<&str> = reports.iter().map(String::as_str).collect();
    check::check_identical("plain, checkpointed and traced in-process reports", &refs)?;
    check::check_report(&reports[0], &expect_for(&spec))?;

    s.push(
        "journal.records",
        trace.counter("journal.records_written").unwrap_or(0) as f64,
    );
    let flushed = trace
        .histograms
        .iter()
        .find(|h| h.name == "journal.flush_bytes")
        .map_or(0, |h| h.sum);
    s.push("journal.flush_bytes", flushed as f64);
    let t = Instant::now();
    Journal::open_with_chip(
        &path("checkpoint-0.journal"),
        JournalMode::Resume,
        &spec,
        &FaultPlan::none(),
        &RetryPolicy::default(),
        None,
    )
    .map_err(|e| format!("Journal::open_with_chip: {e}"))?;
    s.push("journal.open_ms", ms(t));
    s.push("workloads.gang_build_s", sweeps::gang_build_s(&spec));
    sweeps::sweep_layers(&trace, 1, s);
    Ok(())
}
