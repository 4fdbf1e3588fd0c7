//! The in-process workloads: `fig3-paper` and `server-sweep`.
//!
//! Each round builds the chip (the set-up), runs the paper-scale grid
//! through `SweepBuilder::run` on one thread and on every core, and
//! checks both reports. The host-speed kernel (`host`) is timed before
//! each of the two sweeps, and the run reports the sweep times scaled to
//! the reference host speed. Traced runs add a `run_traced` sweep on
//! every core and time the public calls the sweep is made of.

use std::time::Instant;

use cmp_tlp::obs::Trace;
use cmp_tlp::sim::ChipSpec;
use cmp_tlp::sweep::WorkloadId;
use cmp_tlp::tech::json::{Json, ToJson};
use cmp_tlp::tech::units::Hertz;
use cmp_tlp::tech::{DvfsTable, Technology};
use cmp_tlp::workloads::{gang, AppId, Scale, ServerSpec};
use cmp_tlp::{ExperimentalChip, SweepReport, SweepSpec};

use crate::check::{self, Expect};
use crate::host;
use crate::stats::max;
use crate::{peak_rss_mb, Args, Outcome, Samples};

/// Offered loads of the `server-sweep` rows, requests/second.
pub const SERVER_LOADS: [u32; 6] = [250_000, 500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000];

pub fn fig3_spec(scale: Scale, seed: u64) -> SweepSpec {
    SweepSpec::fig3(AppId::ALL.to_vec(), scale, seed)
}

pub fn server_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        server_loads: SERVER_LOADS.to_vec(),
        ..SweepSpec::fig3(Vec::new(), Scale::Paper, seed)
    }
}

/// What a report of `spec` must contain.
pub fn expect_for(spec: &SweepSpec) -> Expect {
    let tech = Technology::itrs_65nm();
    let table = DvfsTable::for_technology(&tech, Hertz::from_mhz(200.0), Hertz::from_mhz(200.0))
        .expect("the stock technology has a DVFS table");
    let points = table.points();
    let vdd_range = (
        points[0].voltage.as_f64(),
        points[points.len() - 1].voltage.as_f64(),
    );
    let arrivals = spec
        .server_loads
        .iter()
        .map(|&rps| {
            let w = WorkloadId::Server { rps };
            (
                w.name(),
                ServerSpec::standard(rps, spec.scale).total_requests,
            )
        })
        .collect();
    Expect {
        works: spec.works().iter().map(WorkloadId::name).collect(),
        core_counts: spec.core_counts.clone(),
        vdd_range,
        arrivals,
    }
}

pub fn new_chip() -> ExperimentalChip {
    ExperimentalChip::from_spec(ChipSpec::ispass05(16), Technology::itrs_65nm())
}

/// Renders a report the way `cmp-tlp sweep --json` prints it.
pub fn render(report: &SweepReport) -> String {
    report.to_json().to_string_pretty()
}

/// Runs one sweep and returns its rendered report and wall time.
fn timed_sweep(
    chip: &ExperimentalChip,
    spec: &SweepSpec,
    threads: usize,
) -> Result<(String, f64), String> {
    let t = Instant::now();
    let report = chip
        .sweep()
        .grid(spec.clone())
        .threads(threads)
        .run()
        .map_err(|e| format!("sweep on {threads} thread(s) failed: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    Ok((render(&report), wall))
}

pub fn run(args: &Args, spec_for: fn(u64) -> SweepSpec) -> Result<Outcome, String> {
    let threads = crate::nproc();
    let mut out = Outcome::default();
    let mut s = Samples::default();
    crate::rounds(args.seconds, |round| {
        let spec = spec_for(args.round_seed(round));
        let expect = expect_for(&spec);
        let mut chip = None;
        for _ in 0..crate::SETUPS {
            let t = Instant::now();
            chip = Some(new_chip());
            s.push("setup_s", t.elapsed().as_secs_f64());
        }
        let chip = chip.expect("at least one set-up");
        out.attempted += crate::SETUPS as u64 + 2;

        s.push("host.calibrate_s", host::calibrate()?);
        let (serial, serial_s) = timed_sweep(&chip, &spec, 1)?;
        s.push("host.calibrate_s", host::calibrate()?);
        let (parallel, parallel_s) = timed_sweep(&chip, &spec, threads)?;
        out.check(check::check_report(&serial, &expect));
        out.check(check::check_identical(
            "1-thread vs all-core report",
            &[&serial, &parallel],
        ));
        s.push("sweep_serial_wall_s", serial_s);
        s.push("sweep_wall_s", parallel_s);
        if args.trace {
            out.attempted += 1;
            traced_round(&chip, &spec, &serial, parallel_s, threads, &mut s)?;
        }
        Ok(())
    })?;
    host::scale_sweep_times(&mut s);
    s.push("peak_rss_mb", peak_rss_mb(std::process::id())?);
    out.metrics = s;
    Ok(out)
}

/// One traced sweep on every core plus timed calls into the layers.
fn traced_round(
    chip: &ExperimentalChip,
    spec: &SweepSpec,
    serial: &str,
    untraced_s: f64,
    threads: usize,
    s: &mut Samples,
) -> Result<(), String> {
    let t = Instant::now();
    let (report, trace) = chip
        .sweep()
        .grid(spec.clone())
        .threads(threads)
        .run_traced()
        .map_err(|e| format!("traced sweep failed: {e}"))?;
    let traced_s = t.elapsed().as_secs_f64();
    s.push("obs.trace_overhead_s", traced_s - untraced_s);

    let t = Instant::now();
    let text = render(&report);
    s.push("json.render_ms", t.elapsed().as_secs_f64() * 1e3);
    if text != serial {
        return Err("the traced report differs from the untraced one".into());
    }
    let t = Instant::now();
    Json::parse(&text).map_err(|e| format!("Json::parse rejected a report: {e}"))?;
    s.push("json.parse_ms", t.elapsed().as_secs_f64() * 1e3);
    s.push("json.parse_bytes", text.len() as f64);
    s.push("workloads.gang_build_s", gang_build_s(spec));
    sweep_layers(&trace, threads, s);
    Ok(())
}

/// Builds every gang of the grid, as the sweep does, and returns the
/// time taken.
pub fn gang_build_s(spec: &SweepSpec) -> f64 {
    let t = Instant::now();
    for work in spec.works() {
        for &n in &spec.core_counts {
            let programs = match work {
                WorkloadId::App(app) => gang(app, n, spec.scale, spec.seed),
                WorkloadId::Server { rps } => {
                    let ghz = (3.2 / n as f64).max(0.2);
                    ServerSpec::standard(rps, spec.scale).gang(n, spec.seed, Hertz::from_ghz(ghz))
                }
            };
            std::hint::black_box(programs);
        }
    }
    t.elapsed().as_secs_f64()
}

fn span_secs<'a>(trace: &'a Trace, name: &'a str) -> impl Iterator<Item = f64> + 'a {
    trace.spans_named(name).map(|s| s.dur_ns as f64 * 1e-9)
}

fn counter(trace: &Trace, name: &str) -> f64 {
    trace.counter(name).unwrap_or(0) as f64
}

/// Per-layer metrics of one traced sweep, from its spans and counters.
pub fn sweep_layers(trace: &Trace, threads: usize, s: &mut Samples) {
    let sim_s: f64 = span_secs(trace, "sim.run").sum();
    let cycles = counter(trace, "sim.cycles_retired");
    s.push("sim.run_s", sim_s);
    s.push(
        "sim.ns_per_cycle",
        if cycles > 0.0 {
            sim_s * 1e9 / cycles
        } else {
            0.0
        },
    );
    s.push("sim.runs", counter(trace, "sim.runs"));
    s.push("sim.cycles", cycles);
    s.push(
        "sim.cycles_fast_forwarded",
        counter(trace, "sim.cycles_fast_forwarded"),
    );
    s.push(
        "sim.instructions",
        counter(trace, "sim.instructions_retired"),
    );

    let profiles: Vec<f64> = span_secs(trace, "profile").collect();
    s.push("profiling.profile_s", profiles.iter().sum());
    s.push("profiling.max_profile_s", max(&profiles));

    let cells: Vec<f64> = span_secs(trace, "sweep.cell").collect();
    let preps: Vec<f64> = span_secs(trace, "sweep.prep").collect();
    s.push("sweep.cell_s", cells.iter().sum());
    s.push("sweep.max_cell_s", max(&cells));
    // A cell waits only for its own row's preparation, so the longest
    // dependency chain is one row's prep plus that row's slowest cell.
    let critical = trace
        .spans_named("sweep.prep")
        .map(|prep| {
            let row = format!("{}@", prep.detail);
            let slowest = trace
                .spans_named("sweep.cell")
                .filter(|c| c.detail.starts_with(&row))
                .map(|c| c.dur_ns)
                .max()
                .unwrap_or(0);
            (prep.dur_ns + slowest) as f64 * 1e-9
        })
        .fold(0.0, f64::max);
    s.push("sweep.critical_path_s", critical);
    let wall: f64 = span_secs(trace, "sweep.run").sum();
    let busy: f64 = cells.iter().chain(&preps).sum();
    s.push(
        "pool.busy_fraction",
        if wall > 0.0 {
            busy / (threads as f64 * wall)
        } else {
            0.0
        },
    );

    s.push(
        "chipstate.measure_s",
        span_secs(trace, "chip.measure").sum(),
    );
    s.push(
        "thermal.fixpoint_s",
        span_secs(trace, "thermal.fixpoint").sum(),
    );
    s.push(
        "thermal.fixpoint_iterations",
        counter(trace, "thermal.fixpoint_iterations"),
    );
    s.push(
        "thermal.steady_solves",
        counter(trace, "thermal.steady_solves"),
    );
    s.push("power.breakdowns", counter(trace, "power.breakdowns"));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real report of the program passes the checks, and the same
    /// report with one frequency nudged does not.
    #[test]
    fn a_real_report_passes_and_a_corrupted_one_fails() {
        let mut spec = fig3_spec(Scale::Test, 7);
        spec.apps.truncate(2);
        spec.server_loads = vec![2_000_000];
        let chip = new_chip();
        let (text, _) = timed_sweep(&chip, &spec, 2).unwrap();
        let expect = expect_for(&spec);
        check::check_report(&text, &expect).unwrap();

        let ghz_at = text.find("\"ghz\": ").unwrap() + 7;
        let rest = &text[ghz_at..];
        let end = rest.find([',', '\n']).unwrap();
        let corrupted = format!("{}3.1{}", &text[..ghz_at], &rest[end..]);
        assert!(check::check_report(&corrupted, &expect).is_err());
        let truncated = text.replacen("\"status\": \"completed\"", "\"status\": \"failed\"", 1);
        assert!(check::check_report(&truncated, &expect).is_err());
    }
}
