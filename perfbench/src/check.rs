//! Output checks, computed apart from the program.
//!
//! Every check here recomputes what a sweep report must satisfy from the
//! grid it was asked for and the paper's Eq. 7; none compares against a
//! stored copy of an earlier output.

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// Nominal clock of the modelled chip, GHz (the paper's 3.2 GHz).
const F_NOMINAL_GHZ: f64 = 3.2;
/// Lowest DVFS rung, GHz.
const F_MIN_GHZ: f64 = 0.2;
/// Relative tolerance on the Eq. 7 frequency.
const GHZ_REL_TOL: f64 = 1e-9;

/// What a report must contain: the grid in request order, and for each
/// server row the number of requests its arrival stream generates.
#[derive(Debug, Clone)]
pub struct Expect {
    pub works: Vec<String>,
    pub core_counts: Vec<usize>,
    /// `(lowest, highest)` supply voltage of the DVFS table, volts.
    pub vdd_range: (f64, f64),
    /// Arrivals per server row, keyed by row name (`server-<rps>`).
    pub arrivals: BTreeMap<String, u64>,
}

impl Expect {
    pub fn cells(&self) -> usize {
        self.works.len() * self.core_counts.len()
    }
}

/// Checks one sweep report's JSON text against `expect`.
pub fn check_report(text: &str, expect: &Expect) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("report is not JSON: {e}"))?;
    let total = expect.cells() as f64;
    for (key, want) in [
        ("cells_total", total),
        ("cells_completed", total),
        ("cells_failed", 0.0),
        ("cells_quarantined", 0.0),
    ] {
        let got = doc.num(key)?;
        if got != want {
            return Err(format!("{key} is {got}, expected {want}"));
        }
    }
    let cells = doc.arr("cells")?;
    if cells.len() != expect.cells() {
        return Err(format!(
            "{} cells listed, expected {}",
            cells.len(),
            expect.cells()
        ));
    }
    let grid = expect
        .works
        .iter()
        .flat_map(|w| expect.core_counts.iter().map(move |&n| (w, n)));
    let mut points = Vec::with_capacity(cells.len());
    for (cell, (work, n)) in cells.iter().zip(grid) {
        let at = format!("{work}@{n}");
        if cell.str("app")? != work || cell.num("n")? != n as f64 {
            return Err(format!("cell {at} is out of grid order"));
        }
        if cell.str("status")? != "completed" {
            return Err(format!("cell {at} did not complete"));
        }
        let row = cell.get("row").ok_or(format!("cell {at} has no row"))?;
        points.push(check_row(row, work, n, expect).map_err(|e| format!("cell {at}: {e}"))?);
    }
    // Eq. 7 points share one DVFS ladder: a faster clock never runs at a
    // lower voltage.
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    for pair in points.windows(2) {
        let ((f0, v0), (f1, v1)) = (pair[0], pair[1]);
        if v1 < v0 || (f1 == f0 && v1 != v0) {
            return Err(format!(
                "vdd falls from {v0} V at {f0} GHz to {v1} V at {f1} GHz"
            ));
        }
    }
    Ok(())
}

/// Checks one row; returns its `(ghz, vdd)` operating point.
fn check_row(row: &Value, work: &str, n: usize, expect: &Expect) -> Result<(f64, f64), String> {
    if row.num("n")? != n as f64 {
        return Err("row n differs from cell n".into());
    }
    let server = work.starts_with("server-");
    let eps = row.num("nominal_efficiency")?;
    if server && eps != 1.0 {
        return Err(format!("server row has efficiency {eps}, expected 1"));
    }
    if !(eps.is_finite() && eps > 0.0) {
        return Err(format!("efficiency {eps} is not positive"));
    }
    let op = row.get("operating_point").ok_or("no operating_point")?;
    let (ghz, vdd) = (op.num("ghz")?, op.num("vdd")?);
    let want = (F_NOMINAL_GHZ / (n as f64 * eps)).clamp(F_MIN_GHZ, F_NOMINAL_GHZ);
    if ((ghz - want) / want).abs() > GHZ_REL_TOL {
        return Err(format!("ghz {ghz} is not Eq. 7's {want}"));
    }
    let (lo, hi) = expect.vdd_range;
    if !(lo..=hi).contains(&vdd) {
        return Err(format!(
            "vdd {vdd} lies outside the DVFS table's [{lo}, {hi}]"
        ));
    }
    if n == 1 {
        for key in [
            "nominal_efficiency",
            "actual_speedup",
            "normalized_power",
            "normalized_density",
        ] {
            if row.num(key)? != 1.0 {
                return Err(format!("N = 1 row has {key} {}, expected 1", row.num(key)?));
            }
        }
    }
    match (server, row.get("requests")) {
        (false, Some(Value::Null)) => {}
        (false, other) => return Err(format!("batch row carries requests {other:?}")),
        (true, Some(req @ Value::Obj(_))) => {
            let p = ["p50_us", "p90_us", "p99_us", "max_us"]
                .iter()
                .map(|k| req.num(k))
                .collect::<Result<Vec<_>, _>>()?;
            if !(p[0] >= 0.0 && p.windows(2).all(|w| w[0] <= w[1])) {
                return Err(format!("percentiles out of order: {p:?}"));
            }
            let arrivals = *expect
                .arrivals
                .get(work)
                .ok_or(format!("no arrival count for {work}"))?;
            let completed = req.num("completed")?;
            if !(completed >= 1.0 && completed <= arrivals as f64) {
                return Err(format!("{completed} completions of {arrivals} arrivals"));
            }
        }
        (true, other) => return Err(format!("server row has requests {other:?}")),
    }
    Ok((ghz, vdd))
}

/// Checks that every report in `reports` has the bytes of the first.
pub fn check_identical(what: &str, reports: &[&str]) -> Result<(), String> {
    match reports.iter().position(|r| *r != reports[0]) {
        None => Ok(()),
        Some(i) => Err(format!("{what}: report {i} differs from report 0")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expect() -> Expect {
        Expect {
            works: vec!["FFT".into(), "server-1000".into()],
            core_counts: vec![1, 2, 16],
            vdd_range: (0.76, 1.1),
            arrivals: [("server-1000".to_string(), 2000)].into(),
        }
    }

    fn cell(app: &str, n: usize, eps: f64, ghz: f64, vdd: f64, requests: &str) -> String {
        let norm = if n == 1 { 1.0 } else { 0.5 };
        format!(
            r#"{{"app": "{app}", "n": {n}, "status": "completed", "attempts": 1,
              "row": {{"n": {n}, "nominal_efficiency": {eps}, "actual_speedup": {norm},
                "normalized_power": {norm}, "normalized_density": {norm},
                "operating_point": {{"ghz": {ghz}, "vdd": {vdd}}}, "requests": {requests}}}}}"#
        )
    }

    fn server_requests(p90: f64, completed: u64) -> String {
        format!(
            r#"{{"completed": {completed}, "p50_us": 1.5, "p90_us": {p90}, "p99_us": 9.0, "max_us": 12.0}}"#
        )
    }

    fn report(cells: &[String]) -> String {
        format!(
            r#"{{"cells_total": 6, "cells_completed": 6, "cells_failed": 0, "cells_quarantined": 0, "cells": [{}]}}"#,
            cells.join(",")
        )
    }

    fn good_cells() -> Vec<String> {
        let req = server_requests(4.0, 2000);
        vec![
            cell("FFT", 1, 1.0, 3.2, 1.1, "null"),
            cell("FFT", 2, 0.8, 2.0, 0.9, "null"),
            cell("FFT", 16, 0.5, 0.4, 0.76, "null"),
            cell("server-1000", 1, 1.0, 3.2, 1.1, &req),
            cell("server-1000", 2, 1.0, 1.6, 0.8, &req),
            cell("server-1000", 16, 1.0, 0.2, 0.76, &req),
        ]
    }

    fn rejects(i: usize, replacement: String, why: &str) {
        let mut cells = good_cells();
        cells[i] = replacement;
        let err = check_report(&report(&cells), &expect()).expect_err(why);
        eprintln!("rejected as expected ({why}): {err}");
    }

    #[test]
    fn a_consistent_report_passes() {
        check_report(&report(&good_cells()), &expect()).unwrap();
    }

    #[test]
    fn a_frequency_off_eq7_is_rejected() {
        rejects(
            1,
            cell("FFT", 2, 0.8, 2.0000001, 0.9, "null"),
            "ghz off Eq. 7",
        );
        rejects(
            5,
            cell(
                "server-1000",
                16,
                1.0,
                0.1,
                0.76,
                &server_requests(4.0, 2000),
            ),
            "ghz below the clamp",
        );
    }

    #[test]
    fn a_voltage_outside_the_table_or_out_of_order_is_rejected() {
        rejects(
            2,
            cell("FFT", 16, 0.5, 0.4, 0.7, "null"),
            "vdd below the table",
        );
        rejects(
            1,
            cell("FFT", 2, 0.8, 2.0, 0.7601, "null"),
            "vdd below a slower point's",
        );
    }

    #[test]
    fn an_unnormalised_single_core_row_is_rejected() {
        let bad = cell("FFT", 1, 1.0, 3.2, 1.1, "null")
            .replace(r#""actual_speedup": 1"#, r#""actual_speedup": 0.99"#);
        rejects(0, bad, "N = 1 speedup is not 1");
    }

    #[test]
    fn disordered_percentiles_and_excess_completions_are_rejected() {
        rejects(
            4,
            cell(
                "server-1000",
                2,
                1.0,
                1.6,
                0.8,
                &server_requests(10.0, 2000),
            ),
            "p90 above p99",
        );
        rejects(
            4,
            cell("server-1000", 2, 1.0, 1.6, 0.8, &server_requests(4.0, 2001)),
            "completions above arrivals",
        );
        rejects(
            1,
            cell("FFT", 2, 0.8, 2.0, 0.9, &server_requests(4.0, 10)),
            "batch row with requests",
        );
    }

    #[test]
    fn missing_failed_or_reordered_cells_are_rejected() {
        let mut cells = good_cells();
        cells.pop();
        assert!(check_report(&report(&cells), &expect()).is_err());
        let failed = good_cells()[1].replace(r#""status": "completed""#, r#""status": "failed""#);
        rejects(1, failed, "failed cell");
        let mut swapped = good_cells();
        swapped.swap(0, 1);
        assert!(check_report(&report(&swapped), &expect()).is_err());
        let counts = report(&good_cells()).replace(r#""cells_failed": 0"#, r#""cells_failed": 1"#);
        assert!(check_report(&counts, &expect()).is_err());
    }

    #[test]
    fn differing_bytes_are_rejected() {
        assert!(check_identical("same", &["a", "a", "a"]).is_ok());
        assert!(check_identical("repeat", &["a", "a", "b"]).is_err());
    }
}
