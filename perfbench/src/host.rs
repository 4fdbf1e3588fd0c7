//! Host-speed calibration.
//!
//! On a shared virtual machine the speed of the host drifts by 10–25%
//! over minutes, with or without steal time recorded, and a set of runs
//! that straddles such a drift spreads past any tight bound. The sweep
//! times of every workload are therefore scaled to a reference host
//! speed: a fixed integer kernel, independent of the program under test,
//! is timed just before every measured sweep, and a run's sweep medians
//! are multiplied by `REFERENCE_S / median(kernel time)`. A change to the
//! program moves the scaled times exactly as much as the raw ones; a
//! slower host slows the kernel too, and cancels out.

use std::process::Command;
use std::time::Instant;

use crate::stats::median;
use crate::Samples;

/// The argument that makes the benchmark binary time the kernel once
/// and print the seconds taken.
pub const KERNEL_FLAG: &str = "--time-host-kernel";

/// Steps of the kernel per timing in its small table (16 KiB, held in
/// L1: tracks the core clock) and in its large one (4 MiB, beyond L2:
/// tracks contention for the caches shared with other guests).
const SMALL: (usize, u64) = (1 << 12, 20_000_000);
const LARGE: (usize, u64) = (1 << 20, 10_000_000);

/// Time of one timing on the reference host, seconds: the median on
/// the 2-vCPU machine the README's figures come from. Scaled times are
/// seconds at that speed.
pub const REFERENCE_S: f64 = 0.110;

/// Reports the sweep wall times (`sweep_serial_wall_s`, `sweep_wall_s`)
/// at the reference host speed, as `sweep_serial_s` and `sweep_s`: every
/// sample scaled by the same factor, so the medians are the raw medians
/// times that factor.
pub fn scale_sweep_times(s: &mut Samples) {
    let calibrate_s = median(s.get("host.calibrate_s"));
    let factor = REFERENCE_S / calibrate_s;
    for (raw, scaled) in [
        ("sweep_serial_wall_s", "sweep_serial_s"),
        ("sweep_wall_s", "sweep_s"),
    ] {
        let values: Vec<f64> = s.get(raw).iter().map(|v| v * factor).collect();
        eprintln!(
            "perfbench: {scaled}: raw wall median {} s, host calibration median {calibrate_s} s, factor {factor}",
            median(s.get(raw)),
        );
        s.extend(scaled, &values);
    }
}

/// Times the kernel once in a child process and returns its wall time
/// in seconds. The child keeps the kernel's tables out of the peak
/// resident set of the benchmark process, which `peak_rss_mb` reports.
pub fn calibrate() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .arg(KERNEL_FLAG)
        .output()
        .map_err(|e| format!("host kernel child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(format!("host kernel child: {} {text:?}", out.status)),
    }
}

/// Times the kernel once in this process and returns its wall time in
/// seconds.
///
/// The kernel is a xorshift stream updating a table at random indices
/// through a data-dependent branch: integer work, loads and stores and
/// unpredictable branches, as in the simulator.
pub fn kernel() -> f64 {
    let mut small = vec![1u32; SMALL.0];
    let mut large = vec![1u32; LARGE.0];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t = Instant::now();
    walk(&mut small, SMALL.1, &mut x);
    walk(&mut large, LARGE.1, &mut x);
    let elapsed = t.elapsed().as_secs_f64();
    std::hint::black_box((&small, &large));
    elapsed
}

fn walk(table: &mut [u32], steps: u64, x: &mut u64) {
    let mask = table.len() - 1;
    for _ in 0..steps {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let i = *x as usize & mask;
        let v = table[i];
        table[i] = if v & 1 == 0 {
            v.wrapping_add(*x as u32 | 1)
        } else {
            v >> 1
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A host that runs the kernel at half the reference speed halves
    /// the reported sweep times.
    #[test]
    fn a_slow_host_scales_sweep_times_down() {
        let mut s = Samples::default();
        s.extend("host.calibrate_s", &[2.0 * REFERENCE_S; 3]);
        s.extend("sweep_serial_wall_s", &[4.0, 6.0]);
        s.push("sweep_wall_s", 3.0);
        scale_sweep_times(&mut s);
        assert_eq!(s.get("sweep_serial_s"), &[2.0, 3.0]);
        assert_eq!(s.get("sweep_s"), &[1.5]);
    }
}
