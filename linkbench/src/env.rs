//! The environment a result was measured in: core count, CPU model,
//! compiler version and a fixed calibration loop, so results from two
//! machines (or two noisy neighbours on one) can be told apart.

use std::hint::black_box;
use std::time::Instant;

/// Identity of the measuring machine and toolchain.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// Median ns of [`calibration_loop`] over five runs.
    pub calibration_ns: f64,
}

impl Fingerprint {
    /// Probe the current environment.
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let samples: Vec<f64> = (0..5).map(|_| calibration_loop()).collect();
        Fingerprint {
            available_parallelism: available_parallelism(),
            cpu_model,
            rustc,
            calibration_ns: crate::stats::median(&samples).unwrap_or(0.0),
        }
    }

    /// The fingerprint as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"available_parallelism\":{},\"cpu_model\":{:?},\"rustc\":{:?},\
             \"calibration_ns\":{}}}",
            self.available_parallelism, self.cpu_model, self.rustc, self.calibration_ns
        )
    }
}

/// `std::thread::available_parallelism`, 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// ns taken by a fixed dependent-multiply loop of 20 M steps: a
/// machine-speed yardstick independent of the code under test.
pub fn calibration_loop() -> f64 {
    let start = Instant::now();
    let mut x: u64 = black_box(0x2545_F491_4F6C_DD1D);
    for _ in 0..20_000_000u32 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
    }
    black_box(x);
    start.elapsed().as_nanos() as f64
}

/// The process's peak resident set (`VmHWM`) in MB, `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
