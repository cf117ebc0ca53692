//! Small shared helpers: the seeded generator, order statistics, peak
//! resident memory, and the run's result record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: the benchmark's input generator. The same seed gives the
/// same stream on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// CPU time (user + system, every thread, exited ones included) a process
/// has used, in ms. Time the host steals from the virtual CPUs is
/// accounted as steal, not to the process, so on a shared machine this
/// repeats where wall time does not.
pub fn cpu_ms(pid: u32) -> Result<f64, String> {
    let mut clock = 0i32;
    // SAFETY: `clock_getcpuclockid` writes one `clockid_t` (a C int) through
    // the pointer, which points at a live, writable i32.
    let rc = unsafe { clock_getcpuclockid(pid as i32, &mut clock) };
    if rc != 0 {
        return Err(format!("clock_getcpuclockid({pid}): error {rc}"));
    }
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two C longs on
    // Linux) through the pointer, which points at a live `Timespec` with
    // that layout.
    if unsafe { clock_gettime(clock, &mut time) } != 0 {
        return Err(format!(
            "clock_gettime for process {pid}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(time.tv_sec as f64 * 1e3 + time.tv_nsec as f64 / 1e6)
}

/// Where this process's clocks stood when `main` began.
#[derive(Debug, Clone, Copy)]
pub struct Start {
    pub wall: Instant,
    cpu_ms: f64,
}

impl Start {
    pub fn now() -> Result<Start, String> {
        Ok(Start {
            wall: Instant::now(),
            cpu_ms: cpu_ms(std::process::id())?,
        })
    }

    /// CPU time (ms) this process has used since `main` began. A process
    /// keeps its CPU clock across `exec`, so what ran in it before (the
    /// forked `cargo run` that started the benchmark, about 40 ms) is left
    /// out.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        Ok(cpu_ms(std::process::id())? - self.cpu_ms)
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))?;
    Ok(kb / 1024.0)
}

/// What one run reports: operation counts, the correctness verdict and
/// the metrics by name with their units.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Check failures on operations that did not fail; any entry makes
    /// the run incorrect.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    /// Records a check result; keeps the first few failures verbatim.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            if self.errors.len() < 20 {
                self.errors.push(e);
            } else if self.errors.len() == 20 {
                self.errors.push("(further check failures omitted)".into());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let me = std::process::id();
        let before = cpu_ms(me).unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_ms(me).unwrap() > before, "{x}");
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.25, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.check(Err("bad".into()));
        assert!(!o.correct());
    }
}
