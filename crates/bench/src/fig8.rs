//! Figure 8 harness: per-app tracing slowdown.
//!
//! Each application runs twice under the same seed — once on the
//! "stock ROM" (instrumentation compiled out) and once instrumented —
//! and the ratio of CPU times is the slowdown. The paper measures 2×
//! to 6× on a Nexus 4; the simulator reproduces the band and the
//! relative spread (lightweight event loops like Music and ToDoList
//! pay the most, compute-heavy apps like the browsers the least).

use std::time::Instant;

use cafa_apps::{all_apps, AppSpec};
use cafa_engine::fleet;

/// One app's overhead measurement.
#[derive(Clone, Debug)]
pub struct Overhead {
    /// Application name.
    pub name: String,
    /// Median stock (uninstrumented) run time, seconds.
    pub stock_s: f64,
    /// Median instrumented run time, seconds.
    pub traced_s: f64,
}

impl Overhead {
    /// The Figure 8 bar: traced time over stock time.
    pub fn slowdown(&self) -> f64 {
        self.traced_s / self.stock_s
    }
}

/// Best-of-`reps` wall-clock time of `f` (minimum is the standard
/// noise-robust estimator for CPU-bound microbenchmarks).
fn measure(f: impl Fn() -> u64, reps: usize) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .min_by(f64::total_cmp)
        .expect("reps >= 1")
}

/// Measures one app.
///
/// # Panics
///
/// Panics if the workload fails to run (shipped workloads run clean).
pub fn measure_app(app: &AppSpec, reps: usize) -> Overhead {
    let stock_s = measure(|| app.record_uninstrumented(0).unwrap().sink, reps);
    let traced_s = measure(|| app.record(0).unwrap().sink, reps);
    Overhead {
        name: app.name.clone(),
        stock_s,
        traced_s,
    }
}

/// Measures all apps on the fleet. Each app's stock/traced pair runs
/// on one worker, so the slowdown ratio sees the same contention on
/// both sides; best-of-`reps` absorbs the rest of the noise.
pub fn compute(reps: usize) -> Vec<Overhead> {
    let apps = all_apps();
    fleet::map(&apps, fleet::resolve_threads(0), |app| {
        measure_app(app, reps)
    })
}

/// Runs and prints the experiment.
pub fn main() {
    println!("Figure 8 — slowdown of trace collection (paper band: 2x-6x)");
    println!(
        "{:<12} {:>12} {:>12} {:>9}",
        "App", "stock (s)", "traced (s)", "slowdown"
    );
    let mut lo = f64::MAX;
    let mut hi = f64::MIN;
    for o in compute(7) {
        let s = o.slowdown();
        lo = lo.min(s);
        hi = hi.max(s);
        println!(
            "{:<12} {:>12.4} {:>12.4} {:>8.2}x",
            o.name, o.stock_s, o.traced_s, s
        );
    }
    println!("\nmeasured band: {lo:.2}x - {hi:.2}x (paper: 2x - 6x)");
}
