//! Statistics over repetitions, the event-queue replay, and the result
//! line.

use std::hint::black_box;
use std::time::Instant;

use babol_sim::{EventQueue, SimTime};

use crate::device::{Rep, Workload};

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The host cost of a repetition when other tenants leave the machine
/// alone: the 2nd percentile of the per-repetition values. On a shared
/// machine whole stretches of a run, seconds to minutes long, execute up
/// to ~2× slower (other tenants' load, time stolen from the vCPUs); the
/// median follows those stretches, a low percentile needs only a second
/// or so of quiet machine in the run. The slow stretches still show in
/// the median and tail the run prints beside the result line.
pub fn typical(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s.get((s.len().saturating_sub(1)) / 50)
        .copied()
        .unwrap_or(0.0)
}

/// The highest percentile of `v` with at least 10 values beyond it, and
/// that percentile. With fewer than 11 values it is the maximum (p100).
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 11 {
        return (s.last().copied().unwrap_or(0.0), 100.0);
    }
    (s[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Nearest-rank-below percentile of an ascending slice, as `FioReport`
/// computes its own.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted
        .get((sorted.len().saturating_sub(1) as f64 * p) as usize)
        .copied()
        .unwrap_or(0)
}

/// Host ns per event of `EventQueue` alone, replaying a recorded stream of
/// `(pop time ps, depth after pop)`.
///
/// Before pop *k* the queue held `depth_k + 1` events, so the replay pushes
/// the difference from the previous depth and then pops. Pushed event *i*
/// takes the *i*-th pop's time: every event is then popped in the recorded
/// order at the recorded time, at the recorded depth. The median of several
/// replays is reported.
pub fn replay_queue(pops: &[(u64, u32)]) -> f64 {
    if pops.is_empty() {
        return 0.0;
    }
    let mut plan = Vec::with_capacity(pops.len());
    let mut held = 0u64;
    for &(_, depth) in pops {
        plan.push((depth as u64 + 1).saturating_sub(held));
        held = depth as u64;
    }
    let last = pops.len() - 1;
    let mut runs = Vec::new();
    let t0 = Instant::now();
    while runs.len() < 5 || (runs.len() < 101 && t0.elapsed().as_millis() < 200) {
        let mut q = EventQueue::new();
        let mut pushed = 0usize;
        let t = Instant::now();
        for &n in &plan {
            for _ in 0..n {
                q.push(SimTime::from_picos(pops[pushed.min(last)].0), pushed);
                pushed += 1;
            }
            black_box(q.pop());
        }
        runs.push(t.elapsed().as_nanos() as f64 / pops.len() as f64);
    }
    median(&runs)
}

/// The metrics of one run, plus what the correctness check found.
pub struct Metrics {
    workload: Workload,
    seed: u64,
    values: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Metrics {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Metrics {
            workload,
            seed,
            values: Vec::new(),
            notes: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.push((name, value, unit));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed check; `ios` I/Os count as failed.
    pub fn fail(&mut self, what: String, ios: u64) {
        self.failures.push(what);
        self.failed += ios;
    }

    /// Counts the repetitions' I/Os and their failures (I/Os not
    /// completed or returned in `SoftController::errors`).
    pub fn count_reps(&mut self, reps: &[Rep]) {
        for r in reps {
            self.attempted += r.attempted;
            self.failed += r.failed;
        }
    }

    /// Records caught job panics (their I/Os are already counted failed by
    /// the repetition that panicked).
    pub fn panics(&mut self, panics: &[String]) {
        self.failures
            .extend(panics.iter().map(|p| format!("job panicked: {p}")));
    }

    /// Completed share of the I/Os attempted so far.
    pub fn completed_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints the notes, then the result as one JSON line (the last line of
    /// stdout).
    pub fn print(mut self) {
        for (name, v, _) in &self.values {
            if !v.is_finite() {
                self.failures.push(format!("{name} is not finite"));
            }
        }
        println!("workload {} seed {}", self.workload.name(), self.seed);
        for n in &self.notes {
            println!("{}: {n}", self.workload.name());
        }
        for (name, v, unit) in &self.values {
            println!("{}: {name} = {v} {unit}", self.workload.name());
        }
        for f in &self.failures {
            eprintln!("{}: CHECK FAILED: {f}", self.workload.name());
        }
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}
