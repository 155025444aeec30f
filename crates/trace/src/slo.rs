//! Service-level objectives evaluated over streaming metrics frames.
//!
//! An [`SloSpec`] is a single objective — a latency percentile ceiling
//! (`p99<800us`) or a throughput floor (`iops>50000`) — parsed from the
//! compact text form the `ssd_fio --slo` flag takes. Each spec is evaluated
//! per [`MetricsFrame`][crate::MetricsFrame] (one verdict per sim-time
//! window), and the per-frame breaches fold into an [`SloVerdict`]: total
//! breach count, the longest consecutive breach streak, and breach rates
//! over a short trailing window and the whole run — the two-window "burn
//! rate" shape of error-budget alerting, where a fast burn over the short
//! window pages and a slow burn over the long window tickets.
//!
//! Everything is integer math on picoseconds and frame counts, so verdicts
//! are bit-deterministic and safe to embed in the `metrics.jsonl` footer.

use std::fmt;

use babol_sim::SimDuration;

use crate::metrics::MetricsFrame;

/// Frames in the short burn-rate window (the "fast burn" alerting window).
pub const SLO_SHORT_WINDOW: usize = 8;

/// Which statistic of a window an [`SloSpec`] constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloStat {
    /// Median window latency.
    P50,
    /// 95th-percentile window latency.
    P95,
    /// 99th-percentile window latency.
    P99,
    /// Mean window latency.
    Mean,
    /// Completed ops per second in the window.
    Iops,
}

impl SloStat {
    /// Text form used in specs and exports.
    pub const fn name(self) -> &'static str {
        match self {
            SloStat::P50 => "p50",
            SloStat::P95 => "p95",
            SloStat::P99 => "p99",
            SloStat::Mean => "mean",
            SloStat::Iops => "iops",
        }
    }
}

/// One service-level objective.
///
/// Latency stats take a `<` ceiling; `iops` takes a `>` floor. The
/// canonical text form (`p99<800us`, `iops>50000`) round-trips through
/// [`SloSpec::parse`] and [`fmt::Display`] and is comma-free by
/// construction, so it can travel as a string value in the flat
/// `metrics.jsonl` records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloSpec {
    /// The constrained statistic.
    pub stat: SloStat,
    /// Ceiling in picoseconds (latency stats) — 0 for `iops`.
    pub max_ps: u64,
    /// Floor in ops/second (`iops`) — 0 for latency stats.
    pub min_iops: u64,
}

impl fmt::Display for SloSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stat {
            SloStat::Iops => write!(f, "iops>{}", self.min_iops),
            _ => write!(f, "{}<{}", self.stat.name(), fmt_duration(self.max_ps)),
        }
    }
}

/// Renders picoseconds in the largest unit that divides it exactly, so
/// parsed specs round-trip (`800us` stays `800us`, not `800000ns`).
fn fmt_duration(ps: u64) -> String {
    const UNITS: [(&str, u64); 5] = [
        ("s", 1_000_000_000_000),
        ("ms", 1_000_000_000),
        ("us", 1_000_000),
        ("ns", 1_000),
        ("ps", 1),
    ];
    for (unit, scale) in UNITS {
        if ps >= scale && ps % scale == 0 {
            return format!("{}{}", ps / scale, unit);
        }
    }
    format!("{ps}ps")
}

impl SloSpec {
    /// Parses the compact text form: `p50|p95|p99|mean` `<` duration
    /// (integer + `ps|ns|us|ms|s`), or `iops` `>` integer.
    pub fn parse(text: &str) -> Result<SloSpec, String> {
        let text = text.trim();
        if let Some(rest) = text.strip_prefix("iops>") {
            let min: u64 = rest
                .parse()
                .map_err(|_| format!("bad iops floor in SLO spec `{text}`"))?;
            return Ok(SloSpec {
                stat: SloStat::Iops,
                max_ps: 0,
                min_iops: min,
            });
        }
        let (stat, rest) = [
            (SloStat::P50, "p50<"),
            (SloStat::P95, "p95<"),
            (SloStat::P99, "p99<"),
            (SloStat::Mean, "mean<"),
        ]
        .into_iter()
        .find_map(|(s, prefix)| text.strip_prefix(prefix).map(|r| (s, r)))
        .ok_or_else(|| {
            format!("SLO spec `{text}` must look like p99<800us, mean<1ms, or iops>50000")
        })?;
        let ps = parse_duration_ps(rest)
            .ok_or_else(|| format!("bad duration `{rest}` in SLO spec `{text}`"))?;
        if ps == 0 {
            return Err(format!("SLO ceiling must be positive in `{text}`"));
        }
        Ok(SloSpec {
            stat,
            max_ps: ps,
            min_iops: 0,
        })
    }

    /// Evaluates the objective against one frame. `None` means the frame
    /// carries no signal for this spec (a latency objective over a window
    /// that completed no ops); `Some(true)` is a breach.
    pub fn breached(&self, frame: &MetricsFrame, window_ps: u64) -> Option<bool> {
        match self.stat {
            SloStat::Iops => {
                let per_sec =
                    (u128::from(frame.ops) * 1_000_000_000_000u128 / u128::from(window_ps)) as u64;
                Some(per_sec < self.min_iops)
            }
            _ => {
                let lat = frame.lat();
                if lat.is_empty() {
                    return None;
                }
                let observed = match self.stat {
                    SloStat::P50 => lat.percentile(50.0),
                    SloStat::P95 => lat.percentile(95.0),
                    SloStat::P99 => lat.percentile(99.0),
                    SloStat::Mean => lat.mean(),
                    SloStat::Iops => unreachable!(),
                };
                Some(observed.as_picos() >= self.max_ps)
            }
        }
    }
}

/// Parses `800us` / `1ms` / `950000ns` into picoseconds.
fn parse_duration_ps(s: &str) -> Option<u64> {
    const UNITS: [(&str, u64); 5] = [
        ("ps", 1),
        ("ns", 1_000),
        ("us", 1_000_000),
        ("ms", 1_000_000_000),
        ("s", 1_000_000_000_000),
    ];
    // Longest suffix first so `ns`/`ps` win over the bare `s`.
    let (unit, scale) = UNITS
        .into_iter()
        .filter(|(u, _)| s.ends_with(u))
        .max_by_key(|(u, _)| u.len())?;
    let num: u64 = s[..s.len() - unit.len()].parse().ok()?;
    num.checked_mul(scale)
}

/// The outcome of evaluating one [`SloSpec`] over a run's device frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloVerdict {
    /// The objective this verdict is for.
    pub spec: SloSpec,
    /// Frames that carried signal for the objective.
    pub evaluated: u64,
    /// Frames in breach.
    pub breaches: u64,
    /// Longest run of consecutive breached frames.
    pub longest_streak: u64,
    /// Breach rate over the trailing [`SLO_SHORT_WINDOW`] evaluated
    /// frames, in basis points (10000 = every frame breached).
    pub burn_short_bp: u64,
    /// Breach rate over every evaluated frame, in basis points.
    pub burn_long_bp: u64,
}

impl SloVerdict {
    /// Whether the objective held for the whole run.
    pub fn ok(&self) -> bool {
        self.breaches == 0
    }
}

/// Evaluates one spec against a run's device frames (one verdict per run).
pub fn evaluate_slo(spec: &SloSpec, frames: &[MetricsFrame], window_ps: u64) -> SloVerdict {
    let mut evaluated = 0u64;
    let mut breaches = 0u64;
    let mut streak = 0u64;
    let mut longest = 0u64;
    // Per-frame breach bits for evaluated frames, in frame order, so the
    // short-window burn rate can look at the trailing edge.
    let mut tail: Vec<bool> = Vec::new();
    for f in frames {
        match spec.breached(f, window_ps) {
            None => {}
            Some(b) => {
                evaluated += 1;
                tail.push(b);
                if b {
                    breaches += 1;
                    streak += 1;
                    longest = longest.max(streak);
                } else {
                    streak = 0;
                }
            }
        }
    }
    let short = tail
        .iter()
        .rev()
        .take(SLO_SHORT_WINDOW)
        .filter(|&&b| b)
        .count() as u64;
    let short_n = tail.len().min(SLO_SHORT_WINDOW) as u64;
    SloVerdict {
        spec: spec.clone(),
        evaluated,
        breaches,
        longest_streak: longest,
        burn_short_bp: (short * 10_000).checked_div(short_n).unwrap_or(0),
        burn_long_bp: (breaches * 10_000).checked_div(evaluated).unwrap_or(0),
    }
}

/// Per-frame breach marks (`!` breach, `.` clean, space = no signal) for
/// the dashboard's SLO marker lane, one char per frame.
pub fn breach_marks(spec: &SloSpec, frames: &[MetricsFrame], window_ps: u64) -> Vec<char> {
    frames
        .iter()
        .map(|f| match spec.breached(f, window_ps) {
            None => ' ',
            Some(true) => '!',
            Some(false) => '.',
        })
        .collect()
}

/// Convenience: evaluate a [`SimDuration`] ceiling as picoseconds.
pub fn latency_spec(stat: SloStat, max: SimDuration) -> SloSpec {
    SloSpec {
        stat,
        max_ps: max.as_picos(),
        min_iops: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use babol_sim::SimTime;

    use crate::metrics::MetricsHub;

    fn frames_with_latencies(per_frame_ns: &[&[u64]], window_ps: u64) -> Vec<MetricsFrame> {
        let mut hub = MetricsHub::new(SimDuration::from_picos(window_ps));
        for (i, lats) in per_frame_ns.iter().enumerate() {
            let at = SimTime::from_picos(i as u64 * window_ps + 1);
            for &ns in *lats {
                hub.observe_latency(at, SimDuration::from_nanos(ns));
            }
        }
        hub.frames().collect()
    }

    #[test]
    fn spec_parse_and_display_roundtrip() {
        for text in ["p99<800us", "p50<1ms", "mean<950ns", "iops>50000", "p95<3s"] {
            let spec = SloSpec::parse(text).unwrap();
            assert_eq!(spec.to_string(), text, "round-trip of {text}");
        }
        assert_eq!(SloSpec::parse("p99<800us").unwrap().max_ps, 800 * 1_000_000);
        assert!(SloSpec::parse("p99>800us").is_err());
        assert!(SloSpec::parse("p42<1ms").is_err());
        assert!(SloSpec::parse("p99<eightus").is_err());
        assert!(SloSpec::parse("p99<0us").is_err());
        assert!(SloSpec::parse("iops>many").is_err());
    }

    #[test]
    fn latency_breaches_count_streaks_and_burn() {
        let w = 1_000_000_000u64; // 1 ms windows
                                  // Frames: ok, breach, breach, ok, empty, breach.
        let frames =
            frames_with_latencies(&[&[10, 20], &[2000], &[1500, 1800], &[5], &[], &[1200]], w);
        let spec = SloSpec::parse("p99<1us").unwrap();
        let v = evaluate_slo(&spec, &frames, w);
        assert_eq!(v.evaluated, 5, "empty frame carries no latency signal");
        assert_eq!(v.breaches, 3);
        assert_eq!(v.longest_streak, 2);
        assert!(!v.ok());
        assert_eq!(v.burn_long_bp, 3 * 10_000 / 5);
        assert_eq!(v.burn_short_bp, 3 * 10_000 / 5); // run shorter than short window
        let marks: String = breach_marks(&spec, &frames, w).into_iter().collect();
        assert_eq!(marks, ".!!. !");
    }

    #[test]
    fn iops_floor_counts_empty_frames_as_breaches() {
        let w = 1_000_000_000u64; // 1 ms windows -> 1 op = 1000 IOPS
        let frames = frames_with_latencies(&[&[10, 10, 10], &[], &[10]], w);
        let spec = SloSpec::parse("iops>2000").unwrap();
        let v = evaluate_slo(&spec, &frames, w);
        assert_eq!(v.evaluated, 3, "iops evaluates every frame");
        assert_eq!(v.breaches, 2);
        let ok = evaluate_slo(&SloSpec::parse("iops>1000").unwrap(), &frames[..1], w);
        assert!(ok.ok());
    }

    #[test]
    fn clean_run_has_zero_burn() {
        let w = 1_000_000_000u64;
        let frames = frames_with_latencies(&[&[10], &[20], &[30]], w);
        let v = evaluate_slo(&SloSpec::parse("p99<1ms").unwrap(), &frames, w);
        assert!(v.ok());
        assert_eq!((v.burn_short_bp, v.burn_long_bp), (0, 0));
        assert_eq!(v.longest_streak, 0);
    }
}
