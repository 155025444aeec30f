//! The repository benchmark: host time per simulated host I/O on fio
//! workloads, exact per-layer work counts, and a traced host-time split.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig12_randread --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `--trace 0` sets the device up several times, then times repetitions
//! of the workload for `--seconds` and prints the end-to-end metrics.
//! `--trace 1` prints the per-layer metrics instead: it reruns the
//! workload's reference repetitions with the tracer and the controller
//! adapter's spans on and checks that the simulated outputs match the
//! untraced run. Either way the last stdout line is one JSON object.
//! `--repro <n>` reproduces a recorded defect. See NOTES.md for the
//! workloads, the metrics and what each should move.

// Wall-clock time is what this program measures; the simulation it drives
// still runs on `SimTime` alone.
#![allow(clippy::disallowed_methods)]

mod defects;
mod device;
mod host;
mod probe;
mod report;

use std::time::{Duration, Instant};

use device::{setup, Build, Counts, Device, Rep, Runner, Workload};
use report::{median, percentile, tail, typical, Metrics};

/// Device set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Short-length mode for the benchmark's own tests: one set-up and the
    /// first two repetitions only.
    short: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter().cloned();
    let (mut workload, mut seed, mut seconds, mut trace, mut short) = (None, 0, 20, false, false);
    while let Some(flag) = it.next() {
        if flag == "--short" {
            short = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?,
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        short,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--repro") {
        if let Err(e) = defects::repro(argv.get(1).map_or("", String::as_str)) {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> [--short]\n       perfbench --repro <1|2|3|4>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let out = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    out.print();
}

/// Runs repetitions on `runner`: the reference repetitions, then more until
/// `seconds` of wall time have passed since the first began. Returns them
/// with the process's peak RSS (MB) as it stood after the reference
/// repetitions: a fixed amount of work, whatever the host's speed.
fn run_reps(runner: &mut Runner, a: &Args, seconds: u64) -> (Vec<Rep>, f64) {
    let t0 = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut reps = fixed_reps(runner, ref_count(a));
    let rss = host::peak_rss_mb();
    while !a.short && t0.elapsed() < budget {
        reps.push(runner.rep());
    }
    (reps, rss)
}

/// How many reference repetitions a run makes: the repetitions whose
/// simulated outputs define the `sim_*` metrics and the work counts. They
/// run first in every mode, so they are the same simulation at every host
/// speed.
fn ref_count(a: &Args) -> usize {
    if a.short {
        2
    } else {
        a.workload.reference_reps()
    }
}

fn ref_reps<'a>(reps: &'a [Rep], a: &Args) -> &'a [Rep] {
    &reps[..ref_count(a).min(reps.len())]
}

/// Per-I/O host ns of each repetition that completed I/Os.
fn per_io(reps: &[Rep], f: impl Fn(&Rep) -> u64) -> Vec<f64> {
    reps.iter()
        .filter(|r| r.sim.ios > 0)
        .map(|r| f(r) as f64 / r.sim.ios as f64)
        .collect()
}

fn sum_counts(reps: &[Rep]) -> (Counts, u64, u64) {
    let mut c = Counts::default();
    let (mut ios, mut elapsed) = (0, 0);
    for r in reps {
        c.add(&r.sim.counts);
        ios += r.sim.ios;
        elapsed += r.sim.elapsed_ps;
    }
    (c, ios, elapsed)
}

/// Sets a device up; a set-up that panics fails the run's check.
fn try_setup(m: &mut Metrics, w: Workload, seed: u64, b: Build) -> Option<Device> {
    match setup(w, seed, b) {
        Ok((dev, pre)) => {
            m.note(format!(
                "{} set-up, closed loop at QD {}: {}",
                if b.traced { "traced" } else { "untraced" },
                w.queue_depth(),
                pre.describe()
            ));
            Some(dev)
        }
        Err(e) => {
            m.fail(format!("set-up panicked: {e}"), 0);
            None
        }
    }
}

fn timed_run(a: &Args) -> Metrics {
    let w = a.workload;
    let mut m = Metrics::new(w, a.seed);
    let n_setups = if a.short { 1 } else { SETUPS };
    let t = Instant::now();
    let dev = try_setup(&mut m, w, a.seed, Build::TIMED);
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let mut runner = Runner::new(w, a.seed, Build::TIMED, dev);
    let t0 = Instant::now();
    let budget = Duration::from_secs(a.seconds);
    let mut reps = fixed_reps(&mut runner, ref_count(a));
    let peak_rss_mb = host::peak_rss_mb();
    // The other set-ups are spread over the run, each device dropped once
    // timed, so that a slow stretch of the machine a few seconds long
    // cannot set the median.
    for k in 1..n_setups {
        while t0.elapsed() < budget * k as u32 / n_setups as u32 {
            reps.push(runner.rep());
        }
        let t = Instant::now();
        let extra = try_setup(&mut m, w, a.seed, Build::TIMED);
        setups.push(t.elapsed().as_secs_f64());
        drop(extra);
    }
    while !a.short && t0.elapsed() < budget {
        reps.push(runner.rep());
    }
    m.panics(&runner.panics);
    m.count_reps(&reps);

    // Host time follows other tenants' load on a shared machine more than
    // the program (NOTES.md), so it is printed here and reported as a
    // per-layer metric by the traced run, outside the bounded result line.
    let host = per_io(&reps, |r| r.wall_ns);
    let (tail_v, tail_p) = tail(&host);
    m.note(format!(
        "host ns/io over {} repetitions of {} I/Os: p2 {:.1}, median {:.1}, p{tail_p:.1} {tail_v:.1}; cpu ns/io p2 {:.1}",
        host.len(),
        w.rep_ios(),
        typical(&host),
        median(&host),
        typical(&per_io(&reps, |r| r.cpu_ns)),
    ));
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", peak_rss_mb, "MB");

    let refs = ref_reps(&reps, a);
    let (c, ios, elapsed_ps) = sum_counts(refs);
    let mut lat: Vec<u64> = refs
        .iter()
        .flat_map(|r| r.sim.latencies_ps.iter().copied())
        .collect();
    lat.sort_unstable();
    m.put("sim_iops", ios as f64 / (elapsed_ps as f64 * 1e-12), "1/s");
    // Multi-channel latencies mix shard clocks that drift apart (defect 4),
    // so the percentiles stay out of the result line (NOTES.md).
    m.note(format!(
        "simulated latency from the due time over the reference repetitions: p50 {:.3} us, p99 {:.3} us",
        percentile(&lat, 0.50) as f64 / 1e6,
        percentile(&lat, 0.99) as f64 / 1e6
    ));
    m.put("sim_uj_per_io", c.energy_pj as f64 / ios as f64 / 1e6, "uJ");
    m.put("ops_completed_frac", m.completed_frac(), "ratio");
    m.note(format!(
        "{} repetitions timed; sim_* over the first {}: {ios} I/Os, {} GC cycles; \
         the device's own p99 over the same I/Os reads at most {:.3} us (NOTES.md, defect 1)",
        reps.len(),
        refs.len(),
        c.gc_cycles,
        refs.iter().map(|r| r.reported_p99_ps).max().unwrap_or(0) as f64 / 1e6
    ));
    m
}

/// Runs exactly `n` repetitions.
fn fixed_reps(runner: &mut Runner, n: usize) -> Vec<Rep> {
    (0..n).map(|_| runner.rep()).collect()
}

/// Checks that `other` reproduced `base`'s simulated outputs repetition by
/// repetition (the tracer-only counts aside); a repetition that differs
/// counts as failed.
fn same_sim(m: &mut Metrics, what: &str, base: &[Rep], other: &[Rep]) {
    if other.len() < base.len() {
        m.fail(
            format!("{what}: ran {} of {} repetitions", other.len(), base.len()),
            0,
        );
    }
    for (i, (b, o)) in base.iter().zip(other).enumerate() {
        let (mut bs, mut os) = (b.sim.clone(), o.sim.clone());
        bs.counts = bs.counts.public();
        os.counts = os.counts.public();
        if bs != os {
            m.fail(
                format!("{what}: repetition {i} differs in its simulated outputs"),
                b.attempted,
            );
        }
    }
}

/// Per-layer values that are not plain counts per I/O. Each stays 0 on a
/// workload that has no such layer or hides it (NOTES.md lists which).
#[derive(Default)]
struct Layer {
    pending_max: f64,
    ns_per_event: f64,
    speedup_2t: f64,
    cpu_per_wall: f64,
    pool_high_water: f64,
    ctrl_ns: f64,
    ftl_ns: f64,
    metrics_overhead_pct: f64,
}

fn traced_run(a: &Args) -> Metrics {
    let w = a.workload;
    let mut m = Metrics::new(w, a.seed);
    let half = a.seconds / 2;
    let host = |reps: &[Rep]| typical(&per_io(reps, |r| r.wall_ns));

    // The untraced run, as the end-to-end run measures it.
    let dev = try_setup(&mut m, w, a.seed, Build::TIMED);
    let mut timed = Runner::new(w, a.seed, Build::TIMED, dev);
    let (timed_reps, _) = run_reps(&mut timed, a, half);
    m.panics(&timed.panics);
    m.count_reps(&timed_reps);
    let base = ref_reps(&timed_reps, a);
    let (base_counts, ios, elapsed_ps) = sum_counts(base);

    // The traced rerun.
    let tb = Build {
        traced: true,
        ..Build::TIMED
    };
    let mut dev = try_setup(&mut m, w, a.seed, tb);
    if let Some(Device::Single(s)) = &mut dev {
        s.probe.pending_max = 0;
        s.probe.pops = Some(Vec::new());
    }
    let mut traced = Runner::new(w, a.seed, tb, dev);
    let traced_reps = if w.is_multi() {
        // Shard tracers are read once, at shutdown: run exactly the
        // reference repetitions.
        fixed_reps(&mut traced, base.len())
    } else {
        run_reps(&mut traced, a, half).0
    };
    m.panics(&traced.panics);
    m.count_reps(&traced_reps);
    same_sim(&mut m, "traced vs timed", base, &traced_reps);
    let tracer_overhead = (host(&traced_reps) / host(&timed_reps) - 1.0) * 100.0;

    let mut l = Layer::default();
    let c = match traced.dev.take() {
        Some(Device::Single(s)) => {
            l.pending_max = s.probe.pending_max as f64;
            l.ns_per_event = report::replay_queue(s.probe.pops.as_deref().unwrap_or(&[]));
            l.pool_high_water = s.pool_high_water() as f64;
            let spans: Vec<_> = traced_reps.iter().flat_map(|r| &r.spans).collect();
            let job: u64 = spans.iter().map(|s| s.job_ns).sum();
            let ctrl: u64 = spans.iter().map(|s| s.ctrl_ns()).sum();
            let span_ios: u64 = traced_reps.iter().map(|r| r.sim.ios).sum();
            l.ctrl_ns = ctrl as f64 / span_ios as f64;
            l.ftl_ns = job.saturating_sub(ctrl) as f64 / span_ios as f64;
            m.note(format!(
                "traced job spans: {:.1} ns/io = ctrl.self {:.1} + ftl.self {:.1}, over {} jobs",
                job as f64 / span_ios as f64,
                l.ctrl_ns,
                l.ftl_ns,
                spans.len()
            ));
            let by_kind: Vec<String> = ["submit", "on_event", "take_completions"]
                .iter()
                .enumerate()
                .map(|(k, name)| {
                    let (n, ns) = spans
                        .iter()
                        .fold((0, 0), |(n, ns), s| (n + s.calls[k].n, ns + s.calls[k].ns));
                    format!(
                        "{name} {:.1} calls/io, {:.1} ns/io",
                        n as f64 / span_ios as f64,
                        ns as f64 / span_ios as f64
                    )
                })
                .collect();
            m.note(format!("controller calls: {}", by_kind.join("; ")));
            if let Some(slow) = spans.iter().max_by_key(|s| s.job_ns) {
                m.note(format!(
                    "slowest job span: id {}, {} ns (controller {} ns in {} calls, FTL self {} ns)",
                    slow.id,
                    slow.job_ns,
                    slow.ctrl_ns(),
                    slow.calls.iter().map(|c| c.n).sum::<u64>(),
                    slow.self_ns()
                ));
            }
            sum_counts(ref_reps(&traced_reps, a)).0
        }
        Some(Device::Multi(mm)) => {
            // Shards give their tracer counters back only at shutdown, so
            // the set-up's share comes from a second device stopped right
            // after set-up.
            let (total, hw) = mm.finish_counts();
            l.pool_high_water = hw as f64;
            let setup_only = match try_setup(&mut m, w, a.seed, tb) {
                Some(Device::Multi(s)) => s.finish_counts().0,
                _ => Counts::default(),
            };
            let tracer = total.minus(setup_only);
            m.note(format!(
                "events over the reference repetitions: MultiFioReport::events says {}, \
                 the tracer's EventsPopped {} (NOTES.md, defect 2)",
                base.iter().map(|r| r.reported_events).sum::<u64>(),
                tracer.events
            ));
            l.cpu_per_wall = timed_reps.iter().map(|r| r.cpu_ns).sum::<u64>() as f64
                / timed_reps.iter().map(|r| r.wall_ns).sum::<u64>() as f64;
            let one_thread = Build {
                threads: 1,
                ..Build::TIMED
            };
            let hub_off = Build {
                hub: false,
                ..Build::TIMED
            };
            for (what, b) in [("1 thread vs 2", one_thread), ("hub off vs on", hub_off)] {
                let dev = try_setup(&mut m, w, a.seed, b);
                let mut r = Runner::new(w, a.seed, b, dev);
                let reps = fixed_reps(&mut r, base.len());
                m.panics(&r.panics);
                m.count_reps(&reps);
                same_sim(&mut m, what, base, &reps);
                if b.threads == 1 {
                    l.speedup_2t = host(&reps) / host(base);
                } else {
                    l.metrics_overhead_pct = (host(base) / host(&reps) - 1.0) * 100.0;
                }
            }
            Counts {
                rounds: base_counts.rounds,
                gc_cycles: base_counts.gc_cycles,
                host_writes: base_counts.host_writes,
                cache_hits: base_counts.cache_hits,
                cache_misses: base_counts.cache_misses,
                dirty_evicts: base_counts.dirty_evicts,
                ..tracer
            }
        }
        None => Counts::default(),
    };

    let per = |x: u64| x as f64 / ios as f64;
    let ratio = |x: u64, y: u64| if y == 0 { 0.0 } else { x as f64 / y as f64 };
    m.put("host_ns_per_io", host(&timed_reps), "ns");
    m.put(
        "cpu_ns_per_io",
        typical(&per_io(&timed_reps, |r| r.cpu_ns)),
        "ns",
    );
    m.put("queue.events_per_io", per(c.events), "count/io");
    m.put("queue.pending_max", l.pending_max, "count");
    m.put("queue.ns_per_event", l.ns_per_event, "ns");
    m.put("par.rounds_per_io", per(c.rounds), "count/io");
    m.put("par.events_per_round", ratio(c.events, c.rounds), "count");
    m.put("par.speedup_2t", l.speedup_2t, "ratio");
    m.put("par.cpu_per_wall", l.cpu_per_wall, "ratio");
    m.put("pool.acquires_per_io", per(c.pool_acquires), "count/io");
    m.put(
        "pool.heap_allocs_per_io",
        per(c.pool_heap_allocs),
        "count/io",
    );
    m.put("pool.high_water", l.pool_high_water, "count");
    // Every controller CPU in the benchmark runs at 1000 MHz: 1 cycle = 1 ns.
    m.put(
        "cpu.busy_frac",
        ratio(c.cpu_cycles * 1000, elapsed_ps),
        "ratio",
    );
    m.put("flash.reads_per_io", per(c.flash_reads), "count/io");
    m.put("flash.programs_per_io", per(c.flash_programs), "count/io");
    m.put("flash.erases_per_io", per(c.flash_erases), "count/io");
    m.put("flash.status_polls_per_io", per(c.status_polls), "count/io");
    m.put("channel.segments_per_io", per(c.segments), "count/io");
    m.put("channel.phases_per_io", per(c.phases), "count/io");
    m.put(
        "channel.busy_frac",
        ratio(c.bus_busy_ps, elapsed_ps),
        "ratio",
    );
    m.put("ufsm.instrs_per_io", per(c.instrs), "count/io");
    m.put("runtime.txns_per_io", per(c.txns), "count/io");
    m.put("runtime.sched_picks_per_io", per(c.sched_picks), "count/io");
    m.put("ctrl.self_ns_per_io", l.ctrl_ns, "ns");
    m.put("ftl.self_ns_per_io", l.ftl_ns, "ns");
    m.put(
        "ftl.gc_cycles_per_kio",
        per(c.gc_cycles) * 1000.0,
        "count/kio",
    );
    m.put(
        "ftl.write_amp",
        ratio(c.flash_programs, c.host_writes),
        "ratio",
    );
    m.put(
        "ftl.cache_hit_ratio",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        "ratio",
    );
    m.put("ftl.dirty_evicts_per_io", per(c.dirty_evicts), "count/io");
    m.put("trace.metrics_overhead_pct", l.metrics_overhead_pct, "%");
    m.put("trace.tracer_overhead_pct", tracer_overhead, "%");
    m
}
