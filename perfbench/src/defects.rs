//! Reproductions of the defects recorded in NOTES.md
//! (`perfbench --repro <1|2|3|4>`). Each prints what the device reports next
//! to what the benchmark measures from outside. None is fixed here.

use std::panic::{catch_unwind, AssertUnwindSafe};

use babol_ftl::{FioWorkload, IoPattern, MultiSsd, MultiSsdConfig};
use babol_trace::{Component, Counter};

use crate::device::{setup, Build, Device, Multi, Runner, Workload};
use crate::report::percentile;

fn job(pattern: IoPattern, total_ios: u64, seed: u64) -> FioWorkload {
    FioWorkload {
        pattern,
        total_ios,
        queue_depth: 64,
        seed,
    }
}

pub fn repro(which: &str) -> Result<(), String> {
    match which {
        "1" => defect1(),
        "2" => defect2(),
        "3" => defect3(),
        "4" => defect4(),
        _ => return Err(format!("no defect {which}; there are 1 to 4")),
    }
    Ok(())
}

/// `Ssd::run` starts an I/O's latency after `prepare_write`'s inline GC.
fn defect1() {
    let w = Workload::SteadyRandWrite;
    let (dev, _) = setup(w, 0, Build::TIMED).expect("steady_randwrite set-up");
    let mut r = Runner::new(w, 0, Build::TIMED, Some(dev));
    let reps: Vec<_> = (0..8).map(|_| r.rep()).collect();
    let ios: u64 = reps.iter().map(|r| r.sim.ios).sum();
    let elapsed_s = reps.iter().map(|r| r.sim.elapsed_ps).sum::<u64>() as f64 * 1e-12;
    let iops = ios as f64 / elapsed_s;
    let mut lat: Vec<u64> = reps
        .iter()
        .flat_map(|r| r.sim.latencies_ps.clone())
        .collect();
    lat.sort_unstable();
    let reported = reps.iter().map(|r| r.reported_p99_ps).max().unwrap_or(0);
    println!(
        "defect 1: steady_randwrite seed 0, {ios} random writes at QD {}",
        w.queue_depth()
    );
    println!(
        "  simulated IOPS {iops:.0}: a queue slot turns over every {:.1} us",
        w.queue_depth() as f64 / iops * 1e6
    );
    println!(
        "  FioReport p99 (largest of the jobs) {:.1} us",
        reported as f64 / 1e6
    );
    println!(
        "  p99 from each I/O's due time         {:.1} us",
        percentile(&lat, 0.99) as f64 / 1e6
    );
}

/// `MultiFioReport::events` misses events popped during inline GC and
/// cache flushes.
fn defect2() {
    let mut cfg: MultiSsdConfig = Multi::config(Build {
        traced: true,
        ..Build::TIMED
    });
    cfg.metrics_window = None;
    let mut ssd = MultiSsd::new(cfg);
    // 1024 writes per shard, well past its 384-page cache.
    let r = ssd.run(&job(IoPattern::RandomWrite, 16384, 1));
    let popped: u64 = ssd
        .finish()
        .iter()
        .map(|d| d.tracer.counter(Component::Sim, Counter::EventsPopped))
        .sum();
    println!("defect 2: one cached random-write job of 16384 I/Os on a fresh multi16 device");
    println!("  MultiFioReport::events  {}", r.events);
    println!("  tracer EventsPopped     {popped}");
}

/// The V074 stall watchdog fires on a random-read job after writes fill a
/// cached `MultiSsd`.
fn defect3() {
    std::panic::set_hook(Box::new(|_| {}));
    // The smallest recipe: `MultiSsdConfig::tiny` (4 blocks per plane).
    let mut cfg = MultiSsdConfig::tiny(16, 2);
    cfg.preload = false;
    cfg.shard.cache_pages = (cfg.shard.logical_pages / 4) as usize;
    let mut ssd = MultiSsd::new(cfg);
    let logical = ssd.logical_pages();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        ssd.run(&job(IoPattern::SequentialWrite, logical, 0));
        ssd.run(&job(IoPattern::RandomWrite, logical, 1));
        ssd.run(&job(IoPattern::RandomRead, 1024, 2));
    }));
    println!("defect 3a: tiny(16 channels) with a 1/4 cache, fill + one overwrite + random read:");
    match outcome {
        Ok(()) => println!("  did not reproduce"),
        Err(p) => println!("  panicked: {}", first_line(&p)),
    }
    // The benchmark's own geometry: multi16_mixed.
    let w = Workload::Multi16Mixed;
    println!("defect 3b: multi16_mixed seed 0 (64 blocks per plane), repetitions until one fails:");
    let mut runner = Runner::new(w, 0, Build::TIMED, None::<Device>);
    for _ in 0..20 {
        runner.rep();
        if let Some(p) = runner.panics.first() {
            println!("  {}", p.lines().next().unwrap_or(""));
            return;
        }
    }
    println!("  did not reproduce in 20 repetitions");
}

/// A multi-channel job's simulated time grows with the jobs run before it.
fn defect4() {
    let w = Workload::Multi16Write;
    let (dev, _) = setup(w, 0, Build::TIMED).expect("multi16_write set-up");
    let mut runner = Runner::new(w, 0, Build::TIMED, Some(dev));
    println!(
        "defect 4: multi16_write seed 0, simulated IOPS of successive {}-write jobs:",
        w.rep_ios()
    );
    for i in 0..60 {
        let r = runner.rep();
        if i % 10 == 0 {
            let iops = |ps: u64| r.sim.ios as f64 / (ps as f64 * 1e-12);
            println!(
                "  job {i:2}: {:6.0} IOPS by MultiFioReport::elapsed, {:6.0} between last completions; {} GC cycles",
                iops(r.reported_elapsed_ps),
                iops(r.sim.elapsed_ps),
                r.sim.counts.gc_cycles
            );
        }
    }
    if let Some(Device::Multi(m)) = runner.dev.take() {
        let clocks: Vec<f64> = m
            .ssd
            .finish()
            .iter()
            .map(|d| d.now.as_picos() as f64 * 1e-9)
            .collect();
        let (lo, hi) = clocks
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        println!("  shard clocks after job 59 span {lo:.0} to {hi:.0} ms of simulated time");
    }
}

fn first_line(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .map(|s| s.lines().next().unwrap_or("").to_string())
        .unwrap_or_else(|| "non-string panic".into())
}
