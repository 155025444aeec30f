//! The three workloads: device construction, preconditioning and one timed
//! repetition each. See NOTES.md for why each workload was chosen.

use std::panic::{catch_unwind, AssertUnwindSafe};

use babol::runtime::RuntimeConfig;
use babol::system::System;
use babol_bench::{build_soft_controller, build_system, ControllerKind};
use babol_channel::Channel;
use babol_flash::array::ContentMode;
use babol_flash::lun::LunConfig;
use babol_flash::{Lun, PackageProfile};
use babol_ftl::{
    FioReport, FioWorkload, IoPattern, MultiControllerKind, MultiFioReport, MultiSsd,
    MultiSsdConfig, Ssd, SsdConfig,
};
use babol_sim::rng::SplitMix64;
use babol_sim::{CostModel, Cpu, Freq, SimDuration, SimTime};
use babol_trace::{Component, Counter, Tracer};
use babol_ufsm::EmitConfig;

use crate::host::Stopwatch;
use crate::probe::{latencies_from_log, JobSpans, Probe};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig12RandRead,
    SteadyRandWrite,
    Multi16Write,
    Multi16Mixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig12RandRead,
        Workload::SteadyRandWrite,
        Workload::Multi16Write,
        Workload::Multi16Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig12RandRead => "fig12_randread",
            Workload::SteadyRandWrite => "steady_randwrite",
            Workload::Multi16Write => "multi16_write",
            Workload::Multi16Mixed => "multi16_mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_multi(self) -> bool {
        matches!(self, Workload::Multi16Write | Workload::Multi16Mixed)
    }

    /// Closed-loop queue depth of every timed job.
    pub fn queue_depth(self) -> usize {
        match self {
            Workload::Fig12RandRead => 32,
            Workload::SteadyRandWrite => 4,
            Workload::Multi16Write | Workload::Multi16Mixed => MULTI_QD,
        }
    }

    /// The jobs of one repetition, in order.
    fn jobs(self) -> &'static [IoPattern] {
        match self {
            Workload::Fig12RandRead => &[IoPattern::RandomRead],
            Workload::SteadyRandWrite | Workload::Multi16Write => &[IoPattern::RandomWrite],
            Workload::Multi16Mixed => &[IoPattern::RandomWrite, IoPattern::RandomRead],
        }
    }

    /// Host I/Os per job.
    /// `fig12_randread` and `multi16_write` are sized so that one
    /// repetition takes 20–40 ms of host time: long against a scheduler
    /// tick, short enough that a second of quiet machine holds a few dozen
    /// repetitions (host time is a low percentile of them; see `typical`).
    fn job_ios(self) -> u64 {
        match self {
            Workload::Fig12RandRead => 2048,
            Workload::SteadyRandWrite | Workload::Multi16Write => 1024,
            Workload::Multi16Mixed => 4096,
        }
    }

    /// Reference repetitions per run (see `ref_count` in main.rs): enough
    /// simulated I/Os that the `sim_*` tails settle across seeds.
    pub fn reference_reps(self) -> usize {
        match self {
            Workload::Fig12RandRead => 24,
            Workload::SteadyRandWrite => 48,
            Workload::Multi16Write => 192,
            Workload::Multi16Mixed => 24,
        }
    }

    /// Host I/Os per repetition.
    pub fn rep_ios(self) -> u64 {
        self.jobs().len() as u64 * self.job_ios()
    }
}

const MULTI_QD: usize = 64;

/// How a device is instrumented.
#[derive(Debug, Clone, Copy)]
pub struct Build {
    /// Enable the tracer (counters only the tracer exposes) and the host
    /// spans of the controller adapter.
    pub traced: bool,
    /// Shard worker threads (multi-channel workloads).
    pub threads: usize,
    /// Streaming-telemetry hub on (multi-channel workloads).
    pub hub: bool,
}

impl Build {
    pub const TIMED: Build = Build {
        traced: false,
        threads: 2,
        hub: true,
    };
}

/// Declares [`Counts`] and its field-wise arithmetic from one field list.
macro_rules! counts {
    ($($field:ident),* $(,)?) => {
        /// Work counts, summed over a repetition. Everything here but
        /// `events`, `sched_picks` and `instrs` comes from public stats, so
        /// it is recorded untraced too; those three exist only in the
        /// tracer and read 0 untraced.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counts {
            $(pub $field: u64,)*
        }

        impl Counts {
            fn zip(self, b: Counts, op: impl Fn(u64, u64) -> u64) -> Counts {
                Counts { $($field: op(self.$field, b.$field),)* }
            }
        }
    };
}

counts!(
    flash_reads,
    flash_programs,
    flash_erases,
    status_polls,
    segments,
    phases,
    bus_busy_ps,
    pool_acquires,
    pool_heap_allocs,
    txns,
    cpu_cycles,
    gc_cycles,
    energy_pj,
    cache_hits,
    cache_misses,
    dirty_evicts,
    host_writes,
    rounds,
    events,
    sched_picks,
    instrs,
);

impl Counts {
    pub fn minus(self, b: Counts) -> Counts {
        self.zip(b, |x, y| x - y)
    }

    pub fn add(&mut self, b: &Counts) {
        *self = self.zip(*b, |x, y| x + y);
    }

    /// The counts that the tracer alone exposes, zeroed: what an untraced
    /// run of the same simulation must reproduce exactly.
    pub fn public(self) -> Counts {
        Counts {
            events: 0,
            sched_picks: 0,
            instrs: 0,
            ..self
        }
    }
}

/// The simulated outputs of one repetition. Deterministic for a given seed
/// and repetition index: the correctness check compares these between
/// runs, and the `sim_*` metrics are computed from them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sim {
    pub ios: u64,
    /// Simulated time the repetition's jobs took, ps.
    pub elapsed_ps: u64,
    /// Per-I/O latency from the due time, ps, in host-id order per job.
    pub latencies_ps: Vec<u64>,
    /// Completion order digest: FNV-1a over `(time, shard, id)` in harvest
    /// order.
    pub log_digest: u64,
    pub counts: Counts,
}

/// One timed repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    pub attempted: u64,
    pub failed: u64,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub sim: Sim,
    /// Host-time spans of the repetition's jobs (traced single-channel).
    pub spans: Vec<JobSpans>,
    /// What the device's own reports claimed, for the defect notes: the
    /// `FioReport` p99 and elapsed time (ps) and `MultiFioReport::events`.
    pub reported_p99_ps: u64,
    pub reported_elapsed_ps: u64,
    pub reported_events: u64,
}

/// Deterministic per-purpose seed derivation.
pub fn derive_seed(seed: u64, tag: u64, index: u64) -> u64 {
    let mut r =
        SplitMix64::new(seed ^ tag.rotate_left(32) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next_u64()
}

const TAG_PRECOND: u64 = 1;
const TAG_WARMUP: u64 = 2;
const TAG_WRITE: u64 = 3;
const TAG_READ: u64 = 4;

/// FNV-1a, folded one 64-bit word at a time.
fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01B3)
}
const FNV_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// `test_tiny` timing and 512 B pages with 64 blocks per plane: 128 blocks
/// of 8 pages per LUN.
pub fn tiny64() -> PackageProfile {
    let mut p = PackageProfile::test_tiny();
    p.geometry.blocks_per_plane = 64;
    p
}

/// An FTL slice over `luns` LUNs of [`tiny64`] exporting 3/4 of the raw
/// pages (25% of the flash held back as over-provisioning).
pub fn tiny64_ssd(luns: u32) -> SsdConfig {
    let mut cfg = SsdConfig::tiny(luns);
    cfg.geometry = tiny64().geometry;
    cfg.logical_pages = cfg.geometry.pages_per_lun() * luns as u64 * 3 / 4;
    cfg
}

/// Preconditioning record: GC cycles per 1k host writes, per chunk of
/// random overwrites after the sequential fill.
#[derive(Debug, Clone, Default)]
pub struct Precond {
    pub fill_writes: u64,
    pub gc_per_kio: Vec<f64>,
}

impl Precond {
    /// True once GC runs and the last three chunks sit within 5% of their
    /// mean.
    fn level(&self) -> bool {
        let n = self.gc_per_kio.len();
        if n < 3 {
            return false;
        }
        let last = &self.gc_per_kio[n - 3..];
        let mean = last.iter().sum::<f64>() / 3.0;
        mean > 0.0 && last.iter().all(|g| (g - mean).abs() <= 0.05 * mean)
    }

    pub fn describe(&self) -> String {
        if self.gc_per_kio.is_empty() {
            return "preloaded, no writes".into();
        }
        format!(
            "sequential fill of {} pages, then {} chunks of random overwrites; \
             GC cycles per 1k writes by chunk: {:?}",
            self.fill_writes,
            self.gc_per_kio.len(),
            self.gc_per_kio
                .iter()
                .map(|g| (g * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        )
    }
}

/// Random overwrites per preconditioning chunk, and the most chunks run
/// before giving up on a level.
const PRECOND_CHUNK: u64 = 1000;
const PRECOND_MAX_CHUNKS: usize = 40;

/// A single-channel device: system, FTL and the controller behind the
/// benchmark's adapter.
pub struct Single {
    sys: System,
    pub probe: Probe,
    ssd: Ssd,
}

impl Single {
    fn build(w: Workload, traced: bool) -> Single {
        let (sys, ctrl, ssd) = match w {
            Workload::Fig12RandRead => {
                let profile = PackageProfile::hynix();
                let sys = build_system(&profile, 8, 200, 1000, ControllerKind::Coro);
                let ctrl = build_soft_controller(
                    ControllerKind::Coro,
                    &profile,
                    RuntimeConfig::coroutine(),
                );
                let mut ssd = Ssd::new(SsdConfig::fig12(8));
                ssd.preload();
                (sys, ctrl, ssd)
            }
            Workload::SteadyRandWrite => {
                // `build_system` preloads the arrays, which then refuse
                // programs; a write workload starts from erased flash.
                let profile = tiny64();
                let luns = (0..4)
                    .map(|i| {
                        Lun::new(LunConfig {
                            profile: profile.clone(),
                            content: ContentMode::Pristine,
                            seed: i + 1,
                            inject_errors: false,
                            require_init: false,
                        })
                    })
                    .collect();
                let sys = System::new(
                    Channel::new(luns),
                    EmitConfig::nv_ddr2(200),
                    Cpu::new(Freq::from_mhz(1000), CostModel::rtos()),
                );
                let ctrl =
                    build_soft_controller(ControllerKind::Rtos, &profile, RuntimeConfig::rtos());
                (sys, ctrl, Ssd::new(tiny64_ssd(4)))
            }
            _ => unreachable!("{} is not single-channel", w.name()),
        };
        let mut dev = Single {
            sys,
            probe: Probe::new(ctrl, traced),
            ssd,
        };
        if traced {
            // Counters are what the tracer is on for; a one-slot ring keeps
            // the event timeline from costing memory.
            dev.sys.trace = Tracer::with_capacity(1);
        }
        dev
    }

    pub fn pool_high_water(&self) -> u64 {
        self.sys.pool().stats().high_water
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        let ch = &self.sys.channel;
        for l in 0..ch.lun_count() {
            let s = ch.lun(l).stats();
            c.flash_reads += s.reads;
            c.flash_programs += s.programs;
            c.flash_erases += s.erases;
            c.status_polls += s.status_polls;
        }
        let cs = ch.stats();
        c.segments = cs.segments;
        c.phases = cs.phases;
        c.bus_busy_ps = cs.busy.as_picos();
        let ps = self.sys.pool().stats();
        c.pool_acquires = ps.acquires;
        c.pool_heap_allocs = ps.heap_allocs();
        c.txns = self.probe.inner.runtime().txns_issued;
        c.cpu_cycles = self.sys.cpu.busy_cycles();
        c.gc_cycles = self.ssd.gc_cycles;
        c.energy_pj = self.ssd.energy().total_pj();
        c.cache_hits = self.ssd.cache().hits();
        c.cache_misses = self.ssd.cache().misses();
        c.dirty_evicts = self.ssd.cache().dirty_evicts();
        let t = &self.sys.trace;
        c.events = t.counter(Component::Sim, Counter::EventsPopped);
        c.sched_picks = t.counter(Component::Sched, Counter::SchedPicks);
        c.instrs = t.counter(Component::Ufsm, Counter::InstrsDispatched);
        c
    }

    fn job(&mut self, id: u64, pattern: IoPattern, ios: u64, qd: usize, seed: u64) -> JobOut {
        let wl = FioWorkload {
            pattern,
            total_ios: ios,
            queue_depth: qd,
            seed,
        };
        let start = self.sys.now;
        let errors = self.probe.inner.errors.len();
        self.probe.begin_job(id, ios);
        let report = self.ssd.run(&mut self.sys, &mut self.probe, wl);
        let (spans, lat) = self.probe.end_job(start, qd);
        JobOut {
            errors: (self.probe.inner.errors.len() - errors) as u64,
            elapsed: self.sys.now.saturating_since(start),
            lat,
            spans,
            report,
        }
    }
}

struct JobOut {
    errors: u64,
    elapsed: SimDuration,
    lat: Vec<SimDuration>,
    spans: JobSpans,
    report: FioReport,
}

/// A multi-channel device.
pub struct Multi {
    pub ssd: MultiSsd,
    /// Latest completion time seen: when the closed loop's last I/O
    /// finished, and so when the next job starts.
    last_end: SimTime,
}

impl Multi {
    pub fn config(b: Build) -> MultiSsdConfig {
        let profile = tiny64();
        let mut shard = tiny64_ssd(2);
        shard.cache_pages = (shard.logical_pages / 4) as usize;
        MultiSsdConfig {
            channels: 16,
            threads: b.threads,
            shard,
            watchdog: Some(Ssd::envelope_watchdog_budget(&profile)),
            profile,
            kind: MultiControllerKind::Coro,
            preload: false,
            trace_capacity: b.traced.then_some(1),
            metrics_window: b.hub.then(|| SimDuration::from_micros(100)),
            ..MultiSsdConfig::tiny(16, b.threads)
        }
    }

    /// Runs one job; returns its report and its simulated start, which is
    /// the previous job's last completion. `MultiFioReport::elapsed` runs
    /// from the coordinator's barrier instead, which lags the shards'
    /// clocks by more with every job (NOTES.md, defect 4).
    fn job(&mut self, pattern: IoPattern, ios: u64, seed: u64) -> (MultiFioReport, SimTime) {
        let start = self.last_end;
        let r = self.ssd.run(&FioWorkload {
            pattern,
            total_ios: ios,
            queue_depth: MULTI_QD,
            seed,
        });
        let end = r.completion_log.iter().map(|&(at, _, _)| at).max();
        self.last_end = self.last_end.max(end.unwrap_or(start));
        (r, start)
    }

    /// Sums every shard's tracer counters and pool stats, and returns the
    /// highest pool high-water mark of any shard. Consumes the device:
    /// shards hand their state back only when the pool shuts down.
    pub fn finish_counts(self) -> (Counts, u64) {
        let e = babol_ftl::EnergyModel::nand();
        let mut c = Counts::default();
        let mut high_water = 0;
        for d in self.ssd.finish() {
            let t = &d.tracer;
            let get = |comp, ctr| t.counter(comp, ctr);
            c.events += get(Component::Sim, Counter::EventsPopped);
            c.sched_picks += get(Component::Sched, Counter::SchedPicks);
            c.instrs += get(Component::Ufsm, Counter::InstrsDispatched);
            c.txns += get(Component::Sched, Counter::TxnsIssued);
            c.segments += get(Component::Channel, Counter::SegmentsTransmitted);
            c.phases += get(Component::Channel, Counter::PhasesTransmitted);
            // The shard's LUN stats stay private; the FTL charges a fixed
            // energy per admitted array operation, so the per-class energy
            // counters give the operation counts exactly.
            c.flash_reads += get(Component::Ftl, Counter::EnergyReadPj) / e.read_pj;
            c.flash_programs += get(Component::Ftl, Counter::EnergyProgramPj) / e.program_pj;
            c.flash_erases += get(Component::Ftl, Counter::EnergyErasePj) / e.erase_pj;
            c.pool_acquires += d.pool.acquires;
            c.pool_heap_allocs += d.pool.heap_allocs();
            high_water = high_water.max(d.pool.high_water);
        }
        (c, high_water)
    }
}

pub enum Device {
    Single(Box<Single>),
    Multi(Box<Multi>),
}

/// Message of a caught panic.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Builds the workload's device and brings it to its measured state:
/// preloaded (`fig12_randread`) or preconditioned to a level GC rate, then
/// one warm-up repetition so that pools and caches are filled before
/// timing starts. The preconditioning and warm-up streams derive from
/// `seed`. A panic during set-up is caught and returned.
pub fn setup(w: Workload, seed: u64, b: Build) -> Result<(Device, Precond), String> {
    catch_unwind(AssertUnwindSafe(|| build_and_precondition(w, seed, b))).map_err(panic_text)
}

fn build_and_precondition(w: Workload, seed: u64, b: Build) -> (Device, Precond) {
    let mut pre = Precond::default();
    let qd = w.queue_depth();
    let mut dev = if w.is_multi() {
        let mut m = Multi {
            ssd: MultiSsd::new(Multi::config(b)),
            last_end: SimTime::ZERO,
        };
        let logical = m.ssd.logical_pages();
        m.job(IoPattern::SequentialWrite, logical, 0);
        pre.fill_writes = logical;
        while !pre.level() && pre.gc_per_kio.len() < PRECOND_MAX_CHUNKS {
            let s = derive_seed(seed, TAG_PRECOND, pre.gc_per_kio.len() as u64);
            let (r, _) = m.job(IoPattern::RandomWrite, PRECOND_CHUNK, s);
            pre.gc_per_kio
                .push(r.fio.gc_cycles as f64 * 1000.0 / PRECOND_CHUNK as f64);
        }
        Device::Multi(Box::new(m))
    } else {
        let mut s = Single::build(w, b.traced);
        if w == Workload::SteadyRandWrite {
            let logical = s.ssd.map().logical_pages();
            s.job(u64::MAX, IoPattern::SequentialWrite, logical, qd, 0);
            pre.fill_writes = logical;
            while !pre.level() && pre.gc_per_kio.len() < PRECOND_MAX_CHUNKS {
                let gc = s.ssd.gc_cycles;
                let sd = derive_seed(seed, TAG_PRECOND, pre.gc_per_kio.len() as u64);
                s.job(u64::MAX, IoPattern::RandomWrite, PRECOND_CHUNK, qd, sd);
                pre.gc_per_kio
                    .push((s.ssd.gc_cycles - gc) as f64 * 1000.0 / PRECOND_CHUNK as f64);
            }
        }
        Device::Single(Box::new(s))
    };
    // Warm-up repetition: not timed, not part of the simulated outputs.
    dev.rep(w, u64::MAX, derive_seed(seed, TAG_WARMUP, 0));
    (dev, pre)
}

impl Device {
    /// Runs repetition `index` of workload `w`. Each job gets its own seed
    /// derived from `seed` and `index`.
    fn rep(&mut self, w: Workload, index: u64, seed: u64) -> Rep {
        let ios = w.job_ios();
        let qd = w.queue_depth();
        let job_seed = |p: IoPattern| {
            derive_seed(seed, if p.is_write() { TAG_WRITE } else { TAG_READ }, index)
        };
        let mut rep = Rep {
            attempted: w.rep_ios(),
            ..Rep::default()
        };
        let sim = &mut rep.sim;
        match self {
            Device::Single(s) => {
                let pattern = w.jobs()[0];
                let before = s.counts();
                let sw = Stopwatch::start();
                let j = s.job(index, pattern, ios, qd, job_seed(pattern));
                (rep.wall_ns, rep.cpu_ns) = sw.read();
                sim.counts = s.counts().minus(before);
                if pattern.is_write() {
                    sim.counts.host_writes = j.report.ios;
                }
                sim.ios = j.report.ios;
                sim.elapsed_ps = j.elapsed.as_picos();
                sim.latencies_ps = j.lat.iter().map(|l| l.as_picos()).collect();
                rep.failed = j.errors;
                rep.spans = vec![j.spans];
                rep.reported_p99_ps = j.report.p99_latency.as_picos();
                rep.reported_elapsed_ps = j.report.elapsed.as_picos();
            }
            Device::Multi(m) => {
                let sw = Stopwatch::start();
                let reports: Vec<(MultiFioReport, SimTime)> = w
                    .jobs()
                    .iter()
                    .map(|&p| m.job(p, ios, job_seed(p)))
                    .collect();
                (rep.wall_ns, rep.cpu_ns) = sw.read();
                sim.log_digest = FNV_INIT;
                for ((r, start), p) in reports.iter().zip(w.jobs()) {
                    let start = *start;
                    let log: Vec<(SimTime, u64)> = r
                        .completion_log
                        .iter()
                        .map(|&(at, _, id)| (at, id))
                        .collect();
                    sim.latencies_ps.extend(
                        latencies_from_log(&log, start, qd)
                            .iter()
                            .map(|l| l.as_picos()),
                    );
                    for &(at, shard, id) in &r.completion_log {
                        sim.log_digest =
                            fnv(fnv(fnv(sim.log_digest, at.as_picos()), shard as u64), id);
                    }
                    sim.ios += r.fio.ios;
                    let c = &mut sim.counts;
                    c.gc_cycles += r.fio.gc_cycles;
                    c.energy_pj += r.fio.energy_pj;
                    c.cache_hits += r.fio.cache_hits;
                    c.cache_misses += r.fio.cache_misses;
                    c.dirty_evicts += r.fio.cache_dirty_evicts;
                    c.rounds += r.rounds;
                    if p.is_write() {
                        c.host_writes += r.fio.ios;
                    }
                    rep.reported_p99_ps = rep.reported_p99_ps.max(r.fio.p99_latency.as_picos());
                    rep.reported_elapsed_ps += r.fio.elapsed.as_picos();
                    rep.reported_events += r.events;
                }
                let start = reports.first().map_or(m.last_end, |r| r.1);
                sim.elapsed_ps = m.last_end.saturating_since(start).as_picos();
            }
        }
        rep.failed += rep.attempted - rep.sim.ios;
        rep
    }
}

/// A device that survives its repetitions: a repetition (or a rebuild)
/// that panics is caught and counted as failed in full, and the device is
/// rebuilt for the next repetition (the rebuild is not timed).
pub struct Runner {
    w: Workload,
    seed: u64,
    build: Build,
    pub dev: Option<Device>,
    next: u64,
    pub panics: Vec<String>,
}

impl Runner {
    pub fn new(w: Workload, seed: u64, build: Build, dev: Option<Device>) -> Self {
        Runner {
            w,
            seed,
            build,
            dev,
            next: 0,
            panics: Vec::new(),
        }
    }

    pub fn rep(&mut self) -> Rep {
        let index = self.next;
        self.next += 1;
        let (w, seed) = (self.w, self.seed);
        let dev = match self.dev.take() {
            Some(d) => Ok(d),
            None => setup(w, seed, self.build).map(|(d, _)| d),
        };
        let outcome = dev.and_then(|mut dev| {
            catch_unwind(AssertUnwindSafe(|| {
                let rep = dev.rep(w, index, seed);
                (dev, rep)
            }))
            .map_err(panic_text)
        });
        match outcome {
            Ok((dev, rep)) => {
                self.dev = Some(dev);
                rep
            }
            Err(msg) => {
                self.panics.push(format!("repetition {index}: {msg}"));
                Rep {
                    attempted: w.rep_ios(),
                    failed: w.rep_ios(),
                    ..Rep::default()
                }
            }
        }
    }
}
