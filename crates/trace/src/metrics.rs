//! Streaming sim-time telemetry: windowed metrics frames.
//!
//! A [`MetricsHub`] slices simulated time into fixed windows (`[k·W,
//! (k+1)·W)` picoseconds from time zero) and accumulates one
//! [`MetricsFrame`]'s worth of values per window. It is fed two ways,
//! both cheap:
//!
//! * **Latency observations** — each completed host op is routed to the
//!   window containing its *completion* timestamp and recorded into that
//!   window's latency histogram (count, sum, maximum and log2 buckets).
//!   Because routing is by timestamp, merging the per-window histograms
//!   reproduces the whole-run histogram exactly (bucket-for-bucket — the
//!   property test in `tests/properties.rs` checks this), and ops
//!   harvested slightly after the simulator crossed a boundary still land
//!   in the right window.
//! * **Delta snapshots** — the driver loop periodically hands the hub a
//!   [`MetricsSnapshot`] of counters the FTL already maintains (cache
//!   hits, GC cycles, energy, wear). The hub attributes the delta since
//!   the previous snapshot to the window containing `now` and stamps the
//!   snapshot's gauges (queue depth, dirty pages, free blocks) as the
//!   window's closing values. No new hot-path events exist: sampling cost
//!   is a dozen integer subtractions per driver-loop iteration, and the
//!   disabled hub costs one predictable branch.
//!
//! **Storage.** The hub keeps no frame structs. Each frame field —
//! counters, gauges, `lat_count`, `lat_sum_ps`, `lat_max_ps` and one lane
//! per histogram bucket — is a column lane indexed by window (see
//! `lane.rs`): empty while every value it has seen is zero, otherwise
//! stored at the narrowest integer width that fits, widened in place the
//! first time a value does not. A window's index is its position in the
//! lanes. Lanes are random-access, so completions that land in an earlier
//! window stay exact. [`MetricsHub::frame`] and [`MetricsHub::frames`]
//! materialise [`MetricsFrame`]s on demand; a [`MetricsSeries`] builds
//! its `Vec`s once, at end of run.
//!
//! Frames from a run (or from every shard of a [`MultiSsd`]-style run)
//! assemble into a [`MetricsSeries`], which exports as a stable
//! `babol-metrics-v1` line-JSON sidecar, parses back offline, and renders
//! as an ASCII sparkline dashboard with SLO verdicts
//! ([`render_metrics_dashboard`]).
//!
//! `MultiSsd` is defined in `babol-ftl`; here the multi-shard shape is
//! just "one hub per shard plus a device-level hub for host latencies",
//! combined by [`MetricsSeries::from_shards`].

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use babol_sim::{SimDuration, SimTime};

use crate::hist::{Histogram, BUCKETS};
use crate::lane::Lane;
use crate::parse::fields;
use crate::slo::{SloSpec, SloVerdict};
use crate::ParseError;

/// Schema tag on the first line of every `metrics.jsonl` export.
pub const METRICS_SCHEMA: &str = "babol-metrics-v1";

/// Shard tag used for device-level (cross-shard) frames in the export.
const DEVICE_SHARD: i64 = -1;

/// Cumulative controller totals handed to [`MetricsHub::sample`]. The
/// first group are monotonic counters (the hub attributes successive
/// differences to windows); the rest are instantaneous gauges (the hub
/// stamps the last value seen inside each window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Write-cache hits, cumulative.
    pub cache_hits: u64,
    /// Write-cache misses, cumulative.
    pub cache_misses: u64,
    /// Dirty cache evictions flushed to flash, cumulative.
    pub cache_dirty_evicts: u64,
    /// Foreground GC cycles, cumulative.
    pub gc_cycles: u64,
    /// Energy spent, cumulative picojoules.
    pub energy_pj: u64,
    /// Cold blocks migrated by the wear leveler, cumulative.
    pub wear_migrations: u64,
    /// Blocks retired to the bad-block map, cumulative.
    pub blocks_retired: u64,
    /// Host ops in flight right now (gauge).
    pub queue_depth: u32,
    /// Dirty pages resident in the write cache (gauge).
    pub cache_dirty: u32,
    /// Total pages resident in the write cache (gauge).
    pub cache_len: u32,
    /// Free blocks across all LUNs — the GC debt gauge.
    pub free_blocks: u32,
    /// Worst per-LUN erase-count spread (gauge).
    pub wear_spread: u32,
}

/// One sim-time window's worth of telemetry.
#[derive(Debug, Clone, Default)]
pub struct MetricsFrame {
    /// Window index: this frame covers `[index·W, (index+1)·W)`.
    pub index: u64,
    /// Host ops completed in the window.
    pub ops: u64,
    /// Write-cache hits in the window.
    pub cache_hits: u64,
    /// Write-cache misses in the window.
    pub cache_misses: u64,
    /// Dirty cache evictions in the window.
    pub cache_dirty_evicts: u64,
    /// GC cycles run in the window.
    pub gc_cycles: u64,
    /// Energy spent in the window, picojoules.
    pub energy_pj: u64,
    /// Wear-leveling migrations in the window.
    pub wear_migrations: u64,
    /// Blocks retired in the window.
    pub blocks_retired: u64,
    /// Queue depth at the last sample in the window (gauge).
    pub queue_depth: u32,
    /// Dirty cache pages at the last sample in the window (gauge).
    pub cache_dirty: u32,
    /// Cache pages resident at the last sample in the window (gauge).
    pub cache_len: u32,
    /// Free blocks at the last sample in the window (gauge).
    pub free_blocks: u32,
    /// Worst wear spread at the last sample in the window (gauge).
    pub wear_spread: u32,
    /// Latencies of ops whose completion fell in the window; `None` while
    /// the window has recorded none.
    lat: Option<Box<Histogram>>,
}

/// What [`MetricsFrame::lat`] returns for a frame that recorded nothing.
static NO_LATENCIES: Histogram = Histogram::new();

impl MetricsFrame {
    /// Latencies of ops whose completion fell in the window (empty when
    /// none did).
    pub fn lat(&self) -> &Histogram {
        self.lat.as_deref().unwrap_or(&NO_LATENCIES)
    }

    /// Records one latency into the frame's histogram, allocating it on
    /// first use. Does not count an op: `ops` is the caller's to bump.
    pub fn record_latency(&mut self, latency: SimDuration) {
        self.lat.get_or_insert_with(Box::default).record(latency);
    }

    /// Start of the window this frame covers.
    pub fn start(&self, window: SimDuration) -> SimTime {
        SimTime::from_picos(self.index * window.as_picos())
    }

    /// Exclusive end of the window this frame covers.
    pub fn end(&self, window: SimDuration) -> SimTime {
        SimTime::from_picos((self.index + 1) * window.as_picos())
    }

    /// Completed ops per second, from the window's op count.
    pub fn iops(&self, window: SimDuration) -> u64 {
        (u128::from(self.ops) * 1_000_000_000_000u128 / u128::from(window.as_picos())) as u64
    }

    /// Cache hit fraction in basis points (10000 = all hits); 0 when the
    /// window saw no cache traffic.
    pub fn cache_hit_bp(&self) -> u64 {
        let total = self.cache_hits + self.cache_misses;
        (self.cache_hits * 10_000).checked_div(total).unwrap_or(0)
    }
}

/// A frame field stored as one [`Lane`] in [`MetricsHub`]; the
/// discriminant is the lane's index.
#[derive(Clone, Copy)]
enum Col {
    Ops,
    CacheHits,
    CacheMisses,
    CacheDirtyEvicts,
    GcCycles,
    EnergyPj,
    WearMigrations,
    BlocksRetired,
    QueueDepth,
    CacheDirty,
    CacheLen,
    FreeBlocks,
    WearSpread,
    LatCount,
    LatSumPs,
    LatMaxPs,
}

/// Number of [`Col`] lanes.
const COLS: usize = Col::LatMaxPs as usize + 1;

/// Windowed telemetry collector. Starts disabled (every record method is
/// an early return on one `bool`); [`MetricsHub::new`] turns it on.
#[derive(Debug, Clone)]
pub struct MetricsHub {
    enabled: bool,
    window_ps: u64,
    shard: u32,
    primed: bool,
    base: MetricsSnapshot,
    end_ps: u64,
    /// Windows covered: one past the highest window index seen.
    len: usize,
    /// One lane per frame field, indexed by [`Col`].
    cols: [Lane; COLS],
    /// One lane per latency bucket; empty until the first latency.
    lat_buckets: Vec<Lane>,
}

impl Default for MetricsHub {
    fn default() -> Self {
        MetricsHub::disabled()
    }
}

impl MetricsHub {
    /// A disabled hub: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        MetricsHub {
            enabled: false,
            window_ps: u64::MAX,
            shard: 0,
            primed: false,
            base: MetricsSnapshot::default(),
            end_ps: 0,
            len: 0,
            cols: Default::default(),
            lat_buckets: Vec::new(),
        }
    }

    /// An enabled hub with the given window. Windows shorter than 1 ns are
    /// clamped up: storage is dense in window index, so a picosecond
    /// window over a millisecond run would cover a billion windows.
    pub fn new(window: SimDuration) -> Self {
        let mut hub = MetricsHub::disabled();
        hub.enabled = true;
        hub.window_ps = window.as_picos().max(1_000);
        hub
    }

    /// Whether this hub is collecting.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The window length.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_picos(self.window_ps)
    }

    /// Tags the hub with the shard (channel) it observes.
    pub fn set_shard(&mut self, shard: u32) {
        self.shard = shard;
    }

    /// The shard (channel) this hub observes; 0 for single-system runs.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Latest sim time this hub has seen (picoseconds).
    pub fn end_ps(&self) -> u64 {
        self.end_ps
    }

    /// Number of windows covered so far: one past the highest window any
    /// record or [`MetricsHub::touch`] reached (quiet windows count).
    pub fn frame_count(&self) -> usize {
        self.len
    }

    /// Materialises window `i`'s frame. Windows past
    /// [`MetricsHub::frame_count`] are quiet: every value is zero.
    pub fn frame(&self, i: usize) -> MetricsFrame {
        let get = |c: Col| self.cols[c as usize].get(i);
        let count = get(Col::LatCount) as u64;
        let lat = (count != 0).then(|| {
            let mut h = Histogram::new();
            for (b, lane) in self.lat_buckets.iter().enumerate() {
                h.load_bucket(b, lane.get(i) as u64)
                    .expect("one lane per bucket");
            }
            h.load_summary(count, get(Col::LatSumPs), get(Col::LatMaxPs) as u64)
                .expect("bucket lanes add up to lat_count");
            Box::new(h)
        });
        MetricsFrame {
            index: i as u64,
            ops: get(Col::Ops) as u64,
            cache_hits: get(Col::CacheHits) as u64,
            cache_misses: get(Col::CacheMisses) as u64,
            cache_dirty_evicts: get(Col::CacheDirtyEvicts) as u64,
            gc_cycles: get(Col::GcCycles) as u64,
            energy_pj: get(Col::EnergyPj) as u64,
            wear_migrations: get(Col::WearMigrations) as u64,
            blocks_retired: get(Col::BlocksRetired) as u64,
            queue_depth: get(Col::QueueDepth) as u32,
            cache_dirty: get(Col::CacheDirty) as u32,
            cache_len: get(Col::CacheLen) as u32,
            free_blocks: get(Col::FreeBlocks) as u32,
            wear_spread: get(Col::WearSpread) as u32,
            lat,
        }
    }

    /// The frames collected so far, materialised one per window,
    /// index-contiguous from window 0 (quiet windows are present but
    /// empty).
    pub fn frames(&self) -> impl ExactSizeIterator<Item = MetricsFrame> + '_ {
        (0..self.len).map(|i| self.frame(i))
    }

    /// Heap bytes held by the hub's lanes (allocated capacity).
    pub fn heap_bytes(&self) -> usize {
        let lanes: usize = self
            .cols
            .iter()
            .chain(&self.lat_buckets)
            .map(Lane::heap_bytes)
            .sum();
        lanes + self.lat_buckets.capacity() * std::mem::size_of::<Lane>()
    }

    /// The window containing `at_ps`, extending the covered span to it.
    fn slot(&mut self, at_ps: u64) -> usize {
        let idx = (at_ps / self.window_ps) as usize;
        self.len = self.len.max(idx + 1);
        self.end_ps = self.end_ps.max(at_ps);
        idx
    }

    fn col(&mut self, c: Col) -> &mut Lane {
        &mut self.cols[c as usize]
    }

    /// Establishes the delta baseline without attributing anything — call
    /// once at run start so totals accumulated before the run (preload,
    /// a previous job on the same stack) don't pollute window 0.
    pub fn prime(&mut self, snap: &MetricsSnapshot) {
        if !self.enabled || self.primed {
            return;
        }
        self.base = *snap;
        self.primed = true;
    }

    /// Attributes the counter deltas since the previous sample to the
    /// window containing `now` and stamps the gauges as that window's
    /// closing values. The first call primes the baseline (see
    /// [`MetricsHub::prime`]).
    #[inline]
    pub fn sample(&mut self, now: SimTime, snap: &MetricsSnapshot) {
        if !self.enabled {
            return;
        }
        if !self.primed {
            self.base = *snap;
            self.primed = true;
        }
        let base = self.base;
        let i = self.slot(now.as_picos());
        let deltas = [
            (Col::CacheHits, snap.cache_hits - base.cache_hits),
            (Col::CacheMisses, snap.cache_misses - base.cache_misses),
            (
                Col::CacheDirtyEvicts,
                snap.cache_dirty_evicts - base.cache_dirty_evicts,
            ),
            (Col::GcCycles, snap.gc_cycles - base.gc_cycles),
            (Col::EnergyPj, snap.energy_pj - base.energy_pj),
            (
                Col::WearMigrations,
                snap.wear_migrations - base.wear_migrations,
            ),
            (
                Col::BlocksRetired,
                snap.blocks_retired - base.blocks_retired,
            ),
        ];
        for (c, d) in deltas {
            self.col(c).add(i, d.into());
        }
        let gauges = [
            (Col::QueueDepth, snap.queue_depth),
            (Col::CacheDirty, snap.cache_dirty),
            (Col::CacheLen, snap.cache_len),
            (Col::FreeBlocks, snap.free_blocks),
            (Col::WearSpread, snap.wear_spread),
        ];
        for (c, g) in gauges {
            self.col(c).set(i, g.into());
        }
        self.base = *snap;
    }

    /// Records one completed host op: routed by completion time, so
    /// merging per-window histograms reproduces the whole-run histogram.
    #[inline]
    pub fn observe_latency(&mut self, completed_at: SimTime, latency: SimDuration) {
        if !self.enabled {
            return;
        }
        let i = self.slot(completed_at.as_picos());
        let ps = latency.as_picos();
        self.col(Col::Ops).add(i, 1);
        self.col(Col::LatCount).add(i, 1);
        self.col(Col::LatSumPs).add(i, ps.into());
        self.col(Col::LatMaxPs).raise(i, ps.into());
        if self.lat_buckets.is_empty() {
            self.lat_buckets.resize_with(BUCKETS, Lane::default);
        }
        self.lat_buckets[Histogram::bucket_of(ps)].add(i, 1);
    }

    /// Counts one completed op without a latency (used by shard hubs in a
    /// multi-channel device, where issue→complete latency is only known
    /// at the coordinator).
    #[inline]
    pub fn note_op(&mut self, completed_at: SimTime) {
        if !self.enabled {
            return;
        }
        let i = self.slot(completed_at.as_picos());
        self.col(Col::Ops).add(i, 1);
    }

    /// Extends the covered span to `now`, so a run that went quiet still
    /// closes with `floor(end/W) + 1` frames.
    pub fn touch(&mut self, now: SimTime) {
        if !self.enabled {
            return;
        }
        self.slot(now.as_picos());
    }

    /// All per-window latency histograms merged into one.
    pub fn merged_latency(&self) -> Histogram {
        let total = |lane: &Lane| lane.values().sum::<u128>();
        let col = |c: Col| &self.cols[c as usize];
        let mut h = Histogram::new();
        for (b, lane) in self.lat_buckets.iter().enumerate() {
            h.load_bucket(b, total(lane) as u64)
                .expect("one lane per bucket");
        }
        let max = col(Col::LatMaxPs).values().max().unwrap_or(0);
        h.load_summary(
            total(col(Col::LatCount)) as u64,
            total(col(Col::LatSumPs)),
            max as u64,
        )
        .expect("bucket lanes add up to lat_count");
        h
    }
}

/// A complete run's telemetry: device-level frames (what SLOs are judged
/// on) plus optional per-shard frame lanes for multi-channel devices.
#[derive(Debug, Clone)]
pub struct MetricsSeries {
    /// Window length in picoseconds.
    pub window_ps: u64,
    /// Number of shards that contributed (1 for single-system runs).
    pub shards: u32,
    /// Latest sim time any contributing hub saw, picoseconds.
    pub end_ps: u64,
    /// Device-level frames, index-contiguous from window 0.
    pub device: Vec<MetricsFrame>,
    /// Per-shard frames (`per_shard[s]` = shard `s`), empty when the run
    /// had a single shard.
    pub per_shard: Vec<Vec<MetricsFrame>>,
}

impl MetricsSeries {
    /// A series from a single-system run: the one hub's frames are the
    /// device frames.
    pub fn from_hub(hub: &MetricsHub) -> MetricsSeries {
        MetricsSeries {
            window_ps: hub.window_ps,
            shards: 1,
            end_ps: hub.end_ps,
            device: hub.frames().collect(),
            per_shard: Vec::new(),
        }
    }

    /// A series from a multi-channel run: `device_hub` carries host-op
    /// latencies observed at the coordinator; `shard_hubs[s]` carries
    /// shard `s`'s counters and gauges. Device frames take latencies from
    /// the coordinator and sum counters (and gauges, which are per-shard
    /// quantities like queue depth) across shards. Every hub is
    /// materialised to the longest hub's frame count.
    pub fn from_shards(device_hub: &MetricsHub, shard_hubs: &[&MetricsHub]) -> MetricsSeries {
        let window_ps = device_hub.window_ps;
        let mut end_ps = device_hub.end_ps;
        let mut len = device_hub.len;
        for h in shard_hubs {
            debug_assert_eq!(h.window_ps, window_ps, "shard hubs must share the window");
            end_ps = end_ps.max(h.end_ps);
            len = len.max(h.len);
        }
        let mut device: Vec<MetricsFrame> = (0..len).map(|i| device_hub.frame(i)).collect();
        let mut per_shard = Vec::with_capacity(shard_hubs.len());
        for h in shard_hubs {
            let frames: Vec<MetricsFrame> = (0..len).map(|i| h.frame(i)).collect();
            for (d, s) in device.iter_mut().zip(frames.iter()) {
                d.cache_hits += s.cache_hits;
                d.cache_misses += s.cache_misses;
                d.cache_dirty_evicts += s.cache_dirty_evicts;
                d.gc_cycles += s.gc_cycles;
                d.energy_pj += s.energy_pj;
                d.wear_migrations += s.wear_migrations;
                d.blocks_retired += s.blocks_retired;
                d.queue_depth += s.queue_depth;
                d.cache_dirty += s.cache_dirty;
                d.cache_len += s.cache_len;
                d.free_blocks += s.free_blocks;
                d.wear_spread = d.wear_spread.max(s.wear_spread);
            }
            per_shard.push(frames);
        }
        MetricsSeries {
            window_ps,
            shards: shard_hubs.len().max(1) as u32,
            end_ps,
            device,
            per_shard,
        }
    }

    /// The window length.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_picos(self.window_ps)
    }

    /// All device-frame latency histograms merged into one.
    pub fn merged_latency(&self) -> Histogram {
        let mut h = Histogram::new();
        for f in &self.device {
            h.merge(f.lat());
        }
        h
    }

    /// Renders the series (plus SLO verdicts) as `babol-metrics-v1`
    /// line-JSON: a header line, one line per device frame (`"shard":-1`),
    /// one line per shard frame, one line per SLO verdict, and a footer.
    /// Every value is an integer or a comma-free string, so the flat
    /// parser in this crate reads it back without a JSON library, and the
    /// bytes are deterministic for a deterministic run.
    pub fn to_json_lines(&self, verdicts: &[SloVerdict]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            r#"{{"schema":"{}","window_ps":{},"shards":{},"frames":{}}}"#,
            METRICS_SCHEMA,
            self.window_ps,
            self.shards,
            self.device.len()
        );
        for f in &self.device {
            push_frame(&mut out, DEVICE_SHARD, f);
        }
        for (sid, frames) in self.per_shard.iter().enumerate() {
            for f in frames {
                push_frame(&mut out, sid as i64, f);
            }
        }
        for v in verdicts {
            let _ = writeln!(
                out,
                r#"{{"slo":"{}","evaluated":{},"breaches":{},"longest_streak":{},"burn_short_bp":{},"burn_long_bp":{},"ok":{}}}"#,
                v.spec,
                v.evaluated,
                v.breaches,
                v.longest_streak,
                v.burn_short_bp,
                v.burn_long_bp,
                v.ok()
            );
        }
        let _ = writeln!(
            out,
            r#"{{"footer":true,"frames":{},"shards":{},"window_ps":{},"end_ps":{}}}"#,
            self.device.len(),
            self.shards,
            self.window_ps,
            self.end_ps
        );
        out
    }

    /// Writes [`MetricsSeries::to_json_lines`] to `path`.
    pub fn write_json_lines(
        &self,
        path: impl AsRef<Path>,
        verdicts: &[SloVerdict],
    ) -> io::Result<()> {
        std::fs::write(path, self.to_json_lines(verdicts))
    }
}

fn push_frame(out: &mut String, shard: i64, f: &MetricsFrame) {
    let lat = f.lat();
    let _ = write!(
        out,
        r#"{{"frame":{},"shard":{},"ops":{},"cache_hits":{},"cache_misses":{},"cache_dirty_evicts":{},"gc_cycles":{},"energy_pj":{},"wear_migrations":{},"blocks_retired":{},"qd":{},"cache_dirty":{},"cache_len":{},"free_blocks":{},"wear_spread":{},"lat_count":{},"lat_sum_ps":{},"lat_max_ps":{}"#,
        f.index,
        shard,
        f.ops,
        f.cache_hits,
        f.cache_misses,
        f.cache_dirty_evicts,
        f.gc_cycles,
        f.energy_pj,
        f.wear_migrations,
        f.blocks_retired,
        f.queue_depth,
        f.cache_dirty,
        f.cache_len,
        f.free_blocks,
        f.wear_spread,
        lat.count(),
        lat.sum_ps(),
        lat.max().as_picos()
    );
    // Sparse bucket encoding, space-separated so the value stays a single
    // comma-free token for the flat line parser: "bucket:count ...".
    out.push_str(",\"lat_buckets\":\"");
    let mut first = true;
    for (i, &n) in lat.buckets().iter().enumerate() {
        if n != 0 {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{i}:{n}");
            first = false;
        }
    }
    out.push_str("\"}\n");
}

/// A `metrics.jsonl` file read back: the series plus its SLO verdicts.
#[derive(Debug, Clone)]
pub struct ParsedMetrics {
    /// The reassembled series.
    pub series: MetricsSeries,
    /// SLO verdicts from the file, in file order.
    pub verdicts: Vec<SloVerdict>,
}

/// Parses a `babol-metrics-v1` export back (inverse of
/// [`MetricsSeries::to_json_lines`]). Unknown keys are skipped; malformed
/// lines are errors with their line number.
pub fn parse_metrics_lines(text: &str) -> Result<ParsedMetrics, ParseError> {
    let mut window_ps = 0u64;
    let mut shards = 1u32;
    let mut end_ps = 0u64;
    let mut device: Vec<MetricsFrame> = Vec::new();
    let mut per_shard: Vec<Vec<MetricsFrame>> = Vec::new();
    let mut verdicts: Vec<SloVerdict> = Vec::new();
    let mut saw_header = false;
    let mut saw_footer = false;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let err = |reason: &str| ParseError {
            line: lineno,
            reason: reason.to_string(),
        };
        if line.trim().is_empty() {
            continue;
        }
        if saw_footer {
            return Err(err("record after footer"));
        }
        let fields = fields(line).ok_or_else(|| err("not a flat JSON object"))?;
        let get = |key: &str| fields.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v);
        let get_u128 = |key: &str| -> Result<u128, ParseError> {
            get(key)
                .ok_or_else(|| err(&format!("missing {key}")))?
                .parse()
                .map_err(|_| err(&format!("bad {key}")))
        };
        let get_u64 = |key: &str| -> Result<u64, ParseError> {
            u64::try_from(get_u128(key)?).map_err(|_| err(&format!("{key} out of range")))
        };
        let get_u32 = |key: &str| -> Result<u32, ParseError> {
            u32::try_from(get_u128(key)?).map_err(|_| err(&format!("{key} out of range")))
        };
        if let Some(schema) = get("schema") {
            if schema != format!("\"{METRICS_SCHEMA}\"") {
                return Err(err("unknown metrics schema"));
            }
            window_ps = get_u64("window_ps")?;
            shards = get_u32("shards")?;
            saw_header = true;
            continue;
        }
        if !saw_header {
            return Err(err("missing babol-metrics-v1 header"));
        }
        if get("footer").is_some() {
            end_ps = get_u64("end_ps")?;
            let frames = get_u64("frames")? as usize;
            if frames != device.len() {
                return Err(err("footer frame count disagrees with device frames"));
            }
            saw_footer = true;
            continue;
        }
        if let Some(spec) = get("slo") {
            let spec = spec
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| err("slo spec not a string"))?;
            let spec = SloSpec::parse(spec).map_err(|e| err(&e))?;
            verdicts.push(SloVerdict {
                spec,
                evaluated: get_u64("evaluated")?,
                breaches: get_u64("breaches")?,
                longest_streak: get_u64("longest_streak")?,
                burn_short_bp: get_u64("burn_short_bp")?,
                burn_long_bp: get_u64("burn_long_bp")?,
            });
            continue;
        }
        // A frame row.
        let shard: i64 = get("shard")
            .ok_or_else(|| err("missing shard"))?
            .parse()
            .map_err(|_| err("bad shard"))?;
        let mut f = MetricsFrame {
            index: get_u64("frame")?,
            ops: get_u64("ops")?,
            cache_hits: get_u64("cache_hits")?,
            cache_misses: get_u64("cache_misses")?,
            cache_dirty_evicts: get_u64("cache_dirty_evicts")?,
            gc_cycles: get_u64("gc_cycles")?,
            energy_pj: get_u64("energy_pj")?,
            wear_migrations: get_u64("wear_migrations")?,
            blocks_retired: get_u64("blocks_retired")?,
            queue_depth: get_u32("qd")?,
            cache_dirty: get_u32("cache_dirty")?,
            cache_len: get_u32("cache_len")?,
            free_blocks: get_u32("free_blocks")?,
            wear_spread: get_u32("wear_spread")?,
            lat: None,
        };
        let buckets = get("lat_buckets")
            .and_then(|v| v.strip_prefix('"'))
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| err("missing lat_buckets"))?;
        let max_ps = get_u64("lat_max_ps")?;
        let mut lat = Histogram::new();
        for tok in buckets.split(' ').filter(|t| !t.is_empty()) {
            let (b, n) = tok.split_once(':').ok_or_else(|| err("bad bucket token"))?;
            let b: usize = b.parse().map_err(|_| err("bad bucket index"))?;
            let n: u64 = n.parse().map_err(|_| err("bad bucket count"))?;
            lat.load_bucket(b, n)
                .map_err(|_| err("bucket index out of range"))?;
        }
        lat.load_summary(get_u64("lat_count")?, get_u128("lat_sum_ps")?, max_ps)
            .map_err(|_| err("bucket counts disagree with lat_count"))?;
        // An empty summary is all zeros, so leaving it unallocated loses
        // nothing on re-export.
        f.lat = (!lat.is_empty()).then(|| Box::new(lat));
        if shard == DEVICE_SHARD {
            if f.index as usize != device.len() {
                return Err(err("device frames out of order"));
            }
            device.push(f);
        } else {
            let sid = usize::try_from(shard).map_err(|_| err("bad shard"))?;
            while per_shard.len() <= sid {
                per_shard.push(Vec::new());
            }
            if f.index as usize != per_shard[sid].len() {
                return Err(err("shard frames out of order"));
            }
            per_shard[sid].push(f);
        }
    }
    if !saw_header {
        return Err(ParseError {
            line: 1,
            reason: "empty metrics file".to_string(),
        });
    }
    if !saw_footer {
        return Err(ParseError {
            line: text.lines().count().max(1),
            reason: "missing metrics footer".to_string(),
        });
    }
    Ok(ParsedMetrics {
        series: MetricsSeries {
            window_ps,
            shards,
            end_ps,
            device,
            per_shard,
        },
        verdicts,
    })
}

/// Sparkline glyphs, dimmest to brightest.
const SPARK: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Maximum cells in one dashboard lane; longer series downsample.
const LANE_WIDTH: usize = 64;

/// Downsamples `values` to at most [`LANE_WIDTH`] cells. `peak` folds the
/// members of one cell together (max for gauges, sum would distort rates
/// across uneven cells, so max it is for everything).
fn lane_cells(values: &[u64]) -> Vec<u64> {
    if values.is_empty() {
        return Vec::new();
    }
    let group = values.len().div_ceil(LANE_WIDTH);
    values
        .chunks(group)
        .map(|c| c.iter().copied().max().unwrap_or(0))
        .collect()
}

/// Renders one sparkline lane, normalized to the series maximum.
fn sparkline(values: &[u64]) -> String {
    let cells = lane_cells(values);
    let max = cells.iter().copied().max().unwrap_or(0);
    cells
        .iter()
        .map(|&v| {
            if max == 0 {
                SPARK[0]
            } else {
                // Nonzero values always render at least the dimmest ink.
                let level =
                    (u128::from(v) * (SPARK.len() as u128 - 1)).div_ceil(u128::from(max)) as usize;
                SPARK[level.min(SPARK.len() - 1)]
            }
        })
        .collect()
}

/// Downsamples per-frame marker chars (`!`/`.`/space) to the lane width;
/// a breach anywhere in a cell marks the whole cell.
fn marker_lane(marks: &[char]) -> String {
    if marks.is_empty() {
        return String::new();
    }
    let group = marks.len().div_ceil(LANE_WIDTH);
    marks
        .chunks(group)
        .map(|c| {
            if c.contains(&'!') {
                '!'
            } else if c.contains(&'.') {
                '.'
            } else {
                ' '
            }
        })
        .collect()
}

fn fmt_us(ps: u64) -> String {
    format!("{:.1}us", ps as f64 / 1e6)
}

/// Renders the ASCII dashboard: one sparkline lane per metric over
/// sim-time, SLO verdicts with per-window breach markers, and per-shard
/// channel-activity lanes for multi-channel runs.
pub fn render_metrics_dashboard(series: &MetricsSeries, verdicts: &[SloVerdict]) -> String {
    let mut out = String::new();
    let w = series.window_ps;
    let n = series.device.len();
    let _ = writeln!(
        out,
        "== metrics dashboard ({} frames x {} window, {} shard{}) ==",
        n,
        fmt_us(w),
        series.shards,
        if series.shards == 1 { "" } else { "s" }
    );
    if n == 0 {
        out.push_str("(no frames)\n");
        return out;
    }
    let lane = |out: &mut String, label: &str, values: &[u64], note: String| {
        let _ = writeln!(out, "{label:<11}[{}]  {note}", sparkline(values));
    };
    let ops: Vec<u64> = series.device.iter().map(|f| f.ops).collect();
    let peak_iops = series
        .device
        .iter()
        .map(|f| f.iops(series.window()))
        .max()
        .unwrap_or(0);
    lane(&mut out, "ops", &ops, format!("peak {peak_iops} IOPS"));
    let p99: Vec<u64> = series
        .device
        .iter()
        .map(|f| f.lat().percentile(99.0).as_picos())
        .collect();
    let worst = p99.iter().copied().max().unwrap_or(0);
    lane(
        &mut out,
        "p99 lat",
        &p99,
        format!("worst {}", fmt_us(worst)),
    );
    let qd: Vec<u64> = series
        .device
        .iter()
        .map(|f| u64::from(f.queue_depth))
        .collect();
    let max_qd = qd.iter().copied().max().unwrap_or(0);
    lane(&mut out, "queue", &qd, format!("max {max_qd}"));
    let hit: Vec<u64> = series.device.iter().map(|f| f.cache_hit_bp()).collect();
    if hit.iter().any(|&v| v != 0) {
        let best = hit.iter().copied().max().unwrap_or(0);
        lane(
            &mut out,
            "cache hit",
            &hit,
            format!("best {}.{:02}%", best / 100, best % 100),
        );
    }
    let gc: Vec<u64> = series.device.iter().map(|f| f.gc_cycles).collect();
    let gc_total: u64 = gc.iter().sum();
    if gc_total != 0 {
        lane(&mut out, "gc", &gc, format!("total {gc_total} cycles"));
    }
    let dirty: Vec<u64> = series
        .device
        .iter()
        .map(|f| u64::from(f.cache_dirty))
        .collect();
    if dirty.iter().any(|&v| v != 0) {
        let peak = dirty.iter().copied().max().unwrap_or(0);
        lane(&mut out, "dirty pages", &dirty, format!("peak {peak}"));
    }
    let energy: Vec<u64> = series.device.iter().map(|f| f.energy_pj).collect();
    let total_pj: u64 = energy.iter().sum();
    lane(
        &mut out,
        "energy",
        &energy,
        format!("total {:.3} uJ", total_pj as f64 / 1e6),
    );
    let wear: Vec<u64> = series
        .device
        .iter()
        .map(|f| u64::from(f.wear_spread))
        .collect();
    if wear.iter().any(|&v| v != 0) {
        let peak = wear.iter().copied().max().unwrap_or(0);
        lane(&mut out, "wear sprd", &wear, format!("peak {peak}"));
    }
    if !verdicts.is_empty() {
        out.push_str("-- slo --\n");
        for v in verdicts {
            let spec = &v.spec;
            let _ = writeln!(
                out,
                "{:<11} {}  breaches {}/{} frames  longest streak {}  burn {}.{:02}%/{}.{:02}% (short/long)",
                spec.to_string(),
                if v.ok() { "OK  " } else { "FAIL" },
                v.breaches,
                v.evaluated,
                v.longest_streak,
                v.burn_short_bp / 100,
                v.burn_short_bp % 100,
                v.burn_long_bp / 100,
                v.burn_long_bp % 100,
            );
            let marks = crate::slo::breach_marks(spec, &series.device, w);
            let _ = writeln!(out, "{:<11}[{}]", "", marker_lane(&marks));
        }
    }
    if !series.per_shard.is_empty() {
        out.push_str("-- shard lanes (ops per window) --\n");
        for (sid, frames) in series.per_shard.iter().enumerate() {
            let ops: Vec<u64> = frames.iter().map(|f| f.ops).collect();
            let total: u64 = ops.iter().sum();
            let label = format!("ch{sid:02}");
            let _ = writeln!(out, "{label:<11}[{}]  {total} ops", sparkline(&ops));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::evaluate_slo;

    fn ps(v: u64) -> SimDuration {
        SimDuration::from_picos(v)
    }

    fn at(v: u64) -> SimTime {
        SimTime::from_picos(v)
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let mut hub = MetricsHub::disabled();
        hub.observe_latency(at(5), ps(10));
        hub.sample(at(5), &MetricsSnapshot::default());
        hub.touch(at(1 << 40));
        assert!(!hub.is_enabled());
        assert_eq!(hub.frame_count(), 0);
    }

    #[test]
    fn latencies_route_by_completion_time() {
        let w = 1_000_000u64; // 1 us windows
        let mut hub = MetricsHub::new(ps(w));
        hub.observe_latency(at(10), ps(100));
        hub.observe_latency(at(w + 1), ps(200));
        hub.observe_latency(at(3 * w + 5), ps(300));
        // Out-of-order arrival for an earlier window still lands there.
        hub.observe_latency(at(w + 2), ps(400));
        let frames: Vec<MetricsFrame> = hub.frames().collect();
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0].ops, 1);
        assert_eq!(frames[1].ops, 2);
        assert_eq!(frames[2].ops, 0, "quiet window is present but empty");
        assert_eq!(frames[3].ops, 1);
        assert_eq!(hub.merged_latency().count(), 4);
        assert_eq!(hub.merged_latency().max(), ps(400));
    }

    #[test]
    fn sample_attributes_deltas_and_stamps_gauges() {
        let w = 1_000_000u64;
        let mut hub = MetricsHub::new(ps(w));
        let mut snap = MetricsSnapshot {
            cache_hits: 100, // pre-run total: must not leak into window 0
            energy_pj: 5_000,
            ..MetricsSnapshot::default()
        };
        hub.prime(&snap);
        snap.cache_hits = 110;
        snap.energy_pj = 5_400;
        snap.queue_depth = 4;
        hub.sample(at(10), &snap);
        snap.cache_hits = 115;
        snap.energy_pj = 6_000;
        snap.queue_depth = 2;
        hub.sample(at(w + 10), &snap);
        let frames: Vec<MetricsFrame> = hub.frames().collect();
        assert_eq!(frames[0].cache_hits, 10);
        assert_eq!(frames[0].energy_pj, 400);
        assert_eq!(frames[0].queue_depth, 4);
        assert_eq!(frames[1].cache_hits, 5);
        assert_eq!(frames[1].energy_pj, 600);
        assert_eq!(frames[1].queue_depth, 2);
    }

    #[test]
    fn touch_extends_to_quiet_end_of_run() {
        let w = 1_000_000u64;
        let mut hub = MetricsHub::new(ps(w));
        hub.observe_latency(at(10), ps(1));
        hub.touch(at(5 * w + 1));
        assert_eq!(hub.frame_count(), 6);
        assert_eq!(hub.end_ps(), 5 * w + 1);
    }

    #[test]
    fn frames_allocate_a_histogram_only_on_a_latency() {
        let w = 1_000_000u64;
        let mut hub = MetricsHub::new(ps(w));
        hub.note_op(at(10));
        hub.sample(at(w + 10), &MetricsSnapshot::default());
        hub.observe_latency(at(2 * w + 10), ps(7));
        let frames: Vec<MetricsFrame> = hub.frames().collect();
        assert!(frames[0].lat.is_none() && frames[1].lat.is_none());
        assert!(frames[0].lat().is_empty());
        assert_eq!(frames[2].lat().count(), 1);
        // An empty row parses back unallocated; a non-empty one allocates.
        let text = MetricsSeries::from_hub(&hub).to_json_lines(&[]);
        let device = parse_metrics_lines(&text).unwrap().series.device;
        assert!(device[0].lat.is_none());
        assert_eq!(device[2].lat().max(), ps(7));
        // Leaving empty rows unallocated is lossless because an empty
        // summary must be all zeros.
        let empty = "\"lat_count\":0,\"lat_sum_ps\":0,\"lat_max_ps\":0";
        assert!(text.contains(empty));
        let bad = text.replace(empty, "\"lat_count\":0,\"lat_sum_ps\":0,\"lat_max_ps\":9");
        assert!(parse_metrics_lines(&bad).is_err());
    }

    #[test]
    fn tiny_windows_clamp_to_a_nanosecond() {
        let hub = MetricsHub::new(ps(1));
        assert_eq!(hub.window(), SimDuration::from_nanos(1));
    }

    fn sample_series() -> MetricsSeries {
        let w = 1_000_000u64;
        let mut hub = MetricsHub::new(ps(w));
        let mut snap = MetricsSnapshot::default();
        hub.prime(&snap);
        for i in 0..5u64 {
            hub.observe_latency(at(i * w + 500), ps((i + 1) * 111));
            snap.cache_hits += i;
            snap.cache_misses += 1;
            snap.energy_pj += 1000 * (i + 1);
            snap.gc_cycles += u64::from(i == 3);
            snap.queue_depth = i as u32;
            snap.free_blocks = 40 - i as u32;
            hub.sample(at(i * w + 900), &snap);
        }
        MetricsSeries::from_hub(&hub)
    }

    #[test]
    fn export_parse_roundtrip() {
        let series = sample_series();
        let spec = SloSpec::parse("p99<400ps").unwrap();
        let verdict = evaluate_slo(&spec, &series.device, series.window_ps);
        let text = series.to_json_lines(std::slice::from_ref(&verdict));
        assert!(text.starts_with(r#"{"schema":"babol-metrics-v1","#));
        let parsed = parse_metrics_lines(&text).unwrap();
        assert_eq!(parsed.series.window_ps, series.window_ps);
        assert_eq!(parsed.series.device.len(), series.device.len());
        assert_eq!(parsed.series.end_ps, series.end_ps);
        assert_eq!(parsed.verdicts, vec![verdict]);
        for (a, b) in parsed.series.device.iter().zip(series.device.iter()) {
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.cache_hits, b.cache_hits);
            assert_eq!(a.energy_pj, b.energy_pj);
            assert_eq!(a.queue_depth, b.queue_depth);
            assert_eq!(a.lat().buckets(), b.lat().buckets());
            assert_eq!(a.lat().count(), b.lat().count());
            assert_eq!(a.lat().max(), b.lat().max());
            assert_eq!(a.lat().mean(), b.lat().mean());
        }
        // And the re-export is byte-identical: parse is lossless.
        assert_eq!(
            parsed.series.to_json_lines(&parsed.verdicts),
            text,
            "parse -> export must be a fixed point"
        );
    }

    #[test]
    fn parse_rejects_malformed_files() {
        assert!(parse_metrics_lines("").is_err());
        assert!(parse_metrics_lines(
            "{\"schema\":\"bogus-v9\",\"window_ps\":1,\"shards\":1,\"frames\":0}\n"
        )
        .is_err());
        let series = sample_series();
        let good = series.to_json_lines(&[]);
        // Truncating the footer must fail loudly.
        let truncated: String = good.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(parse_metrics_lines(&truncated).is_err());
        // Corrupting a bucket count must fail the count cross-check.
        let bad = good.replace("\"lat_count\":1", "\"lat_count\":7");
        assert!(parse_metrics_lines(&bad).is_err());
    }

    #[test]
    fn parse_roundtrips_latency_sums_past_u64() {
        let mut hub = MetricsHub::new(ps(1_000_000));
        hub.observe_latency(at(10), ps(u64::MAX));
        hub.observe_latency(at(20), ps(u64::MAX));
        let series = MetricsSeries::from_hub(&hub);
        let text = series.to_json_lines(&[]);
        let sum = 2 * u128::from(u64::MAX);
        assert!(text.contains(&format!("\"lat_sum_ps\":{sum}")));
        let parsed = parse_metrics_lines(&text).expect("a u128 sum parses");
        assert_eq!(parsed.series.device[0].lat().sum_ps(), sum);
        assert_eq!(parsed.series.to_json_lines(&[]), text);
    }

    #[test]
    fn parse_rejects_u32_fields_out_of_range() {
        let text = sample_series().to_json_lines(&[]);
        for key in [
            "shards",
            "qd",
            "cache_dirty",
            "cache_len",
            "free_blocks",
            "wear_spread",
        ] {
            // Overwrite the key's first value with 2^32.
            let tag = format!("\"{key}\":");
            let at = text.find(&tag).expect("key exported") + tag.len();
            let digits = text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
            let bad = format!("{}4294967296{}", &text[..at], &text[at + digits..]);
            let e = parse_metrics_lines(&bad).expect_err(key);
            assert!(e.reason.contains(key), "{key}: {}", e.reason);
            assert!(e.reason.contains("out of range"), "{key}: {}", e.reason);
            // u32::MAX itself still fits.
            let max = format!("{}4294967295{}", &text[..at], &text[at + digits..]);
            assert!(parse_metrics_lines(&max).is_ok(), "{key} at u32::MAX");
        }
    }

    #[test]
    fn multi_shard_series_sums_into_device_frames() {
        let w = 1_000_000u64;
        let mut dev = MetricsHub::new(ps(w));
        let mut s0 = MetricsHub::new(ps(w));
        let mut s1 = MetricsHub::new(ps(w));
        s1.set_shard(1);
        dev.observe_latency(at(100), ps(50));
        dev.observe_latency(at(w + 100), ps(60));
        s0.note_op(at(100));
        s1.note_op(at(w + 100));
        let mut snap = MetricsSnapshot::default();
        s0.prime(&snap);
        snap.energy_pj = 300;
        s0.sample(at(150), &snap);
        let mut snap1 = MetricsSnapshot::default();
        s1.prime(&snap1);
        snap1.energy_pj = 500;
        snap1.queue_depth = 2;
        s1.sample(at(w + 150), &snap1);
        let series = MetricsSeries::from_shards(&dev, &[&s0, &s1]);
        assert_eq!(series.shards, 2);
        assert_eq!(series.device.len(), 2);
        assert_eq!(series.per_shard.len(), 2);
        assert_eq!(series.device[0].energy_pj, 300);
        assert_eq!(series.device[1].energy_pj, 500);
        assert_eq!(series.device[1].queue_depth, 2);
        assert_eq!(series.device[0].ops, 1, "ops come from the device hub");
        assert_eq!(series.per_shard[1][1].ops, 1);
        // Round-trip keeps the shard lanes.
        let parsed = parse_metrics_lines(&series.to_json_lines(&[])).unwrap();
        assert_eq!(parsed.series.per_shard.len(), 2);
        assert_eq!(parsed.series.per_shard[1][1].ops, 1);
    }

    #[test]
    fn dashboard_renders_lanes_markers_and_shards() {
        let series = sample_series();
        let spec = SloSpec::parse("p99<400ps").unwrap();
        let verdict = evaluate_slo(&spec, &series.device, series.window_ps);
        let dash = render_metrics_dashboard(&series, &[verdict]);
        assert!(dash.contains("== metrics dashboard"));
        assert!(dash.contains("ops"));
        assert!(dash.contains("p99 lat"));
        assert!(dash.contains("-- slo --"));
        assert!(dash.contains("p99<400ps"));
        assert!(dash.contains('!'), "breach marker missing:\n{dash}");
        // Multi-shard dashboards grow channel lanes.
        let w = ps(1_000_000);
        let mut dev = MetricsHub::new(w);
        let mut s0 = MetricsHub::new(w);
        dev.observe_latency(at(5), ps(10));
        s0.note_op(at(5));
        let multi = MetricsSeries::from_shards(&dev, &[&s0]);
        let dash = render_metrics_dashboard(&multi, &[]);
        assert!(dash.contains("-- shard lanes"));
        assert!(dash.contains("ch00"));
    }

    #[test]
    fn sparkline_is_width_bounded_and_deterministic() {
        let values: Vec<u64> = (0..500).map(|i| i % 97).collect();
        let a = sparkline(&values);
        let b = sparkline(&values);
        assert_eq!(a, b);
        assert!(a.chars().count() <= LANE_WIDTH);
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "  ", "all-zero lane renders blank");
    }
}
