//! Host-memory footprint of the streaming telemetry: a hub stores each
//! window as adaptive-width column lanes, so whole-device observation is
//! cheap enough to leave on. This pins the bytes per frame on a
//! 16-channel cached random-write device with GC running.

use babol_ftl::{FioWorkload, IoPattern, MultiSsd, MultiSsdConfig};
use babol_sim::SimDuration;

#[test]
fn multi_channel_hubs_stay_compact_per_frame() {
    let mut cfg = MultiSsdConfig::tiny(16, 1);
    cfg.preload = false;
    cfg.shard.cache_pages = (cfg.shard.logical_pages / 4) as usize;
    cfg.metrics_window = Some(SimDuration::from_micros(5));
    let logical = u64::from(cfg.channels) * cfg.shard.logical_pages;
    let mut ssd = MultiSsd::new(cfg);
    let r = ssd.run(&FioWorkload {
        pattern: IoPattern::RandomWrite,
        total_ios: 3 * logical,
        queue_depth: 64,
        seed: 0xF007,
    });
    assert!(r.fio.gc_cycles > 0, "workload must reach GC");
    let device = ssd.take_metrics();
    let shards = ssd.finish();
    let per_frame = |bytes: usize, frames: usize| bytes as f64 / frames as f64;
    assert!(device.frame_count() > 500, "want a long series");
    let device_bpf = per_frame(device.heap_bytes(), device.frame_count());
    assert!(
        device_bpf <= 64.0,
        "device hub holds {device_bpf:.1} B per frame"
    );
    for sd in &shards {
        let hub = &sd.metrics;
        let bpf = per_frame(hub.heap_bytes(), hub.frame_count());
        assert!(
            bpf <= 24.0,
            "shard {} hub holds {bpf:.1} B per frame",
            sd.shard
        );
    }
}
