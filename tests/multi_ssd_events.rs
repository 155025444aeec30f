//! `MultiFioReport::events` counts every event a shard pops, wherever the
//! pop happens. A cached write that evicts a dirty page flushes it inline,
//! while the shard prepares the command, and that flush runs the shard's
//! event loop outside the barrier round's own loop. The report must still
//! count those events: it is checked against the shard tracers'
//! `EventsPopped`, which counts at the single pop site.

use babol_ftl::{FioWorkload, IoPattern, MultiSsd, MultiSsdConfig};
use babol_trace::{Component, Counter};

#[test]
fn report_events_match_the_tracers_events_popped() {
    let mut cfg = MultiSsdConfig::tiny(4, 1);
    cfg.trace_capacity = Some(64);
    cfg.preload = false;
    // Far smaller than the 64 random writes each shard takes per job, so
    // most writes evict a dirty page.
    cfg.shard.cache_pages = 4;
    let mut ssd = MultiSsd::new(cfg);
    // Two jobs: the second report must count only its own events.
    let reports: Vec<_> = [0xE1_u64, 0xE2]
        .iter()
        .map(|&seed| {
            ssd.run(&FioWorkload {
                pattern: IoPattern::RandomWrite,
                total_ios: 256,
                queue_depth: 16,
                seed,
            })
        })
        .collect();
    let reported: u64 = reports.iter().map(|r| r.events).sum();
    let digests = ssd.finish();
    let popped: u64 = digests
        .iter()
        .map(|d| d.tracer.counter(Component::Sim, Counter::EventsPopped))
        .sum();
    assert!(popped > 0, "the jobs popped no events");
    assert!(
        reports.iter().all(|r| r.fio.cache_dirty_evicts > 0),
        "the cache never flushed inline; the test exercises nothing"
    );
    assert_eq!(reported, popped, "report events vs tracer EventsPopped");
    assert_eq!(
        digests.iter().map(|d| d.events).sum::<u64>(),
        popped,
        "shard digest events vs tracer EventsPopped"
    );
}
