//! Property-based tests over the core data structures and invariants,
//! running on the in-repo `babol-testkit` harness (no external deps).
//!
//! Every property runs at least 256 deterministic cases. A failure prints
//! the case seed; replay it with `BABOL_PT_SEED=<seed> cargo test -q`.

use std::collections::BTreeMap;

use babol_testkit::prop::{any, range, range_incl, select, vec_of, Property};
use babol_testkit::{prop_assert, prop_assert_eq, prop_assert_ne};

use babol_ecc::bch::Bch;
use babol_ecc::{PageCodec, PageVerdict};
use babol_flash::Geometry;
use babol_ftl::{PageMap, Ppn};
use babol_onfi::addr::{AddrLayout, ColumnAddr, RowAddr};
use babol_onfi::param_page::ParamPage;
use babol_sim::{Dram, EventQueue, Freq, PageBuf, SimDuration, SimTime};

/// Row/column addresses survive packing into ONFI cycles for any
/// geometry in the supported range.
#[test]
fn addr_roundtrip() {
    Property::new("addr_roundtrip").run(
        (
            select(&[512usize, 2048, 4096, 16384]),
            range(1u32..512),
            range(1u32..4096),
            range(1u32..16),
            range(0u32..16),
            range(0u32..4096),
            range(0u32..512),
            range(0u32..16384),
        ),
        |&(page_size, pages_pb, blocks, luns, lun, block, page, col)| {
            let layout = AddrLayout::new(page_size, pages_pb, blocks, luns);
            let row = RowAddr {
                lun: lun % luns.max(1),
                block: block % blocks.max(1),
                page: page % pages_pb.max(1),
            };
            prop_assert_eq!(layout.unpack_row(&layout.pack_row(row)), row);
            let c = ColumnAddr(col % page_size as u32);
            prop_assert_eq!(layout.unpack_col(&layout.pack_col(c)), c);
            Ok(())
        },
    );
}

/// BCH corrects any error pattern up to its design strength.
#[test]
fn bch_corrects_up_to_t() {
    Property::new("bch_corrects_up_to_t").run(
        (any::<u64>(), range_incl(0usize..=4)),
        |&(seed, nerr)| {
            let bch = Bch::new(1024, 4);
            let mut rng = babol_sim::rng::SplitMix64::new(seed);
            let data: Vec<u8> = (0..128).map(|_| rng.next_u64() as u8).collect();
            let parity = bch.encode(&data);
            let mut corrupted = data.clone();
            let mut bits = std::collections::BTreeSet::new();
            while bits.len() < nerr {
                bits.insert(rng.next_below(1024) as usize);
            }
            for &b in &bits {
                corrupted[b / 8] ^= 1 << (b % 8);
            }
            prop_assert_eq!(bch.decode(&mut corrupted, &parity), Some(nerr as u32));
            prop_assert_eq!(corrupted, data);
            Ok(())
        },
    );
}

/// The page codec never miscorrects silently: with more than t errors
/// in one sector it reports Uncorrectable or (rarely) corrects to a
/// different valid codeword — but never claims Clean.
#[test]
fn page_codec_never_claims_clean_on_damage() {
    Property::new("page_codec_never_claims_clean_on_damage").run(
        (any::<u64>(), range_incl(1usize..=12)),
        |&(seed, nerr)| {
            let codec = PageCodec::new(512, 512, 4);
            let mut rng = babol_sim::rng::SplitMix64::new(seed);
            let page: Vec<u8> = (0..512).map(|_| rng.next_u64() as u8).collect();
            let parity = codec.encode(&page).unwrap();
            let mut corrupted = page.clone();
            let mut bits = std::collections::BTreeSet::new();
            while bits.len() < nerr {
                bits.insert(rng.next_below(4096) as usize);
            }
            for &b in &bits {
                corrupted[b / 8] ^= 1 << (b % 8);
            }
            let verdict = codec.decode(&mut corrupted, &parity).unwrap();
            prop_assert_ne!(verdict, PageVerdict::Clean);
            if nerr <= 4 {
                prop_assert_eq!(verdict, PageVerdict::Corrected(nerr as u32));
                prop_assert_eq!(corrupted, page);
            }
            Ok(())
        },
    );
}

/// Sparse DRAM behaves exactly like a flat byte array.
#[test]
fn dram_matches_flat_model() {
    Property::new("dram_matches_flat_model").run(
        vec_of((range(0u64..10_000), vec_of(any::<u8>(), 1..64)), 1..24),
        |ops| {
            let mut dram = Dram::new();
            let mut model = vec![0u8; 10_100];
            for (addr, data) in ops {
                dram.write(*addr, data);
                model[*addr as usize..*addr as usize + data.len()].copy_from_slice(data);
            }
            prop_assert_eq!(dram.read_vec(0, 10_100), model);
            Ok(())
        },
    );
}

/// Event queue pops in nondecreasing time order with FIFO ties.
#[test]
fn event_queue_is_stable_priority() {
    Property::new("event_queue_is_stable_priority").run(vec_of(range(0u64..50), 1..64), |times| {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_picos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated among ties");
                }
            }
            last = Some((t, i));
        }
        Ok(())
    });
}

/// The queue stays a stable priority queue under sustained load with
/// interleaved pops: 10k pushes per case, times drawn from a narrow range
/// so ties are dense, checked against a `BTreeMap<time, FIFO>` model, with
/// `peek_time` and `len` checked before every pop.
#[test]
fn event_queue_survives_mixed_10k_pushes() {
    Property::new("event_queue_survives_mixed_10k_pushes")
        .cases(16)
        .run((any::<u64>(), range(1u64..32)), |&(seed, spread)| {
            use std::collections::{BTreeMap, VecDeque};
            let mut rng = babol_sim::rng::SplitMix64::new(seed);
            let mut q = EventQueue::new();
            let mut model: BTreeMap<u64, VecDeque<usize>> = BTreeMap::new();
            let mut pending = 0usize;
            for i in 0..10_000usize {
                let t = rng.next_below(spread);
                q.push(SimTime::from_picos(t), i);
                model.entry(t).or_default().push_back(i);
                pending += 1;
                // Interleave pops (~1 in 3) so the heap churns instead of
                // only growing. (No global monotonic check: a push behind
                // an already-popped time is legal, only earliest-first
                // relative to the *current* contents is guaranteed.)
                if rng.next_below(3) == 0 {
                    let first = model.keys().next().copied();
                    prop_assert_eq!(q.peek_time().map(SimTime::as_picos), first);
                    prop_assert_eq!(q.len(), pending);
                    let (pt, pi) = q.pop().expect("queue has pending events");
                    pending -= 1;
                    let entry = model.first_entry().expect("model has pending events");
                    prop_assert_eq!(*entry.key(), pt.as_picos(), "wrong time popped");
                    let mut fifo = entry;
                    let want = fifo.get_mut().pop_front().expect("nonempty bucket");
                    prop_assert_eq!(pi, want, "FIFO violated among ties");
                    if fifo.get().is_empty() {
                        fifo.remove();
                    }
                }
            }
            // Drain the rest; the queue and the model must agree exactly.
            loop {
                let first = model.keys().next().copied();
                prop_assert_eq!(q.peek_time().map(SimTime::as_picos), first);
                prop_assert_eq!(q.len(), pending);
                let Some((pt, pi)) = q.pop() else { break };
                pending -= 1;
                let mut entry = model.first_entry().expect("model matches queue length");
                prop_assert_eq!(*entry.key(), pt.as_picos());
                prop_assert_eq!(pi, entry.get_mut().pop_front().expect("nonempty bucket"));
                if entry.get().is_empty() {
                    entry.remove();
                }
            }
            prop_assert!(model.is_empty(), "queue dropped events");
            Ok(())
        });
}

/// The queue agrees with a `BTreeMap` model when event times span every
/// magnitude from picoseconds to `SimTime::FAR_FUTURE` itself — 10k mixed
/// pushes and pops per case, with `peek_time` and `len` checked before
/// every pop.
#[test]
fn event_queue_spans_wheel_levels_matches_model() {
    Property::new("event_queue_spans_wheel_levels_matches_model")
        .cases(16)
        .run(any::<u64>(), |&seed| {
            use std::collections::{BTreeMap, VecDeque};
            let mut rng = babol_sim::rng::SplitMix64::new(seed);
            let mut q = EventQueue::new();
            let mut model: BTreeMap<u64, VecDeque<usize>> = BTreeMap::new();
            let mut pending = 0usize;
            for i in 0..10_000usize {
                // A random right-shift spreads times across all magnitudes,
                // with an occasional FAR_FUTURE sentinel.
                let t = if rng.next_below(50) == 0 {
                    SimTime::FAR_FUTURE.as_picos()
                } else {
                    rng.next_u64() >> rng.next_below(64)
                };
                q.push(SimTime::from_picos(t), i);
                model.entry(t).or_default().push_back(i);
                pending += 1;
                if rng.next_below(3) == 0 {
                    let first = model.keys().next().copied();
                    prop_assert_eq!(q.peek_time().map(SimTime::as_picos), first);
                    prop_assert_eq!(q.len(), pending);
                    let (pt, pi) = q.pop().expect("queue has pending events");
                    pending -= 1;
                    let mut entry = model.first_entry().expect("model has pending events");
                    prop_assert_eq!(*entry.key(), pt.as_picos(), "wrong time popped");
                    let want = entry.get_mut().pop_front().expect("nonempty bucket");
                    prop_assert_eq!(pi, want, "FIFO violated among ties");
                    if entry.get().is_empty() {
                        entry.remove();
                    }
                }
            }
            loop {
                let first = model.keys().next().copied();
                prop_assert_eq!(q.peek_time().map(SimTime::as_picos), first);
                prop_assert_eq!(q.len(), pending);
                let Some((pt, pi)) = q.pop() else { break };
                pending -= 1;
                let mut entry = model.first_entry().expect("model matches queue length");
                prop_assert_eq!(*entry.key(), pt.as_picos());
                prop_assert_eq!(pi, entry.get_mut().pop_front().expect("nonempty bucket"));
                if entry.get().is_empty() {
                    entry.remove();
                }
            }
            prop_assert!(model.is_empty(), "queue dropped events");
            Ok(())
        });
}

/// The pooled data path is byte-identical to a flat `Vec<u8>` reference
/// model under randomized interleavings of DRAM writes, pooled reads whose
/// handles stay live, clone aliasing, and releases (the buffer "GC" that
/// returns storage to the free list). A live handle must keep its snapshot
/// even as the pool recycles storage underneath.
#[test]
fn pooled_data_path_matches_vec_model() {
    const SPACE: usize = 4096;
    Property::new("pooled_data_path_matches_vec_model").run(
        (any::<u64>(), range(8usize..64)),
        |&(seed, nops)| {
            let mut rng = babol_sim::rng::SplitMix64::new(seed);
            let mut dram = Dram::new();
            let mut model = vec![0u8; SPACE];
            // Held pooled buffers with the contents they must still show.
            let mut held: Vec<(Vec<u8>, PageBuf)> = Vec::new();
            for _ in 0..nops {
                let addr = rng.next_below(SPACE as u64 - 128);
                let len = 1 + rng.next_below(127) as usize;
                match rng.next_below(4) {
                    0 | 1 => {
                        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                        dram.write(addr, &data);
                        model[addr as usize..addr as usize + len].copy_from_slice(&data);
                    }
                    2 => {
                        let buf = dram.read_buf(addr, len);
                        let want = model[addr as usize..addr as usize + len].to_vec();
                        prop_assert_eq!(buf.as_slice(), &want[..], "pooled read diverged");
                        if rng.next_below(2) == 0 {
                            held.push((want.clone(), buf.clone())); // alias
                        }
                        held.push((want, buf));
                    }
                    _ => {
                        if !held.is_empty() {
                            let idx = rng.next_below(held.len() as u64) as usize;
                            let (want, buf) = held.swap_remove(idx);
                            prop_assert_eq!(
                                buf.as_slice(),
                                &want[..],
                                "live handle corrupted by recycling"
                            );
                        }
                    }
                }
            }
            for (want, buf) in held.drain(..) {
                prop_assert_eq!(buf.as_slice(), &want[..]);
            }
            let stats = dram.pool().stats();
            prop_assert_eq!(stats.in_use, 0, "all buffers returned");
            prop_assert!(
                stats.allocs <= stats.high_water,
                "pool allocated beyond its high-water mark"
            );
            Ok(())
        },
    );
}

/// End-to-end pooled write path: after a GC-heavy random-write fio job,
/// every mapped logical page's flash contents are byte-identical to the
/// LPN-keyed reference pattern — relocations through pooled buffers lose
/// nothing.
#[test]
fn ssd_write_path_with_gc_matches_pattern_model() {
    use babol::factory::coro_controller;
    use babol::runtime::RuntimeConfig;
    use babol_channel::Channel;
    use babol_flash::array::ContentMode;
    use babol_flash::lun::LunConfig;
    use babol_flash::{Lun, PackageProfile};
    use babol_ftl::{FioWorkload, IoPattern, Ssd, SsdConfig};
    use babol_sim::{CostModel, Cpu};
    use babol_ufsm::EmitConfig;

    Property::new("ssd_write_path_with_gc_matches_pattern_model")
        .cases(8)
        .run(any::<u64>(), |&seed| {
            let luns = 2u32;
            let l = (0..luns)
                .map(|i| {
                    Lun::new(LunConfig {
                        profile: PackageProfile::test_tiny(),
                        content: ContentMode::Pristine,
                        seed: i as u64 + 1,
                        inject_errors: false,
                        require_init: false,
                    })
                })
                .collect();
            let mut sys = babol::system::System::new(
                Channel::new(l),
                EmitConfig::nv_ddr2(200),
                Cpu::new(Freq::from_ghz(1), CostModel::coroutine()),
            );
            let layout = PackageProfile::test_tiny().layout();
            let mut ctrl = coro_controller(layout, RuntimeConfig::coroutine());
            let mut ssd = Ssd::new(SsdConfig::tiny(luns));
            let wl = FioWorkload {
                pattern: IoPattern::RandomWrite,
                total_ios: 200,
                queue_depth: 2,
                seed,
            };
            let r = ssd.run(&mut sys, &mut ctrl, wl);
            prop_assert!(r.gc_cycles > 0, "workload must exercise GC");
            let page_size = 512usize;
            for lpn in 0..96u64 {
                let Some(ppn) = ssd.map().translate(lpn) else {
                    continue;
                };
                let page = sys
                    .channel
                    .lun(ppn.lun)
                    .array()
                    .read_page(RowAddr {
                        lun: ppn.lun,
                        block: ppn.block,
                        page: ppn.page,
                    })
                    .expect("mapped page readable");
                let expect: Vec<u8> = (0..page_size)
                    .map(|i| (lpn as u8).wrapping_add(i as u8))
                    .collect();
                prop_assert_eq!(&page[..page_size], &expect[..], "lpn {} diverged", lpn);
            }
            Ok(())
        });
}

/// Frequency/cycle math: cycles(a) + cycles(b) within rounding of
/// cycles(a+b) for any frequency.
#[test]
fn freq_cycles_are_nearly_additive() {
    Property::new("freq_cycles_are_nearly_additive").run(
        (
            range(1u64..4000),
            range(0u64..1_000_000),
            range(0u64..1_000_000),
        ),
        |&(mhz, a, b)| {
            let f = Freq::from_mhz(mhz);
            let sum = f.cycles(a) + f.cycles(b);
            let whole = f.cycles(a + b);
            let diff = sum.as_picos().abs_diff(whole.as_picos());
            prop_assert!(diff <= 1, "{diff} ps drift");
            Ok(())
        },
    );
}

/// `Freq::cycles` is exact — round(n · 10¹² / hz) computed in u128 — for
/// cycle counts up to 2·10¹², far past the ~1.8·10⁷ where a u64 product of
/// the remainder used to wrap. `Cpu::charge` agrees.
#[test]
fn freq_cycles_match_exact_reference() {
    use babol_sim::{CostModel, Cpu};
    Property::new("freq_cycles_match_exact_reference").run(
        (
            select(&[
                1_000_000_000u64,
                150_000_000,
                200_000_000,
                1_000_000,
                999_999_937,
            ]),
            range(1_000_000u64..4_000_000_000),
            range(0u64..100_000_000),
            range(0u64..2_000_000_000_000),
        ),
        |&(paper_hz, any_hz, n_mid, n_big)| {
            for hz in [paper_hz, any_hz] {
                let f = Freq::from_hz(hz);
                for n in [n_mid, n_big] {
                    let exact = (n as u128 * 1_000_000_000_000 + hz as u128 / 2) / hz as u128;
                    let got = f.cycles(n).as_picos();
                    prop_assert_eq!(got as u128, exact, "{} cycles at {} Hz", n, hz);
                    let mut cpu = Cpu::new(f, CostModel::free());
                    let charged = cpu.charge(SimTime::ZERO, n).as_picos();
                    prop_assert_eq!(charged, got, "charge({}) at {} Hz", n, hz);
                }
            }
            Ok(())
        },
    );
}

/// The reverse map rebuilt from `translate` alone: every mapped physical
/// page and the logical page it holds.
fn p2l_model(map: &PageMap) -> BTreeMap<Ppn, u64> {
    (0..map.logical_pages())
        .filter_map(|lpn| map.translate(lpn).map(|ppn| (ppn, lpn)))
        .collect()
}

/// The model's valid pages of one block, as `(lpn, ppn)` in page order.
fn model_moves(model: &BTreeMap<Ppn, u64>, lun: u32, block: u32) -> Vec<(u64, Ppn)> {
    let first = Ppn {
        lun,
        block,
        page: 0,
    };
    let last = Ppn {
        page: u32::MAX,
        ..first
    };
    model.range(first..=last).map(|(&p, &l)| (l, p)).collect()
}

/// `block_moves` agrees with the model on every block of the tiny map.
fn check_block_moves(map: &PageMap) -> Result<(), String> {
    let model = p2l_model(map);
    for lun in 0..2 {
        for block in 0..8 {
            prop_assert_eq!(
                map.block_moves(lun, block),
                model_moves(&model, lun, block),
                "block_moves({lun}, {block}) disagrees with the inverted L2P"
            );
        }
    }
    Ok(())
}

/// The FTL map never double-maps a physical page and keeps the L2P and
/// P2L views consistent under arbitrary write/overwrite streams. The P2L
/// view is private, so it is checked differentially: a model rebuilt by
/// inverting `translate` after every step must agree with every GC plan's
/// moves and with `block_moves` on every block, also once blocks retire.
#[test]
fn ftl_map_consistency() {
    Property::new("ftl_map_consistency").run(
        (
            range(0u32..2),
            range(0u32..8),
            vec_of(range(0u64..96), 1..120),
        ),
        |&(bad_lun, bad_block, ref writes)| {
            let mut map = PageMap::new(Geometry::tiny(), 2, 96);
            for &lpn in writes {
                // Collect when needed, like the SSD driver does.
                for lun in 0..2 {
                    while map.needs_gc(lun) {
                        let Some(plan) = map.plan_gc(lun) else { break };
                        let model = p2l_model(&map);
                        prop_assert_eq!(
                            plan.moves,
                            model_moves(&model, lun, plan.victim.block),
                            "GC plan for {:?} disagrees with the inverted L2P",
                            plan.victim
                        );
                        for (mlpn, old) in &plan.moves {
                            let target = map.best_relocation_lun(old.lun);
                            map.allocate_on_lun(*mlpn, target);
                        }
                        map.finish_gc(plan.victim);
                        check_block_moves(&map)?;
                    }
                }
                map.allocate_for_write(lpn);
                check_block_moves(&map)?;
            }
            // Every distinct written LPN resolves, and all PPNs are unique.
            for &lpn in writes {
                prop_assert!(
                    map.translate(lpn).is_some(),
                    "written LPN {lpn} must resolve"
                );
            }
            let mut ppns = std::collections::BTreeSet::new();
            for lpn in 0..96 {
                if let Some(ppn) = map.translate(lpn) {
                    prop_assert!(ppns.insert(ppn), "PPN {ppn:?} double-mapped");
                }
            }
            // Retire an arbitrary block (free, active or full): its pages
            // stay mapped and listed until they are evacuated, and the
            // evacuation drains it.
            map.retire_block(bad_lun, bad_block);
            check_block_moves(&map)?;
            let target = map.best_relocation_lun(bad_lun);
            if map.free_blocks(target) > 0 {
                for (mlpn, _) in map.block_moves(bad_lun, bad_block) {
                    map.allocate_on_lun(mlpn, target);
                }
                prop_assert!(map.block_moves(bad_lun, bad_block).is_empty());
                check_block_moves(&map)?;
            }
            Ok(())
        },
    );
}

/// Differential test of the wear-leveling and bad-block half of the map
/// against a trivial model: a `BTreeMap` of per-block erase counts and a
/// `BTreeSet` of retired blocks, maintained by the test alongside every
/// GC decision. The map must agree on block states, erase counts, and
/// usable capacity, and must never leave a logical page mapped onto a
/// retired block.
#[test]
fn ftl_wear_and_retirement_matches_model() {
    use babol_ftl::BlockState;
    use std::collections::{BTreeMap, BTreeSet};
    Property::new("ftl_wear_and_retirement_matches_model").run(
        (any::<u64>(), vec_of(range(0u64..48), 1..150)),
        |(seed, writes)| {
            let mut map = PageMap::new(Geometry::tiny(), 2, 96);
            let mut rng = babol_sim::rng::SplitMix64::new(*seed);
            let mut erases: BTreeMap<(u32, u32), u32> = BTreeMap::new();
            let mut retired: BTreeSet<(u32, u32)> = BTreeSet::new();
            for &lpn in writes {
                for lun in 0..2u32 {
                    let mut guard = 0;
                    while map.needs_gc(lun) {
                        let Some(plan) = map.plan_gc(lun) else { break };
                        for (mlpn, old) in &plan.moves {
                            let target = map.best_relocation_lun(old.lun);
                            map.allocate_on_lun(*mlpn, target);
                        }
                        let b = (plan.victim.lun, plan.victim.block);
                        // Occasionally the erase "fails" and the block is
                        // retired — capped at two device-wide so the stream
                        // never runs the 48 logical pages out of room.
                        if rng.next_below(8) == 0 && retired.len() < 2 {
                            map.retire_block(b.0, b.1);
                            retired.insert(b);
                        } else {
                            map.finish_gc(plan.victim);
                            *erases.entry(b).or_insert(0) += 1;
                        }
                        guard += 1;
                        prop_assert!(guard < 64, "GC failed to converge");
                    }
                }
                map.allocate_for_write(lpn);
            }
            for lun in 0..2u32 {
                for block in 0..8u32 {
                    let b = (lun, block);
                    prop_assert_eq!(
                        map.block_state(lun, block) == BlockState::Retired,
                        retired.contains(&b),
                        "retirement state of {:?} diverged",
                        b
                    );
                    prop_assert_eq!(
                        map.erase_count(lun, block),
                        erases.get(&b).copied().unwrap_or(0),
                        "erase count of {:?} diverged",
                        b
                    );
                }
            }
            prop_assert_eq!(map.usable_pages(), 128 - 8 * retired.len() as u64);
            let mut ppns = BTreeSet::new();
            for lpn in 0..96 {
                if let Some(ppn) = map.translate(lpn) {
                    prop_assert!(
                        !retired.contains(&(ppn.lun, ppn.block)),
                        "lpn {} mapped onto retired block {:?}",
                        lpn,
                        ppn
                    );
                    prop_assert!(ppns.insert(ppn), "PPN {:?} double-mapped", ppn);
                }
            }
            Ok(())
        },
    );
}

/// Differential test of the write-back cache against a trivial model: a
/// `BTreeMap<lpn, dirty>` plus the slot each resident page occupies. The
/// cache must agree on residency, dirtiness, slot stability, slot
/// uniqueness, eviction reports, and the final drain — under both
/// eviction policies.
#[test]
fn write_cache_matches_model() {
    use babol_ftl::{CachePolicy, WriteCache};
    use std::collections::{BTreeMap, BTreeSet};
    Property::new("write_cache_matches_model").run(
        (
            any::<u64>(),
            range(1usize..9),
            select(&[CachePolicy::Lru, CachePolicy::CleanFirstLru]),
            vec_of(range(0u64..24), 4..120),
        ),
        |(seed, cap, policy, lpns)| {
            let mut c = WriteCache::new(*cap, *policy);
            let mut rng = babol_sim::rng::SplitMix64::new(*seed);
            let mut model: BTreeMap<u64, bool> = BTreeMap::new();
            let mut slots: BTreeMap<u64, u32> = BTreeMap::new();
            for &lpn in lpns {
                if rng.next_below(3) < 2 {
                    // Host write.
                    let resident = model.contains_key(&lpn);
                    let full = model.len() == *cap;
                    let (slot, ev) = c.touch_write(lpn);
                    prop_assert!((slot as usize) < *cap, "slot out of range");
                    if resident {
                        prop_assert_eq!(ev, None, "hit must not evict");
                        prop_assert_eq!(slots[&lpn], slot, "hit must keep its slot");
                    } else if full {
                        let ev = ev.expect("miss on a full cache must evict");
                        prop_assert!(model.contains_key(&ev.lpn), "evicted a non-resident");
                        prop_assert_eq!(model[&ev.lpn], ev.dirty, "eviction dirtiness wrong");
                        prop_assert_eq!(slots[&ev.lpn], ev.slot, "eviction slot wrong");
                        prop_assert_eq!(ev.slot, slot, "incoming page must reuse the slot");
                        model.remove(&ev.lpn);
                        slots.remove(&ev.lpn);
                    } else {
                        prop_assert_eq!(ev, None, "eviction while slots were free");
                    }
                    model.insert(lpn, true);
                    slots.insert(lpn, slot);
                } else {
                    // Host read: flush needed iff a dirty copy is resident.
                    let want = model.get(&lpn) == Some(&true);
                    let got = c.flush_for_read(lpn);
                    prop_assert_eq!(got.is_some(), want, "coherence flush diverged");
                    if let Some(s) = got {
                        prop_assert_eq!(s, slots[&lpn]);
                    }
                    if let Some(d) = model.get_mut(&lpn) {
                        *d = false;
                    }
                }
                let unique: BTreeSet<u32> = slots.values().copied().collect();
                prop_assert_eq!(unique.len(), slots.len(), "slot handed out twice");
                prop_assert_eq!(c.len(), model.len());
                prop_assert_eq!(c.dirty_len(), model.values().filter(|d| **d).count());
            }
            let drained = c.drain_dirty();
            let want: Vec<(u64, u32)> = model
                .iter()
                .filter(|(_, d)| **d)
                .map(|(l, _)| (*l, slots[l]))
                .collect();
            prop_assert_eq!(drained, want, "drain must list the dirty set ascending");
            prop_assert_eq!(c.dirty_len(), 0);
            Ok(())
        },
    );
}

/// The write-back cache as it was before its eviction index: recency is a
/// sequence number and eviction scans every resident entry for the
/// smallest one. Kept verbatim as the reference for
/// `cache_lru_matches_reference_model`.
mod linear_scan_cache {
    use babol_ftl::{CachePolicy, Eviction};
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Copy)]
    struct CacheEntry {
        slot: u32,
        dirty: bool,
        seq: u64,
    }

    pub struct WriteCache {
        policy: CachePolicy,
        entries: BTreeMap<u64, CacheEntry>,
        free_slots: Vec<u32>,
        next_seq: u64,
        pub hits: u64,
        pub misses: u64,
        pub dirty_evicts: u64,
        pub flushes: u64,
    }

    impl WriteCache {
        pub fn new(capacity: usize, policy: CachePolicy) -> Self {
            WriteCache {
                policy,
                entries: BTreeMap::new(),
                free_slots: (0..capacity as u32).rev().collect(),
                next_seq: 0,
                hits: 0,
                misses: 0,
                dirty_evicts: 0,
                flushes: 0,
            }
        }

        pub fn len(&self) -> usize {
            self.entries.len()
        }

        pub fn dirty_len(&self) -> usize {
            self.entries.values().filter(|e| e.dirty).count()
        }

        pub fn touch_write(&mut self, lpn: u64) -> (u32, Option<Eviction>) {
            let seq = self.next_seq;
            self.next_seq += 1;
            if let Some(e) = self.entries.get_mut(&lpn) {
                e.dirty = true;
                e.seq = seq;
                self.hits += 1;
                return (e.slot, None);
            }
            self.misses += 1;
            let (slot, evicted) = match self.free_slots.pop() {
                Some(slot) => (slot, None),
                None => {
                    let ev = self.evict();
                    (ev.slot, Some(ev))
                }
            };
            self.entries.insert(
                lpn,
                CacheEntry {
                    slot,
                    dirty: true,
                    seq,
                },
            );
            (slot, evicted)
        }

        pub fn flush_for_read(&mut self, lpn: u64) -> Option<u32> {
            let e = self.entries.get_mut(&lpn)?;
            e.seq = self.next_seq;
            self.next_seq += 1;
            if !e.dirty {
                return None;
            }
            e.dirty = false;
            self.hits += 1;
            self.flushes += 1;
            Some(e.slot)
        }

        pub fn drain_dirty(&mut self) -> Vec<(u64, u32)> {
            let mut out = Vec::new();
            for (&lpn, e) in self.entries.iter_mut() {
                if e.dirty {
                    e.dirty = false;
                    out.push((lpn, e.slot));
                }
            }
            self.flushes += out.len() as u64;
            out
        }

        fn evict(&mut self) -> Eviction {
            let pick_min_seq = |pred: &dyn Fn(&CacheEntry) -> bool| {
                self.entries
                    .iter()
                    .filter(|(_, e)| pred(e))
                    .min_by_key(|(_, e)| e.seq)
                    .map(|(&lpn, _)| lpn)
            };
            let lpn = match self.policy {
                CachePolicy::Lru => pick_min_seq(&|_| true),
                CachePolicy::CleanFirstLru => {
                    pick_min_seq(&|e| !e.dirty).or_else(|| pick_min_seq(&|_| true))
                }
            }
            .expect("evict called on an empty cache");
            let e = self.entries.remove(&lpn).expect("victim vanished");
            if e.dirty {
                self.dirty_evicts += 1;
            }
            Eviction {
                lpn,
                slot: e.slot,
                dirty: e.dirty,
            }
        }
    }
}

/// Differential test of the indexed write-back cache against the
/// linear-scan reference: random interleavings of host writes, read
/// flushes and end-of-job drains, under both policies and capacities
/// 1–16 over a small LPN space (so hits, clean evictions and dirty
/// evictions all occur). Every return value, `len`, `dirty_len` and all
/// four counters agree after every step — the index picks exactly the
/// victim the scan picked.
#[test]
fn cache_lru_matches_reference_model() {
    use babol_ftl::{CachePolicy, WriteCache};
    Property::new("cache_lru_matches_reference_model").run(
        (
            any::<u64>(),
            range_incl(1usize..=16),
            select(&[CachePolicy::Lru, CachePolicy::CleanFirstLru]),
            vec_of(range(0u64..24), 1..300),
        ),
        |(seed, cap, policy, lpns)| {
            let mut c = WriteCache::new(*cap, *policy);
            let mut r = linear_scan_cache::WriteCache::new(*cap, *policy);
            let mut rng = babol_sim::rng::SplitMix64::new(*seed);
            for (step, &lpn) in lpns.iter().enumerate() {
                match rng.next_below(32) {
                    0 => prop_assert_eq!(c.drain_dirty(), r.drain_dirty(), "drain, step {}", step),
                    1..=10 => prop_assert_eq!(
                        c.flush_for_read(lpn),
                        r.flush_for_read(lpn),
                        "read {}, step {}",
                        lpn,
                        step
                    ),
                    _ => prop_assert_eq!(
                        c.touch_write(lpn),
                        r.touch_write(lpn),
                        "write {}, step {}",
                        lpn,
                        step
                    ),
                }
                prop_assert_eq!(c.len(), r.len(), "len, step {}", step);
                prop_assert_eq!(c.dirty_len(), r.dirty_len(), "dirty_len, step {}", step);
                prop_assert_eq!(
                    (c.hits(), c.misses(), c.dirty_evicts(), c.flushes()),
                    (r.hits, r.misses, r.dirty_evicts, r.flushes),
                    "counters, step {}",
                    step
                );
            }
            Ok(())
        },
    );
}

/// End-to-end cache coherence: with a write-back cache of arbitrary
/// capacity in front of the same GC-heavy random-write job, a final flush
/// leaves flash byte-identical to the reference pattern for every mapped
/// page — dirty evictions, coherence flushes, and the end-of-job drain
/// lose nothing.
#[test]
fn cached_ssd_write_path_matches_pattern_model() {
    use babol::factory::coro_controller;
    use babol::runtime::RuntimeConfig;
    use babol_channel::Channel;
    use babol_flash::array::ContentMode;
    use babol_flash::lun::LunConfig;
    use babol_flash::{Lun, PackageProfile};
    use babol_ftl::{FioWorkload, IoPattern, Ssd, SsdConfig};
    use babol_sim::{CostModel, Cpu};
    use babol_ufsm::EmitConfig;

    Property::new("cached_ssd_write_path_matches_pattern_model")
        .cases(8)
        .run((any::<u64>(), range(1usize..32)), |&(seed, cache_pages)| {
            let luns = 2u32;
            let l = (0..luns)
                .map(|i| {
                    Lun::new(LunConfig {
                        profile: PackageProfile::test_tiny(),
                        content: ContentMode::Pristine,
                        seed: i as u64 + 1,
                        inject_errors: false,
                        require_init: false,
                    })
                })
                .collect();
            let mut sys = babol::system::System::new(
                Channel::new(l),
                EmitConfig::nv_ddr2(200),
                Cpu::new(Freq::from_ghz(1), CostModel::coroutine()),
            );
            let layout = PackageProfile::test_tiny().layout();
            let mut ctrl = coro_controller(layout, RuntimeConfig::coroutine());
            let mut cfg = SsdConfig::tiny(luns);
            cfg.cache_pages = cache_pages;
            let mut ssd = Ssd::new(cfg);
            let wl = FioWorkload {
                pattern: IoPattern::RandomWrite,
                total_ios: 200,
                queue_depth: 2,
                seed,
            };
            let r = ssd.run(&mut sys, &mut ctrl, wl);
            prop_assert_eq!(r.ios, 200);
            ssd.flush_cache(&mut sys, &mut ctrl);
            prop_assert_eq!(ssd.cache().dirty_len(), 0, "flush left dirt behind");
            let page_size = 512usize;
            for lpn in 0..96u64 {
                let Some(ppn) = ssd.map().translate(lpn) else {
                    continue;
                };
                let page = sys
                    .channel
                    .lun(ppn.lun)
                    .array()
                    .read_page(RowAddr {
                        lun: ppn.lun,
                        block: ppn.block,
                        page: ppn.page,
                    })
                    .expect("mapped page readable");
                let expect: Vec<u8> = (0..page_size)
                    .map(|i| (lpn as u8).wrapping_add(i as u8))
                    .collect();
                prop_assert_eq!(&page[..page_size], &expect[..], "lpn {} diverged", lpn);
            }
            Ok(())
        });
}

/// Parameter pages survive serialization for arbitrary field values.
#[test]
fn param_page_roundtrip() {
    Property::new("param_page_roundtrip").run(
        (
            range(512u32..65536),
            range(0u16..4096),
            range(1u32..1024),
            range(1u32..16384),
            range(1u8..8),
            range(1u16..1600),
        ),
        |&(page_size, spare, ppb, bpl, luns, mts)| {
            let p = ParamPage {
                manufacturer: "PROP".into(),
                model: "TEST".into(),
                page_size,
                spare_size: spare,
                pages_per_block: ppb,
                blocks_per_lun: bpl,
                luns,
                nv_ddr2_modes: 0x3F,
                max_mts: mts,
            };
            prop_assert_eq!(ParamPage::from_bytes(&p.to_bytes()).unwrap(), p);
            Ok(())
        },
    );
}

/// Merging histograms is indistinguishable from recording every
/// observation into one histogram: same buckets, count, mean, max, and
/// percentiles, for any split of any observation set.
#[test]
fn histogram_merge_matches_direct_recording() {
    use babol_trace::Histogram;
    Property::new("histogram_merge_matches_direct_recording").run(
        (vec_of(any::<u64>(), 0..48), vec_of(any::<u64>(), 0..48)),
        |(xs, ys)| {
            let mut direct = Histogram::new();
            let mut left = Histogram::new();
            let mut right = Histogram::new();
            for &ps in xs {
                direct.record(SimDuration::from_picos(ps));
                left.record(SimDuration::from_picos(ps));
            }
            for &ps in ys {
                direct.record(SimDuration::from_picos(ps));
                right.record(SimDuration::from_picos(ps));
            }
            left.merge(&right);
            prop_assert_eq!(left.buckets(), direct.buckets());
            prop_assert_eq!(left.count(), direct.count());
            prop_assert_eq!(left.mean(), direct.mean());
            prop_assert_eq!(left.max(), direct.max());
            for p in [50.0, 95.0, 99.0, 100.0] {
                prop_assert_eq!(left.percentile(p), direct.percentile(p));
            }
            Ok(())
        },
    );
}

/// Windowed telemetry loses nothing to windowing: for any observation
/// stream and any window length, the per-window latency histograms merged
/// back together are indistinguishable from recording every observation
/// into one whole-run histogram, and the per-window op counts sum to the
/// stream length.
#[test]
fn metrics_windows_merge_to_whole_run_histogram() {
    use babol_trace::{Histogram, MetricsHub};
    Property::new("metrics_windows_merge_to_whole_run_histogram").run(
        (
            select(&[1_000u64, 7_000, 52_429, 1_000_000]),
            vec_of((range(0u64..5_000_000), any::<u64>()), 0..64),
        ),
        |(window_ps, obs)| {
            let mut hub = MetricsHub::new(SimDuration::from_picos(*window_ps));
            let mut direct = Histogram::new();
            for &(at, lat) in obs {
                hub.observe_latency(SimTime::from_picos(at), SimDuration::from_picos(lat));
                direct.record(SimDuration::from_picos(lat));
            }
            let merged = hub.merged_latency();
            prop_assert_eq!(merged.buckets(), direct.buckets());
            prop_assert_eq!(merged.count(), direct.count());
            prop_assert_eq!(merged.mean(), direct.mean());
            prop_assert_eq!(merged.max(), direct.max());
            for p in [50.0, 95.0, 99.0, 100.0] {
                prop_assert_eq!(merged.percentile(p), direct.percentile(p));
            }
            prop_assert_eq!(hub.frames().map(|f| f.ops).sum::<u64>(), obs.len() as u64);
            Ok(())
        },
    );
}

/// Frame boundaries partition sim time exactly: every observation lands
/// in the one frame whose `[start, end)` contains it, the frame series is
/// index-contiguous with `floor(last/W) + 1` entries, and counter deltas
/// attributed per window telescope back to the stream total.
#[test]
fn metrics_frames_partition_sim_time_exactly() {
    use babol_trace::{MetricsHub, MetricsSnapshot};
    use std::collections::BTreeMap;
    Property::new("metrics_frames_partition_sim_time_exactly").run(
        (
            select(&[1_000u64, 7_000, 52_429, 1_000_000]),
            vec_of((range(0u64..5_000_000), range(0u64..1_000)), 1..48),
        ),
        |(window_ps, steps)| {
            let w = *window_ps;
            let window = SimDuration::from_picos(w);
            let mut hub = MetricsHub::new(window);
            hub.prime(&MetricsSnapshot::default());
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut total = 0u64;
            for &(at, delta) in steps {
                let t = SimTime::from_picos(at);
                prop_assert_eq!(t.window_index(window), at / w);
                hub.note_op(t);
                *model.entry(at / w).or_insert(0) += 1;
                total += delta;
                hub.sample(
                    t,
                    &MetricsSnapshot {
                        energy_pj: total,
                        ..MetricsSnapshot::default()
                    },
                );
            }
            let frames: Vec<_> = hub.frames().collect();
            let last = steps.iter().map(|&(at, _)| at).max().unwrap();
            prop_assert_eq!(frames.len() as u64, last / w + 1);
            for (i, f) in frames.iter().enumerate() {
                prop_assert_eq!(f.index, i as u64, "frames must be index-contiguous");
                prop_assert_eq!(f.start(window).as_picos(), i as u64 * w);
                prop_assert_eq!(f.end(window).as_picos(), (i as u64 + 1) * w);
                prop_assert_eq!(
                    f.ops,
                    model.get(&f.index).copied().unwrap_or(0),
                    "ops landed outside their window"
                );
            }
            // Every observation is inside its frame's half-open span.
            for &(at, _) in steps {
                let f = &frames[(at / w) as usize];
                prop_assert!(f.start(window).as_picos() <= at && at < f.end(window).as_picos());
            }
            prop_assert_eq!(frames.iter().map(|f| f.energy_pj).sum::<u64>(), total);
            Ok(())
        },
    );
}

/// The frame store the metrics hub used before its column lanes: one
/// `MetricsFrame` struct per window in a `Vec`, grown on demand. It is the
/// reference model for `metrics_hub_lanes_match_frame_vector_model`.
mod frame_vec_hub {
    use babol_sim::{SimDuration, SimTime};
    use babol_trace::{Histogram, MetricsFrame, MetricsSnapshot};

    pub struct FrameVecHub {
        pub window_ps: u64,
        pub end_ps: u64,
        pub frames: Vec<MetricsFrame>,
        primed: bool,
        base: MetricsSnapshot,
    }

    impl FrameVecHub {
        pub fn new(window_ps: u64) -> Self {
            FrameVecHub {
                window_ps,
                end_ps: 0,
                frames: Vec::new(),
                primed: false,
                base: MetricsSnapshot::default(),
            }
        }

        fn frame_at(&mut self, at: SimTime) -> &mut MetricsFrame {
            let at_ps = at.as_picos();
            let idx = (at_ps / self.window_ps) as usize;
            while self.frames.len() <= idx {
                let mut frame = MetricsFrame::default();
                frame.index = self.frames.len() as u64;
                self.frames.push(frame);
            }
            self.end_ps = self.end_ps.max(at_ps);
            &mut self.frames[idx]
        }

        pub fn prime(&mut self, snap: &MetricsSnapshot) {
            if !self.primed {
                self.base = *snap;
                self.primed = true;
            }
        }

        pub fn sample(&mut self, now: SimTime, snap: &MetricsSnapshot) {
            self.prime(snap);
            let base = self.base;
            let f = self.frame_at(now);
            f.cache_hits += snap.cache_hits - base.cache_hits;
            f.cache_misses += snap.cache_misses - base.cache_misses;
            f.cache_dirty_evicts += snap.cache_dirty_evicts - base.cache_dirty_evicts;
            f.gc_cycles += snap.gc_cycles - base.gc_cycles;
            f.energy_pj += snap.energy_pj - base.energy_pj;
            f.wear_migrations += snap.wear_migrations - base.wear_migrations;
            f.blocks_retired += snap.blocks_retired - base.blocks_retired;
            f.queue_depth = snap.queue_depth;
            f.cache_dirty = snap.cache_dirty;
            f.cache_len = snap.cache_len;
            f.free_blocks = snap.free_blocks;
            f.wear_spread = snap.wear_spread;
            self.base = *snap;
        }

        pub fn observe_latency(&mut self, at: SimTime, latency: SimDuration) {
            let f = self.frame_at(at);
            f.ops += 1;
            f.record_latency(latency);
        }

        pub fn note_op(&mut self, at: SimTime) {
            self.frame_at(at).ops += 1;
        }

        pub fn touch(&mut self, at: SimTime) {
            self.frame_at(at);
        }

        pub fn merged_latency(&self) -> Histogram {
            let mut h = Histogram::new();
            for f in &self.frames {
                h.merge(f.lat());
            }
            h
        }
    }
}

/// The column-lane hub is exact: driven by the same random stream of
/// `note_op`, `observe_latency`, `sample`, `touch` and `prime` calls as a
/// `Vec<MetricsFrame>` model, it materialises identical frames, merges to
/// an identical histogram and exports identical `babol-metrics-v1` bytes.
/// The stream lands in random (so mostly out-of-order) windows, draws
/// values at every lane width boundary, and ends with two `u64::MAX`
/// latencies in window 0, whose sum only a u128 cell holds.
#[test]
fn metrics_hub_lanes_match_frame_vector_model() {
    use babol_trace::{MetricsHub, MetricsSeries, MetricsSnapshot};
    use frame_vec_hub::FrameVecHub;
    const EDGES: [u64; 10] = [
        0,
        1,
        255,
        256,
        65_535,
        65_536,
        4_294_967_295,
        4_294_967_296,
        u64::MAX - 1,
        u64::MAX,
    ];
    Property::new("metrics_hub_lanes_match_frame_vector_model").run(
        (
            select(&[1_000u64, 7_000, 52_429, 1_000_000]),
            vec_of(
                (
                    range(0u8..5),
                    range(0u64..2_000_000),
                    select(&EDGES),
                    any::<u64>(),
                ),
                0..96,
            ),
        ),
        |(window_ps, steps)| {
            let mut hub = MetricsHub::new(SimDuration::from_picos(*window_ps));
            let mut model = FrameVecHub::new(*window_ps);
            let mut snap = MetricsSnapshot::default();
            let epilogue = [
                (1u8, 0u64, u64::MAX, 0u64),
                (1, 0, u64::MAX, 0),
                (2, 0, 1, 0),
            ];
            for &(kind, at_ps, edge, raw) in steps.iter().chain(&epilogue) {
                let at = SimTime::from_picos(at_ps);
                match kind {
                    0 => {
                        hub.note_op(at);
                        model.note_op(at);
                    }
                    1 => {
                        let lat = SimDuration::from_picos(if raw % 3 == 2 { raw } else { edge });
                        hub.observe_latency(at, lat);
                        model.observe_latency(at, lat);
                    }
                    2 => {
                        // Counters are cumulative, so deltas stay small
                        // enough (< 2^40) to never overflow a u64 total;
                        // gauges take the edge value truncated to u32.
                        let delta = edge & ((1 << 40) - 1);
                        let counters = [
                            &mut snap.cache_hits,
                            &mut snap.cache_misses,
                            &mut snap.cache_dirty_evicts,
                            &mut snap.gc_cycles,
                            &mut snap.energy_pj,
                            &mut snap.wear_migrations,
                            &mut snap.blocks_retired,
                        ];
                        let n = counters.len() as u64;
                        for (k, c) in counters.into_iter().enumerate() {
                            if raw % n == k as u64 || raw % 2 == 0 {
                                *c += delta;
                            }
                        }
                        let gauges = [
                            &mut snap.queue_depth,
                            &mut snap.cache_dirty,
                            &mut snap.cache_len,
                            &mut snap.free_blocks,
                            &mut snap.wear_spread,
                        ];
                        let g = (raw / n) as usize % gauges.len();
                        for (k, v) in gauges.into_iter().enumerate() {
                            if k == g || raw % 5 == 0 {
                                *v = edge as u32;
                            }
                        }
                        hub.sample(at, &snap);
                        model.sample(at, &snap);
                    }
                    3 => {
                        hub.touch(at);
                        model.touch(at);
                    }
                    _ => {
                        hub.prime(&snap);
                        model.prime(&snap);
                    }
                }
            }
            prop_assert_eq!(hub.frame_count(), model.frames.len());
            prop_assert_eq!(hub.end_ps(), model.end_ps);
            for (f, m) in hub.frames().zip(&model.frames) {
                prop_assert_eq!(format!("{f:?}"), format!("{m:?}"), "frame {}", m.index);
            }
            prop_assert_eq!(
                format!("{:?}", hub.merged_latency()),
                format!("{:?}", model.merged_latency())
            );
            prop_assert!(hub.merged_latency().sum_ps() > u128::from(u64::MAX));
            let reference = MetricsSeries {
                window_ps: model.window_ps,
                shards: 1,
                end_ps: model.end_ps,
                device: model.frames.clone(),
                per_shard: Vec::new(),
            };
            prop_assert_eq!(
                MetricsSeries::from_hub(&hub).to_json_lines(&[]),
                reference.to_json_lines(&[])
            );
            Ok(())
        },
    );
}

/// Durations format and never panic across magnitudes.
#[test]
fn duration_display_total() {
    Property::new("duration_display_total").run(any::<u64>(), |&ps| {
        let _ = SimDuration::from_picos(ps % (u64::MAX / 2)).to_string();
        Ok(())
    });
}
