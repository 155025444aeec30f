//! Write-back DRAM cache in front of the FTL write path.
//!
//! A real controller batches host writes in controller DRAM and programs
//! flash lazily; the paper's Cosmos+ platform dedicates most of its 1 GB
//! DRAM to exactly this. The cache here is the bookkeeping half: which
//! logical pages are resident, which slots hold them, and which are dirty.
//! The driver ([`crate::ssd`]) owns the data movement — it stages host
//! data into the slot's DRAM region and programs flash when this module
//! reports an eviction or a coherence flush.
//!
//! Coherence rules (asserted by the cache property tests):
//!
//! * Every host write is absorbed: the page becomes resident and dirty,
//!   and flash is programmed only when the dirty page is evicted (or
//!   flushed for a read).
//! * Reads are served from flash, so a read of a **dirty** resident page
//!   first flushes it (program + mark clean) — flash stays authoritative
//!   for all reads.
//! * Eviction picks the least-recently-used entry ([`CachePolicy::Lru`]),
//!   or prefers clean entries — which need no flash program — falling back
//!   to LRU among dirty ones ([`CachePolicy::CleanFirstLru`]).
//!
//! Determinism: recency is the order of an intrusive list and the
//! resident set is a `BTreeMap`, so eviction choice is a pure function of
//! the access history (the workspace determinism lint bans unordered hash
//! collections here for exactly this reason).
//!
//! Host cost: every operation except [`WriteCache::drain_dirty`] is one
//! `BTreeMap` lookup plus O(1) list surgery. Recency lives in two
//! slot-indexed doubly linked lists — every resident slot from least to
//! most recently used, and (for [`CachePolicy::CleanFirstLru`] only) the
//! clean slots in the same order — so finding a victim never scans the
//! resident set, and a running dirty count makes [`WriteCache::dirty_len`]
//! O(1).

use std::collections::BTreeMap;

/// Eviction policy for a full cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Evict the least-recently-used entry, dirty or not.
    Lru,
    /// Evict the least-recently-used **clean** entry (free — no flash
    /// program needed); only when everything is dirty, fall back to LRU.
    CleanFirstLru,
}

/// An entry pushed out to make room, which the driver must act on before
/// reusing the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The logical page evicted.
    pub lpn: u64,
    /// The DRAM slot it occupied (reused by the incoming page).
    pub slot: u32,
    /// Whether the slot holds data newer than flash — if so, the driver
    /// must program flash from the slot before overwriting it.
    pub dirty: bool,
}

/// Link value for "no slot".
const NIL: u32 = u32::MAX;

/// A doubly linked list threaded through dense per-slot link arrays, oldest
/// at the head. A slot is on the list at most once; the caller tracks
/// membership.
#[derive(Debug, Clone)]
struct SlotList {
    head: u32,
    tail: u32,
    prev: Vec<u32>,
    next: Vec<u32>,
}

impl SlotList {
    fn new(capacity: usize) -> Self {
        SlotList {
            head: NIL,
            tail: NIL,
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
        }
    }

    fn front(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    fn push_back(&mut self, slot: u32) {
        let s = slot as usize;
        self.prev[s] = self.tail;
        self.next[s] = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.next[t as usize] = slot,
        }
        self.tail = slot;
    }

    fn unlink(&mut self, slot: u32) {
        let s = slot as usize;
        let (p, n) = (self.prev[s], self.next[s]);
        match p {
            NIL => self.head = n,
            p => self.next[p as usize] = n,
        }
        match n {
            NIL => self.tail = p,
            n => self.prev[n as usize] = p,
        }
    }

    fn clear(&mut self) {
        self.head = NIL;
        self.tail = NIL;
    }

    fn move_to_back(&mut self, slot: u32) {
        if self.tail != slot {
            self.unlink(slot);
            self.push_back(slot);
        }
    }
}

/// Write-back cache bookkeeping: resident set, slot assignment, recency,
/// dirtiness, and hit/miss/eviction counters.
#[derive(Debug, Clone)]
pub struct WriteCache {
    capacity: usize,
    /// Resident pages: LPN → slot.
    entries: BTreeMap<u64, u32>,
    free_slots: Vec<u32>,
    /// Per slot: the resident LPN (meaningful only while resident).
    slot_lpn: Vec<u64>,
    /// Per slot: whether the resident page is newer than flash.
    slot_dirty: Vec<bool>,
    dirty_count: usize,
    /// Every resident slot, least recently used first.
    lru: SlotList,
    /// The clean resident slots, least recently used first; kept only
    /// under [`CachePolicy::CleanFirstLru`], whose victim is its head.
    clean: Option<SlotList>,
    hits: u64,
    misses: u64,
    dirty_evicts: u64,
    flushes: u64,
}

impl WriteCache {
    /// Builds a cache of `capacity` page slots (0 disables caching).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` does not fit the `u32` slot index.
    pub fn new(capacity: usize, policy: CachePolicy) -> Self {
        assert!(capacity < NIL as usize, "cache slots are u32");
        WriteCache {
            capacity,
            entries: BTreeMap::new(),
            // Hand slots out in ascending order.
            free_slots: (0..capacity as u32).rev().collect(),
            slot_lpn: vec![0; capacity],
            slot_dirty: vec![false; capacity],
            dirty_count: 0,
            lru: SlotList::new(capacity),
            clean: (policy == CachePolicy::CleanFirstLru).then(|| SlotList::new(capacity)),
            hits: 0,
            misses: 0,
            dirty_evicts: 0,
            flushes: 0,
        }
    }

    /// Whether the cache absorbs writes at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Resident pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resident pages whose data is newer than flash.
    pub fn dirty_len(&self) -> usize {
        self.dirty_count
    }

    /// Host writes absorbed while the page was already resident.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Host writes that claimed a fresh slot.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Evictions that had to program flash first.
    pub fn dirty_evicts(&self) -> u64 {
        self.dirty_evicts
    }

    /// Coherence flushes (dirty page programmed for a read).
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Absorbs a host write of `lpn`: the page becomes resident and dirty.
    /// Returns the slot the driver must stage the data into, plus the
    /// eviction (if the cache was full) the driver must handle **before**
    /// staging — a dirty eviction's slot still holds the old page's data.
    ///
    /// # Panics
    ///
    /// Panics if the cache is disabled (capacity 0).
    pub fn touch_write(&mut self, lpn: u64) -> (u32, Option<Eviction>) {
        assert!(self.is_enabled(), "touch_write on a disabled cache");
        if let Some(&slot) = self.entries.get(&lpn) {
            self.lru.move_to_back(slot);
            self.set_dirty(slot);
            self.hits += 1;
            return (slot, None);
        }
        self.misses += 1;
        let (slot, evicted) = match self.free_slots.pop() {
            Some(slot) => (slot, None),
            None => {
                let ev = self.evict();
                (ev.slot, Some(ev))
            }
        };
        self.entries.insert(lpn, slot);
        self.slot_lpn[slot as usize] = lpn;
        self.slot_dirty[slot as usize] = true;
        self.dirty_count += 1;
        self.lru.push_back(slot);
        (slot, evicted)
    }

    /// Coherence check for a host read of `lpn`: if a dirty copy is
    /// resident, marks it clean and returns its slot — the driver must
    /// program flash from that slot before reading, keeping flash
    /// authoritative. Clean hits and misses return `None` (flash already
    /// has the data). A hit refreshes recency.
    pub fn flush_for_read(&mut self, lpn: u64) -> Option<u32> {
        let slot = *self.entries.get(&lpn)?;
        self.lru.move_to_back(slot);
        if !self.slot_dirty[slot as usize] {
            // Now the most recent clean entry too.
            if let Some(clean) = &mut self.clean {
                clean.move_to_back(slot);
            }
            return None;
        }
        self.slot_dirty[slot as usize] = false;
        self.dirty_count -= 1;
        if let Some(clean) = &mut self.clean {
            clean.push_back(slot);
        }
        self.hits += 1;
        self.flushes += 1;
        Some(slot)
    }

    /// Removes every dirty entry's data obligation, returning `(lpn,
    /// slot)` pairs in ascending LPN order, each marked clean. The driver
    /// programs flash from each slot (end-of-job flush, shutdown).
    pub fn drain_dirty(&mut self) -> Vec<(u64, u32)> {
        let mut out = Vec::with_capacity(self.dirty_count);
        for (&lpn, &slot) in &self.entries {
            if self.slot_dirty[slot as usize] {
                self.slot_dirty[slot as usize] = false;
                out.push((lpn, slot));
            }
        }
        self.dirty_count = 0;
        self.flushes += out.len() as u64;
        // Everything resident is clean now, in plain recency order.
        if let Some(clean) = &mut self.clean {
            clean.clear();
            let mut at = self.lru.head;
            while at != NIL {
                clean.push_back(at);
                at = self.lru.next[at as usize];
            }
        }
        out
    }

    /// Marks a resident slot dirty, leaving the clean list if it was clean.
    fn set_dirty(&mut self, slot: u32) {
        if !self.slot_dirty[slot as usize] {
            self.slot_dirty[slot as usize] = true;
            self.dirty_count += 1;
            if let Some(clean) = &mut self.clean {
                clean.unlink(slot);
            }
        }
    }

    /// Picks and removes the policy's victim: the least recently used
    /// clean entry if clean entries are tracked and there is one, else the
    /// least recently used entry. Caller guarantees the cache is non-empty.
    fn evict(&mut self) -> Eviction {
        let slot = self
            .clean
            .as_ref()
            .and_then(SlotList::front)
            .or_else(|| self.lru.front())
            .expect("evict called on an empty cache");
        let lpn = self.slot_lpn[slot as usize];
        let dirty = self.slot_dirty[slot as usize];
        self.entries.remove(&lpn).expect("victim vanished");
        self.lru.unlink(slot);
        if dirty {
            self.dirty_count -= 1;
            self.dirty_evicts += 1;
        } else if let Some(clean) = &mut self.clean {
            clean.unlink(slot);
        }
        Eviction { lpn, slot, dirty }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_hit_and_miss() {
        let mut c = WriteCache::new(2, CachePolicy::Lru);
        assert!(c.is_enabled());
        let (s0, ev) = c.touch_write(10);
        assert_eq!(ev, None);
        let (s1, ev) = c.touch_write(20);
        assert_eq!(ev, None);
        assert_ne!(s0, s1);
        let (s, ev) = c.touch_write(10); // hit: same slot, no eviction
        assert_eq!((s, ev), (s0, None));
        assert_eq!((c.hits(), c.misses()), (1, 2));
        assert_eq!(c.dirty_len(), 2);
    }

    #[test]
    fn lru_evicts_oldest_and_reports_dirty() {
        let mut c = WriteCache::new(2, CachePolicy::Lru);
        let (s0, _) = c.touch_write(10);
        c.touch_write(20);
        c.touch_write(10); // refresh 10: 20 is now LRU
        let (_, ev) = c.touch_write(30);
        let ev = ev.expect("full cache must evict");
        assert_eq!(ev.lpn, 20);
        assert!(ev.dirty);
        assert_ne!(ev.slot, s0);
        assert_eq!(c.dirty_evicts(), 1);
    }

    #[test]
    fn clean_first_spares_dirty_entries() {
        let mut c = WriteCache::new(2, CachePolicy::CleanFirstLru);
        c.touch_write(10);
        c.touch_write(20);
        // Reading 10 flushes it clean; 20 stays dirty and is MRU-newer.
        assert!(c.flush_for_read(10).is_some());
        let (_, ev) = c.touch_write(30);
        let ev = ev.expect("full cache must evict");
        // LRU alone would pick 20 (older seq than refreshed 10)? No — 10
        // was refreshed by the read, so LRU would evict 20 (dirty). The
        // clean-first policy spares it and evicts clean 10 instead.
        assert_eq!(ev.lpn, 10);
        assert!(!ev.dirty);
        assert_eq!(c.dirty_evicts(), 0);
        // All dirty: falls back to LRU.
        let (_, ev) = c.touch_write(40);
        let ev = ev.expect("full cache must evict");
        assert_eq!(ev.lpn, 20);
        assert!(ev.dirty);
        assert_eq!(c.dirty_evicts(), 1);
    }

    #[test]
    fn read_flush_marks_clean_once() {
        let mut c = WriteCache::new(4, CachePolicy::Lru);
        let (slot, _) = c.touch_write(5);
        assert_eq!(c.flush_for_read(5), Some(slot));
        assert_eq!(c.flush_for_read(5), None, "second read needs no flush");
        assert_eq!(c.flush_for_read(99), None, "miss needs no flush");
        assert_eq!(c.flushes(), 1);
        assert_eq!(c.dirty_len(), 0);
    }

    #[test]
    fn drain_dirty_lists_ascending_and_cleans() {
        let mut c = WriteCache::new(4, CachePolicy::Lru);
        c.touch_write(30);
        c.touch_write(10);
        c.touch_write(20);
        assert!(c.flush_for_read(20).is_some());
        let drained = c.drain_dirty();
        let lpns: Vec<u64> = drained.iter().map(|&(l, _)| l).collect();
        assert_eq!(lpns, vec![10, 30]);
        assert_eq!(c.dirty_len(), 0);
        assert!(c.drain_dirty().is_empty());
    }

    #[test]
    fn disabled_cache_reports_disabled() {
        let c = WriteCache::new(0, CachePolicy::Lru);
        assert!(!c.is_enabled());
        assert!(c.is_empty());
    }
}
