//! Set-associative cache model and the private/shared hierarchy.
//!
//! Trace-based profiling (IBS/PEBS) reports, per sampled op, which level of
//! the hierarchy served the data. TMP only treats samples whose data source
//! is *beyond* the LLC as evidence of memory heat (§III-A: pages that hit in
//! cache gain little from migration), so the cache model is what gives the
//! trace profiler its selectivity. Geometry defaults approximate the paper's
//! Ryzen 5 3600X: 32 KiB 8-way L1D, 512 KiB 8-way private L2, and a 32 MiB
//! 16-way shared LLC, all with 64 B lines.

use crate::addr::{PhysAddr, LINE_SHIFT, PAGE_SHIFT};

/// Which level of the cache hierarchy served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheLevel {
    /// Served by the core-private L1 data cache.
    L1,
    /// Served by the core-private L2.
    L2,
    /// Served by the shared last-level cache.
    Llc,
    /// Missed the whole hierarchy: served by a memory tier.
    Memory,
}

/// Tag of a way that holds no line. Line numbers are physical addresses
/// shifted right by [`LINE_SHIFT`], so no real line can reach it.
const INVALID_TAG: u64 = u64::MAX;

/// Shift from a line number to its 4 KiB page, and lines per page.
const PAGE_LINE_SHIFT: u32 = PAGE_SHIFT - LINE_SHIFT;
const LINES_PER_PAGE: usize = 1 << PAGE_LINE_SHIFT;

/// One way of a set: 16 bytes, so an 8-way set spans two host cache lines.
///
/// `tag` is the cached line number, or [`INVALID_TAG`] when the way is
/// empty. `meta` packs the LRU stamp above the dirty bit
/// (`stamp << 1 | dirty`). Every probe and fill takes a fresh stamp, so the
/// stamps of a set's ways are distinct and the way with the smallest `meta`
/// is the least recently used one.
#[derive(Clone, Copy)]
struct Way {
    tag: u64,
    meta: u64,
}

const EMPTY_WAY: Way = Way {
    tag: INVALID_TAG,
    meta: 0,
};

impl Way {
    #[inline]
    fn dirty(self) -> bool {
        self.meta & 1 != 0
    }
}

/// Result of a single-level probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FillOutcome {
    /// A dirty victim line was written back (address of the victim line).
    pub writeback: Option<u64>,
}

/// One set-associative, write-back, write-allocate cache with true LRU.
///
/// Lines are tracked by *physical* line number in a flat array of 16-byte
/// ways, set after set. A migrating page changes physical address, so
/// [`Cache::invalidate_page_lines`] drops both of its frames' lines in one
/// pass (the copy leaves the new location cold, as on real hardware). A
/// page's 64 lines map to 64 consecutive sets, so the pass covers just
/// those sets, or the whole array when the cache has fewer than 64 sets.
pub struct Cache {
    name: &'static str,
    sets: usize,
    ways: usize,
    slots: Vec<Way>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache of `size_bytes` with `ways`-way associativity.
    pub fn new(name: &'static str, size_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0);
        let lines_total = (size_bytes >> LINE_SHIFT) as usize;
        assert!(lines_total >= ways, "{name}: size below one set");
        let sets = lines_total / ways;
        assert!(
            sets.is_power_of_two(),
            "{name}: set count must be a power of two"
        );
        Self {
            name,
            sets,
            ways,
            slots: vec![EMPTY_WAY; sets * ways],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Cache capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * (1 << LINE_SHIFT)
    }

    /// Human-readable identifier (diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let idx = (line as usize) & (self.sets - 1);
        let start = idx * self.ways;
        start..start + self.ways
    }

    /// Probe for `line`; on a hit, refresh LRU and (for stores) mark dirty.
    // tmprof-lint: allow(panic-reachability) — set_range masks the set index to sets - 1 and slices exactly `ways` ways
    pub fn probe(&mut self, line: u64, is_store: bool) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(line);
        if let Some(way) = self.slots[range].iter_mut().find(|w| w.tag == line) {
            way.meta = clock << 1 | (way.meta & 1) | u64::from(is_store);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Install `line` after a miss: into the first empty way, else over the
    /// least recently used one.
    // tmprof-lint: allow(panic-reachability) — set_range masks the set index to sets - 1 and slices exactly `ways` ways
    pub fn fill(&mut self, line: u64, is_store: bool) -> FillOutcome {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(line);
        let set = &mut self.slots[range];
        let way = if let Some(free) = set.iter_mut().find(|w| w.tag == INVALID_TAG) {
            free
        } else {
            // tmprof-lint: allow(panic-reachability) — ways >= 1 is validated at construction, so a set always has an LRU victim
            set.iter_mut().min_by_key(|w| w.meta).expect("ways > 0")
        };
        let writeback = (way.tag != INVALID_TAG && way.dirty()).then_some(way.tag);
        *way = Way {
            tag: line,
            meta: clock << 1 | u64::from(is_store),
        };
        FillOutcome { writeback }
    }

    /// Absorb a writeback from an inner cache level: if `line` is present,
    /// mark it dirty (no demand-stat or LRU update — writebacks are not
    /// demand traffic). Returns false when the line is absent and the
    /// writeback must continue outward.
    // tmprof-lint: allow(panic-reachability) — set_range masks the set index to sets - 1 and slices exactly `ways` ways
    pub fn writeback_touch(&mut self, line: u64) -> bool {
        let range = self.set_range(line);
        match self.slots[range].iter_mut().find(|w| w.tag == line) {
            Some(way) => {
                way.meta |= 1;
                true
            }
            None => false,
        }
    }

    /// Drop `line` if cached (coherence). Returns whether it was present
    /// and dirty.
    // tmprof-lint: allow(panic-reachability) — set_range masks the set index to sets - 1 and slices exactly `ways` ways
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let range = self.set_range(line);
        let way = self.slots[range].iter_mut().find(|w| w.tag == line)?;
        way.tag = INVALID_TAG;
        Some(way.dirty())
    }

    /// Drop every line of the physical page whose first line is
    /// `page_first_line` (used when a page migrates, so the new physical
    /// location starts cold, like hardware after a copy).
    ///
    /// One pass over the 64 consecutive sets the page maps to, or over the
    /// whole array when the cache has fewer sets than a page has lines.
    // tmprof-lint: allow(panic-reachability) — a page-aligned line masks to a set index that is a multiple of 64 below `sets` (itself a power of two >= 64), so the 64-set span ends at or before the array's end
    pub fn invalidate_page_lines(&mut self, page_first_line: u64) {
        debug_assert_eq!(page_first_line % LINES_PER_PAGE as u64, 0);
        let page = page_first_line >> PAGE_LINE_SHIFT;
        let span = if self.sets >= LINES_PER_PAGE {
            let first_set = (page_first_line as usize) & (self.sets - 1);
            first_set * self.ways..(first_set + LINES_PER_PAGE) * self.ways
        } else {
            0..self.slots.len()
        };
        // An empty way's tag shifts to 2^58 - 1, beyond any real page, and
        // clearing it again would be harmless anyway.
        for way in &mut self.slots[span] {
            if way.tag >> PAGE_LINE_SHIFT == page {
                way.tag = INVALID_TAG;
            }
        }
    }

    /// Number of valid lines (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|w| w.tag != INVALID_TAG).count()
    }

    /// Reset hit/miss counters (per-epoch accounting).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

/// Dirty victim lines displaced from the private levels by a fill; the
/// owner (the machine) routes them outward (L2 → LLC → memory).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrivateVictims {
    /// Dirty line evicted from L1 (next stop: L2).
    pub from_l1: Option<u64>,
    /// Dirty line evicted from L2 (next stop: LLC).
    pub from_l2: Option<u64>,
}

/// The private portion of the hierarchy owned by a single core.
pub struct PrivateCaches {
    pub l1d: Cache,
    pub l2: Cache,
}

impl PrivateCaches {
    /// Zen2-like core-private geometry.
    pub fn zen2() -> Self {
        Self {
            l1d: Cache::new("L1D", 32 << 10, 8),
            l2: Cache::new("L2", 512 << 10, 8),
        }
    }

    /// Run an access through L1 and L2. Returns the serving level if one of
    /// the private levels hit (`None` means the access must go to the LLC)
    /// plus any dirty victims the promotion displaced.
    pub fn probe(&mut self, pa: PhysAddr, is_store: bool) -> (Option<CacheLevel>, PrivateVictims) {
        let line = pa.line();
        if self.l1d.probe(line, is_store) {
            return (Some(CacheLevel::L1), PrivateVictims::default());
        }
        if self.l2.probe(line, is_store) {
            // Promote to L1 (inclusive-ish fill path). A dirty L1 victim
            // is absorbed by L2 directly (it is private and always
            // reachable), so nothing escapes here.
            let out = self.l1d.fill(line, is_store);
            if let Some(victim) = out.writeback {
                self.l2.writeback_touch(victim);
            }
            return (Some(CacheLevel::L2), PrivateVictims::default());
        }
        (None, PrivateVictims::default())
    }

    /// After the shared level (or memory) supplied the line, install it in
    /// both private levels, returning dirty victims for the owner to route
    /// outward.
    pub fn fill_through(&mut self, pa: PhysAddr, is_store: bool) -> PrivateVictims {
        let line = pa.line();
        let o2 = self.l2.fill(line, is_store);
        let o1 = self.l1d.fill(line, is_store);
        let mut victims = PrivateVictims {
            from_l1: None,
            from_l2: o2.writeback,
        };
        if let Some(v1) = o1.writeback {
            // Try to land the L1 victim in L2 first.
            if !self.l2.writeback_touch(v1) {
                victims.from_l1 = Some(v1);
            }
        }
        victims
    }

    /// Scrub all lines of a migrating page.
    pub fn scrub_page(&mut self, page_first_line: u64) {
        self.l1d.invalidate_page_lines(page_first_line);
        self.l2.invalidate_page_lines(page_first_line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_zen2() {
        let pc = PrivateCaches::zen2();
        assert_eq!(pc.l1d.size_bytes(), 32 << 10);
        assert_eq!(pc.l2.size_bytes(), 512 << 10);
        let llc = Cache::new("LLC", 32 << 20, 16);
        assert_eq!(llc.size_bytes(), 32 << 20);
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = Cache::new("t", 4 << 10, 4);
        assert!(!c.probe(100, false));
        c.fill(100, false);
        assert!(c.probe(100, false));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        // 2 ways, 1 set of interest: lines 0, sets, 2*sets map to set 0.
        let mut c = Cache::new("t", 2 * 64, 2); // 2 lines total, 1 set
        c.fill(0, false);
        c.fill(1, false);
        c.probe(0, false); // 1 becomes LRU
        let out = c.fill(2, false);
        assert_eq!(out.writeback, None);
        assert!(c.probe(0, false));
        assert!(!c.probe(1, false));
        assert!(c.probe(2, false));
    }

    #[test]
    fn dirty_victim_reports_writeback() {
        let mut c = Cache::new("t", 2 * 64, 2);
        c.fill(10, true); // dirty
        c.fill(11, false);
        c.probe(11, false); // 10 is LRU
        let out = c.fill(12, false);
        assert_eq!(out.writeback, Some(10));
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = Cache::new("t", 2 * 64, 2);
        c.fill(5, false);
        assert!(c.probe(5, true));
        assert_eq!(c.invalidate(5), Some(true));
    }

    #[test]
    fn invalidate_page_lines_clears_whole_page() {
        let mut c = Cache::new("t", 64 << 10, 8);
        // Page 3 occupies lines 3*64 .. 4*64.
        for l in (3 * 64)..(4 * 64) {
            c.fill(l, false);
        }
        assert_eq!(c.occupancy(), 64);
        c.invalidate_page_lines(3 * 64);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn page_scrub_on_small_cache_spares_neighbouring_pages() {
        // 8 sets x 24 ways: pages 2, 3 and 4 fill every way exactly, and
        // with fewer than 64 sets the scrub passes over the whole array.
        let mut c = Cache::new("t", 8 * 24 * 64, 24);
        for l in (2 * 64)..(5 * 64) {
            assert!(!c.probe(l, false));
            c.fill(l, false);
        }
        assert_eq!(c.occupancy(), 3 * 64);
        c.invalidate_page_lines(3 * 64);
        assert_eq!(c.occupancy(), 2 * 64);
        for l in (3 * 64)..(4 * 64) {
            assert_eq!(c.invalidate(l), None, "line {l} of the scrubbed page");
        }
        for l in ((2 * 64)..(3 * 64)).chain((4 * 64)..(5 * 64)) {
            assert!(c.probe(l, false), "line {l} of a neighbouring page");
        }
    }

    #[test]
    fn private_hierarchy_promotes_l2_hits() {
        let mut pc = PrivateCaches::zen2();
        let pa = PhysAddr(0x1000);
        assert_eq!(pc.probe(pa, false).0, None);
        pc.fill_through(pa, false);
        assert_eq!(pc.probe(pa, false).0, Some(CacheLevel::L1));
        // Evict from the 8-way L1 by filling 8 lines that conflict in its
        // 64-set index (stride 64 lines = 4096 B) but land in distinct sets
        // of the 1024-set L2, so the victim line survives in L2.
        for i in 1..=8u64 {
            pc.fill_through(PhysAddr(0x1000 + i * 4096), false);
        }
        assert_eq!(pc.probe(pa, false).0, Some(CacheLevel::L2));
        // And promoted back to L1 afterwards.
        assert_eq!(pc.probe(pa, false).0, Some(CacheLevel::L1));
    }

    #[test]
    fn dirty_l1_victim_is_absorbed_by_l2_on_promotion() {
        let mut pc = PrivateCaches::zen2();
        // Dirty a line, then evict it from L1 via conflicting fills.
        pc.fill_through(PhysAddr(0x1000), true);
        for i in 1..=8u64 {
            pc.fill_through(PhysAddr(0x1000 + i * 4096), false);
        }
        // The dirty line now lives (dirty) in L2 only.
        assert_eq!(pc.probe(PhysAddr(0x1000), false).0, Some(CacheLevel::L2));
        assert_eq!(pc.l2.invalidate(PhysAddr(0x1000).line()), Some(true));
    }

    #[test]
    fn writeback_touch_marks_dirty_without_stats() {
        let mut c = Cache::new("t", 4 << 10, 4);
        c.fill(10, false);
        let (h, m) = (c.hits(), c.misses());
        assert!(c.writeback_touch(10));
        assert!(!c.writeback_touch(11));
        assert_eq!((c.hits(), c.misses()), (h, m));
        assert_eq!(c.invalidate(10), Some(true));
    }

    #[test]
    fn capacity_misses_emerge_beyond_size() {
        // Working set 2x the cache: hit rate must be poor on re-scan.
        let mut c = Cache::new("t", 64 * 64, 4); // 64 lines
        for l in 0..128 {
            if !c.probe(l, false) {
                c.fill(l, false);
            }
        }
        c.reset_stats();
        for l in 0..128 {
            if !c.probe(l, false) {
                c.fill(l, false);
            }
        }
        assert!(c.misses() > 64, "sequential over-capacity scan must thrash");
    }
}
