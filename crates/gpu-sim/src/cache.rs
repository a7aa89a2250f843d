//! Sectored, set-associative cache model.
//!
//! A cache is an array of sets × ways of *lines*; each line is divided
//! into sectors (the coalescer's transaction granule) with independent
//! valid/dirty bits, so a miss fills only the sector that was asked for
//! — the sectored-fill behaviour of real NVIDIA/AMD/Intel cache levels,
//! and the reason a strided gather moves far more DRAM bytes than the
//! kernel requested.
//!
//! The model is purely functional on addresses: no data is stored
//! (correctness lives in [`crate::mem`]; this layer only counts). It is
//! deterministic, so the same trace always yields the same statistics:
//!
//! * **Victim rule.** A miss evicts the first never-used or stale way of
//!   the set; if every way is live, the first way with the oldest LRU
//!   tick (ticks are unique, so the oldest is unique too). One pass over
//!   the set's tick array, stopping at the first stale way.
//! * **Writeback order.** An eviction reports the victim's dirty sectors
//!   as its line tag plus a dirty-sector mask ([`Writebacks`]), which
//!   iterates in ascending sector order; [`SectoredCache::flush_dirty`]
//!   emits every dirty sector in ascending address order. The level
//!   below replays them in that order, so its LRU state depends on it.
//! * **Zero-page arrays.** Every line array starts as zeros, so building
//!   a multi-megabyte L2 touches no memory until lines are used. Tag 0
//!   is a real line address, but validity is decided by the tick alone
//!   (see [`SectoredCache`]), and a never-used way has tick 0.
//!
//! Write policy is decided by the caller per level:
//! * write-allocate (NVIDIA/Intel L1, both L2s): a store miss fills the
//!   sector from below — unless the warp covered *every* byte of the
//!   sector, in which case it allocates dirty without a fill
//!   (write-combining; keeps a streaming write from reading its own
//!   destination).
//! * no-allocate (AMD's write-through L1): a store miss does not touch
//!   the cache; the caller forwards the write to the next level.

/// Result of driving one sector request through a cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheOutcome {
    /// The sector was already resident.
    pub hit: bool,
    /// The sector had to be fetched from the level below.
    pub filled: bool,
    /// Dirty sectors evicted by this access, which the caller must
    /// write to the level below.
    pub writebacks: Writebacks,
}

/// The dirty sectors of one evicted line: its line-aligned address and
/// a dirty-sector mask. Iterates the sector-aligned addresses in
/// ascending order; empty when the victim was clean or unused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Writebacks {
    line: u64,
    mask: u64,
    sector_shift: u32,
}

impl Iterator for Writebacks {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.mask == 0 {
            return None;
        }
        let sector = self.mask.trailing_zeros();
        self.mask &= self.mask - 1;
        Some(self.line + (u64::from(sector) << self.sector_shift))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.mask.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Writebacks {}

/// One cache level. See the module docs for the policy model.
///
/// Lines are stored as parallel arrays (SoA), not an array of structs:
/// a probe scans all ways of one set, and for a multi-megabyte L2 with
/// 16 ways the struct layout would pull ~10 host cache lines per probe
/// where the tag array alone needs two. The replay is memory-latency
/// bound on exactly that scan, so the layout is the difference between
/// tracing being cheap enough to leave on and not.
///
/// Line validity is "tick ≥ floor": `ticks` holds the LRU clock at last
/// touch, and [`reset`](Self::reset) simply raises `floor` past every
/// existing tick — O(1) invalidation of the whole array with no writes,
/// and stale lines (tick < floor) are evicted exactly like never-used
/// ways.
#[derive(Debug, Clone)]
pub struct SectoredCache {
    line_bytes: u64,
    sector_bytes: u64,
    sets: u64,
    /// `log2(line_bytes)` / `log2(sector_bytes)` / `sets - 1` — the
    /// probe path runs per replayed sector, so indexing must be
    /// shift-and-mask, not division.
    line_shift: u32,
    sector_shift: u32,
    set_mask: u64,
    ways: usize,
    /// Line-aligned base address per line; meaningful only while live.
    tags: Vec<u64>,
    /// LRU clock at last touch per line; `< floor` = invalid.
    ticks: Vec<u64>,
    /// Per-sector valid bits per line.
    valid: Vec<u64>,
    /// Per-sector dirty bits per line.
    dirty: Vec<u64>,
    /// Monotonic LRU clock; never rewinds (resets move `floor` instead).
    tick: u64,
    /// Validity threshold: only lines touched at or after it exist.
    floor: u64,
    /// The line the previous access touched. A live tag is resident in
    /// at most one way, so when this line still holds the probed tag
    /// it is the answer, and consecutive sectors of one line (a
    /// coalesced warp's common case) skip the set scan.
    last: usize,
    /// Indices of lines that became dirty since the last flush/reset,
    /// so [`flush_dirty`] walks the dirty set instead of every line.
    /// May hold duplicates or since-cleaned indices; the flush rechecks.
    ///
    /// [`flush_dirty`]: SectoredCache::flush_dirty
    dirty_lines: Vec<u32>,
}

impl SectoredCache {
    /// Build a cache of `bytes` capacity with the given line size,
    /// associativity, and sector granule. `sector_bytes` must divide
    /// `line_bytes`; capacity is rounded down to whole sets.
    pub fn new(bytes: u64, line_bytes: u64, ways: u32, sector_bytes: u64) -> Self {
        assert!(line_bytes.is_power_of_two() && sector_bytes.is_power_of_two());
        assert!(sector_bytes <= line_bytes && line_bytes / sector_bytes <= 64);
        let ways = ways.max(1) as usize;
        let sets = (bytes / (line_bytes * ways as u64)).max(1);
        // Power-of-two sets keep the index a mask; round down.
        let sets = 1u64 << (63 - sets.leading_zeros() as u64);
        let lines = (sets as usize) * ways;
        assert!(lines <= u32::MAX as usize, "cache line count must fit the dirty-line index");
        Self {
            line_bytes,
            sector_bytes,
            sets,
            line_shift: line_bytes.trailing_zeros(),
            sector_shift: sector_bytes.trailing_zeros(),
            set_mask: sets - 1,
            ways,
            tags: vec![0; lines],
            ticks: vec![0; lines],
            valid: vec![0; lines],
            dirty: vec![0; lines],
            tick: 0,
            floor: 1,
            last: 0,
            dirty_lines: Vec::new(),
        }
    }

    /// Whether the line at `i` is currently valid (touched at or after
    /// the validity floor).
    #[inline]
    fn live(&self, i: usize) -> bool {
        self.ticks[i] >= self.floor
    }

    /// Index of the first way of the set `addr` maps to.
    #[inline]
    fn set_start(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize * self.ways
    }

    #[inline]
    fn sector_bit(&self, addr: u64) -> (u64, u64) {
        let tag = addr & !(self.line_bytes - 1);
        let idx = (addr - tag) >> self.sector_shift;
        debug_assert!(idx < self.line_bytes >> self.sector_shift);
        (tag, 1u64 << idx)
    }

    /// Locate the way holding `tag` within the set, if resident. Scans
    /// only the tag array (the probe's hot cache lines); the tick check
    /// runs on tag match alone, so a stale leftover of the same tag —
    /// or a never-used way, whose tag is 0 — reads as a miss.
    #[inline]
    fn find(&self, start: usize, tag: u64) -> Option<usize> {
        let floor = self.floor;
        if self.tags[self.last] == tag && self.ticks[self.last] >= floor {
            return Some(self.last);
        }
        (start..)
            .zip(&self.tags[start..start + self.ways])
            .find(|&(i, &t)| t == tag && self.ticks[i] >= floor)
            .map(|(i, _)| i)
    }

    /// Pick the set's victim (see the module docs' victim rule) and
    /// report its dirty sectors. The caller overwrites the way with
    /// [`fill_line`](Self::fill_line).
    #[inline]
    fn evict_lru(&self, start: usize) -> (usize, Writebacks) {
        let floor = self.floor;
        let mut victim = start;
        let mut oldest = u64::MAX;
        for (i, &t) in (start..).zip(&self.ticks[start..start + self.ways]) {
            if t < floor {
                // Stale or never used: nothing to write back.
                return (i, Writebacks::default());
            }
            if t < oldest {
                (victim, oldest) = (i, t);
            }
        }
        let line = self.tags[victim];
        (victim, Writebacks { line, mask: self.dirty[victim], sector_shift: self.sector_shift })
    }

    /// Install a line at `i` (previously evicted or stale).
    #[inline]
    fn fill_line(&mut self, i: usize, tag: u64, valid: u64, dirty: u64) {
        self.tags[i] = tag;
        self.touch(i);
        self.valid[i] = valid;
        self.dirty[i] = dirty;
    }

    /// Mark the line at `i` most recently used.
    #[inline]
    fn touch(&mut self, i: usize) {
        self.ticks[i] = self.tick;
        self.last = i;
    }

    /// Record that the line at `i` is about to gain its first dirty
    /// sector since allocation or the last flush.
    #[inline]
    fn note_dirty(&mut self, i: usize) {
        if self.dirty[i] == 0 {
            self.dirty_lines.push(i as u32);
        }
    }

    /// Drive a read of one sector (sector-aligned address).
    #[inline]
    pub fn read(&mut self, sector: u64) -> CacheOutcome {
        self.tick += 1;
        let (tag, bit) = self.sector_bit(sector);
        let start = self.set_start(sector);
        if let Some(i) = self.find(start, tag) {
            self.touch(i);
            if self.valid[i] & bit != 0 {
                return CacheOutcome { hit: true, ..Default::default() };
            }
            self.valid[i] |= bit;
            return CacheOutcome { filled: true, ..Default::default() };
        }
        let (victim, writebacks) = self.evict_lru(start);
        self.fill_line(victim, tag, bit, 0);
        CacheOutcome { filled: true, writebacks, ..Default::default() }
    }

    /// Drive a store of one sector. `full_cover` means the warp wrote
    /// every byte of the sector; `write_alloc` selects the allocate
    /// policy (see module docs). With `write_alloc = false` a miss
    /// leaves the cache untouched and the caller forwards the write.
    #[inline]
    pub fn write(&mut self, sector: u64, full_cover: bool, write_alloc: bool) -> CacheOutcome {
        self.tick += 1;
        let (tag, bit) = self.sector_bit(sector);
        let start = self.set_start(sector);
        if let Some(i) = self.find(start, tag) {
            self.touch(i);
            if self.valid[i] & bit != 0 {
                self.note_dirty(i);
                self.dirty[i] |= bit;
                return CacheOutcome { hit: true, ..Default::default() };
            }
            // Sector miss in a resident line.
            let filled = !full_cover;
            if !write_alloc && filled {
                // No-allocate caches never fill on store.
                return CacheOutcome::default();
            }
            self.note_dirty(i);
            self.valid[i] |= bit;
            self.dirty[i] |= bit;
            return CacheOutcome { filled, ..Default::default() };
        }
        if !write_alloc {
            return CacheOutcome::default();
        }
        let (victim, writebacks) = self.evict_lru(start);
        self.fill_line(victim, tag, bit, bit);
        self.dirty_lines.push(victim as u32);
        CacheOutcome { filled: !full_cover, writebacks, ..Default::default() }
    }

    /// Write-through assist: refresh a resident copy on a store that is
    /// served by the level below. Returns whether the sector was
    /// resident (and is now up to date, still clean).
    #[inline]
    pub fn update_if_present(&mut self, sector: u64) -> bool {
        self.tick += 1;
        let (tag, bit) = self.sector_bit(sector);
        if let Some(i) = self.find(self.set_start(sector), tag) {
            self.touch(i);
            return self.valid[i] & bit != 0;
        }
        false
    }

    /// Return the cache to its just-built state — every line invalid —
    /// without touching the line arrays. Replaces a fresh `new()` per
    /// block in the streaming replay's per-worker scratch, and MUST be
    /// equivalent to one: the differential suite pins scratch-reused
    /// replays bit-identical to fresh-cache replays. O(1): raising the
    /// validity floor past the clock invalidates every line with no
    /// array writes (a hot-loop requirement — the L2's arrays run to
    /// megabytes). The clock itself never rewinds, but LRU only ever
    /// compares ticks within one lifetime, so absolute values are
    /// unobservable.
    pub fn reset(&mut self) {
        self.floor = self.tick + 1;
        self.dirty_lines.clear();
    }

    /// Whether this cache was built with exactly the given geometry
    /// (capacity expressed as sets × ways × line bytes, post-rounding).
    pub fn geometry_matches(
        &self,
        bytes: u64,
        line_bytes: u64,
        ways: u32,
        sector_bytes: u64,
    ) -> bool {
        let fresh_sets = {
            let ways = ways.max(1) as u64;
            let sets = (bytes / (line_bytes * ways)).max(1);
            1u64 << (63 - sets.leading_zeros() as u64)
        };
        self.line_bytes == line_bytes
            && self.sector_bytes == sector_bytes
            && self.ways == ways.max(1) as usize
            && self.sets == fresh_sets
    }

    /// Clean every dirty sector, passing each sector-aligned address to
    /// `emit` in ascending order. Used at block exit (L1 → L2) and
    /// launch exit (L2 → DRAM). Walks only the lines that dirtied since
    /// the last flush/reset, sorted by line address — lines are
    /// disjoint, so line order then sector order is address order.
    pub fn flush_dirty(&mut self, mut emit: impl FnMut(u64)) {
        let mut lines = std::mem::take(&mut self.dirty_lines);
        // Entries may be stale (line evicted since); a duplicate index
        // finds its mask already cleared and emits nothing.
        lines.retain(|&i| self.live(i as usize));
        lines.sort_unstable_by_key(|&i| self.tags[i as usize]);
        for &i in &lines {
            let i = i as usize;
            let mask = std::mem::take(&mut self.dirty[i]);
            Writebacks { line: self.tags[i], mask, sector_shift: self.sector_shift }
                .for_each(&mut emit);
        }
        lines.clear();
        self.dirty_lines = lines;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every sector a flush emits, in emission order.
    fn flushed(c: &mut SectoredCache) -> Vec<u64> {
        let mut out = Vec::new();
        c.flush_dirty(|sector| out.push(sector));
        out
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = SectoredCache::new(1 << 10, 128, 4, 32);
        let first = c.read(64);
        assert!(!first.hit && first.filled);
        let second = c.read(64);
        assert!(second.hit && !second.filled);
        // A different sector of the same line still misses (sectored fill).
        let other = c.read(96);
        assert!(!other.hit && other.filled);
    }

    #[test]
    fn full_cover_store_allocates_without_fill() {
        let mut c = SectoredCache::new(1 << 10, 128, 4, 32);
        let w = c.write(0, true, true);
        assert!(!w.hit && !w.filled);
        // The sector is now resident and dirty; a read hits.
        assert!(c.read(0).hit);
        assert_eq!(flushed(&mut c), vec![0]);
    }

    #[test]
    fn partial_store_miss_fills_under_write_allocate() {
        let mut c = SectoredCache::new(1 << 10, 128, 4, 32);
        let w = c.write(32, false, true);
        assert!(!w.hit && w.filled);
        assert_eq!(flushed(&mut c), vec![32]);
    }

    #[test]
    fn no_allocate_store_miss_leaves_cache_untouched() {
        let mut c = SectoredCache::new(1 << 10, 64, 4, 64);
        let w = c.write(0, true, false);
        assert!(!w.hit && !w.filled && w.writebacks.len() == 0);
        assert!(!c.read(0).hit, "store must not have allocated");
    }

    #[test]
    fn lru_eviction_writes_back_dirty_sectors() {
        // Direct-mapped-ish: 2 ways, line 64, sector 64, 2 sets (256B).
        let mut c = SectoredCache::new(256, 64, 2, 64);
        // Fill set 0 (addresses ≡ 0 mod 128) with dirty lines.
        assert!(!c.write(0, true, true).filled);
        assert!(!c.write(128, true, true).filled);
        // Third distinct line in the same set evicts LRU (addr 0).
        let out = c.read(256);
        assert_eq!(out.writebacks.collect::<Vec<_>>(), vec![0]);
        // Address 0 must now miss again.
        assert!(!c.read(0).hit);
    }

    #[test]
    fn reset_is_equivalent_to_a_fresh_cache() {
        let mut reused = SectoredCache::new(4 << 10, 128, 4, 32);
        // Dirty it thoroughly, then reset.
        for i in 0..512u64 {
            reused.write((i * 32) & !31, false, true);
        }
        reused.reset();
        let mut fresh = SectoredCache::new(4 << 10, 128, 4, 32);
        let outcomes = |c: &mut SectoredCache| {
            let mut hits = 0;
            for i in 0..2048u64 {
                if c.read(((i * 96) % (16 << 10)) & !31).hit {
                    hits += 1;
                }
            }
            (hits, flushed(c))
        };
        assert_eq!(outcomes(&mut reused), outcomes(&mut fresh));
        assert!(reused.geometry_matches(4 << 10, 128, 4, 32));
        assert!(!reused.geometry_matches(8 << 10, 128, 4, 32));
    }

    #[test]
    fn a_fresh_cache_misses_sector_zero() {
        // Tag 0 is a real line address; a never-used way must not match
        // it, on a fresh cache and after a reset.
        let mut c = SectoredCache::new(1 << 10, 128, 4, 32);
        for _ in 0..2 {
            let r = c.read(0);
            assert!(!r.hit && r.filled);
            assert!(!c.update_if_present(32));
            assert!(!c.write(64, false, false).hit);
            c.reset();
        }
    }

    #[test]
    fn deterministic_replay() {
        let drive = || {
            let mut c = SectoredCache::new(4 << 10, 128, 4, 32);
            let mut hits = 0;
            for i in 0..4096u64 {
                let addr = (i * 96) % (16 << 10);
                if c.read(addr & !31).hit {
                    hits += 1;
                }
            }
            (hits, flushed(&mut c))
        };
        assert_eq!(drive(), drive());
    }

    /// Oracle: the cache semantics as first written — one struct per
    /// line, the victim picked by `min_by_key` over `(live, tick)`
    /// (first minimum wins), writebacks returned as an ascending `Vec`,
    /// and `reset` forgetting every line.
    struct RefCache {
        line_bytes: u64,
        sector_bytes: u64,
        ways: usize,
        sets: u64,
        /// `(tag, tick, valid, dirty)`; `tag == None` = never used.
        lines: Vec<(Option<u64>, u64, u64, u64)>,
        tick: u64,
    }

    impl RefCache {
        fn new(bytes: u64, line_bytes: u64, ways: usize, sector_bytes: u64) -> Self {
            let sets = bytes / (line_bytes * ways as u64);
            assert!(sets.is_power_of_two());
            let lines = vec![(None, 0, 0, 0); sets as usize * ways];
            Self { line_bytes, sector_bytes, ways, sets, lines, tick: 0 }
        }

        fn locate(&self, addr: u64) -> (std::ops::Range<usize>, u64, u64) {
            let tag = addr / self.line_bytes * self.line_bytes;
            let set = ((addr / self.line_bytes) % self.sets) as usize;
            (set * self.ways..(set + 1) * self.ways, tag, 1 << ((addr - tag) / self.sector_bytes))
        }

        fn find(&self, range: std::ops::Range<usize>, tag: u64) -> Option<usize> {
            range.into_iter().find(|&i| self.lines[i].0 == Some(tag))
        }

        fn sectors(&self, tag: u64, mask: u64) -> Vec<u64> {
            (0..64).filter(|s| mask & (1 << s) != 0).map(|s| tag + s * self.sector_bytes).collect()
        }

        /// Evict the set's LRU way, install the new line there, and
        /// return the victim's dirty sectors.
        fn replace(&mut self, range: std::ops::Range<usize>, line: (u64, u64, u64)) -> Vec<u64> {
            let lines = &self.lines;
            let victim = range
                .min_by_key(|&i| match lines[i] {
                    (Some(_), tick, ..) => (true, tick),
                    (None, ..) => (false, 0),
                })
                .unwrap();
            let wbs = match self.lines[victim] {
                (Some(tag), _, _, dirty) => self.sectors(tag, dirty),
                (None, ..) => Vec::new(),
            };
            self.lines[victim] = (Some(line.0), self.tick, line.1, line.2);
            wbs
        }

        fn read(&mut self, addr: u64) -> (bool, bool, Vec<u64>) {
            self.tick += 1;
            let (range, tag, bit) = self.locate(addr);
            if let Some(i) = self.find(range.clone(), tag) {
                let line = &mut self.lines[i];
                line.1 = self.tick;
                if line.2 & bit != 0 {
                    return (true, false, vec![]);
                }
                line.2 |= bit;
                return (false, true, vec![]);
            }
            (false, true, self.replace(range, (tag, bit, 0)))
        }

        fn write(&mut self, addr: u64, full: bool, alloc: bool) -> (bool, bool, Vec<u64>) {
            self.tick += 1;
            let (range, tag, bit) = self.locate(addr);
            if let Some(i) = self.find(range.clone(), tag) {
                let line = &mut self.lines[i];
                line.1 = self.tick;
                if line.2 & bit != 0 {
                    line.3 |= bit;
                    return (true, false, vec![]);
                }
                if !alloc && !full {
                    return (false, false, vec![]);
                }
                line.2 |= bit;
                line.3 |= bit;
                return (false, !full, vec![]);
            }
            if !alloc {
                return (false, false, vec![]);
            }
            (false, !full, self.replace(range, (tag, bit, bit)))
        }

        fn update_if_present(&mut self, addr: u64) -> bool {
            self.tick += 1;
            let (range, tag, bit) = self.locate(addr);
            match self.find(range, tag) {
                Some(i) => {
                    self.lines[i].1 = self.tick;
                    self.lines[i].2 & bit != 0
                }
                None => false,
            }
        }

        fn reset(&mut self) {
            for line in &mut self.lines {
                line.0 = None;
            }
        }

        fn flush_dirty(&mut self) -> Vec<u64> {
            let mut out = Vec::new();
            for i in 0..self.lines.len() {
                if let (Some(tag), _, _, dirty) = self.lines[i] {
                    out.extend(self.sectors(tag, dirty));
                    self.lines[i].3 = 0;
                }
            }
            out.sort_unstable();
            out
        }
    }

    /// A cache outcome as `(hit, filled, writebacks in emission order)`.
    fn outcome(o: CacheOutcome) -> (bool, bool, Vec<u64>) {
        (o.hit, o.filled, o.writebacks.collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random read/write/update/reset/flush sequences over a small
        /// 4-way geometry (four sets, so nearly every miss evicts) agree
        /// with the oracle on every outcome, writeback and flush.
        #[test]
        fn random_sequences_match_the_reference_model(
            ops in proptest::collection::vec(
                (0u8..20, 0u64..96, proptest::prelude::any::<bool>(),
                    proptest::prelude::any::<bool>()),
                1..400,
            ),
            geometry in 0usize..2,
        ) {
            let (line, sector) = [(64, 32), (64, 64)][geometry];
            let mut cache = SectoredCache::new(4 * 4 * line, line, 4, sector);
            let mut oracle = RefCache::new(4 * 4 * line, line, 4, sector);
            for (step, &(op, slot, full, alloc)) in ops.iter().enumerate() {
                let addr = slot * sector % (24 * line);
                match op {
                    0..=7 => proptest::prop_assert_eq!(
                        outcome(cache.read(addr)), oracle.read(addr), "step {} read {}", step, addr
                    ),
                    8..=15 => proptest::prop_assert_eq!(
                        outcome(cache.write(addr, full, alloc)),
                        oracle.write(addr, full, alloc),
                        "step {} write {}", step, addr
                    ),
                    16..=17 => proptest::prop_assert_eq!(
                        cache.update_if_present(addr), oracle.update_if_present(addr),
                        "step {} update {}", step, addr
                    ),
                    18 => {
                        cache.reset();
                        oracle.reset();
                    }
                    _ => proptest::prop_assert_eq!(
                        flushed(&mut cache), oracle.flush_dirty(), "step {} flush", step
                    ),
                }
            }
            proptest::prop_assert_eq!(flushed(&mut cache), oracle.flush_dirty());
        }
    }
}
