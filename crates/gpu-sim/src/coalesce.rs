//! Warp-width-parametric memory coalescing.
//!
//! Real GPU memory systems do not see "lane 17 loaded 8 bytes"; they see
//! *sector transactions*. The coalescer takes one traced memory
//! instruction ([`crate::trace::AccessView`]) and groups its lane
//! accesses by hardware warp (lane / warp_width), then within each warp
//! deduplicates the touched sectors — NVIDIA coalesces 32 lanes into
//! 32-byte sectors, AMD coalesces 64 lanes into 64-byte sectors, Intel
//! coalesces 16 lanes. The same stride therefore produces *different*
//! transaction counts per vendor, which is exactly the per-vendor
//! divergence the memory-hierarchy tier models.
//!
//! Each produced [`SectorReq`] carries a byte-cover bitmask so the cache
//! layer can account sector utilization (bytes the kernel asked for vs
//! bytes the transaction moved) and distinguish full-sector stores
//! (write-combining, no fill needed) from partial ones.
//!
//! [`coalesce_into`] is the streaming pipeline's allocation-free entry
//! point. Its output is ordered by (warp, sector), and it gets there in
//! one of two ways:
//!
//! * **One pass** (the common case): loads and stores arrive in
//!   ascending lane order, and for unit-stride, strided and broadcast
//!   addressing the sector does not decrease within a warp either, so
//!   equal (warp, sector) keys are already adjacent. One walk over the
//!   lanes merges each run into a request — no per-lane entry, no sort.
//! * **Sort fallback**, taken at the first lane whose key is smaller
//!   than its predecessor's (atomics, which are recorded in warp
//!   round-robin order; descending or gathered addresses): one
//!   `(warp, sector, cover)` entry per lane in a caller-owned buffer,
//!   sorted unstably by (warp, sector) and merged.
//!
//! Both produce the same requests for every input, and neither
//! allocates once the buffers reach their high-water mark.

use crate::trace::AccessView;

/// One coalesced memory transaction: a sector-aligned request produced
/// by merging all lane accesses of one warp that fall in that sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectorReq {
    /// Sector-aligned byte address.
    pub addr: u64,
    /// Bitmask of bytes within the sector the warp actually touched
    /// (bit `i` = byte `addr + i`). Sectors are at most 64 bytes, so a
    /// `u64` always suffices.
    pub cover: u64,
    /// Number of lane accesses merged into this transaction.
    pub lanes: u32,
}

impl SectorReq {
    /// Bytes of the sector the warp actually used.
    pub fn covered_bytes(&self) -> u64 {
        u64::from(self.cover.count_ones())
    }

    /// Whether every byte of the sector is covered (needed for
    /// fill-free store allocation).
    pub fn full(&self, sector_bytes: u64) -> bool {
        debug_assert!(sector_bytes <= 64);
        if sector_bytes == 64 {
            self.cover == u64::MAX
        } else {
            self.cover == (1u64 << sector_bytes) - 1
        }
    }
}

/// Reusable buffers for [`coalesce_into`]'s sort fallback: one
/// `(warp, sector, cover)` entry per lane, recycled across accesses at
/// high-water capacity.
#[derive(Debug, Default)]
pub struct CoalesceScratch {
    entries: Vec<(u32, u64, u64)>,
}

/// Coalesce one traced access into per-warp sector transactions,
/// appending to `out` (which is cleared first) without allocating once
/// the scratch buffers are warm.
///
/// Lanes are grouped by `lane / warp_width`; within a warp, accesses to
/// the same sector merge into one [`SectorReq`]. Results are ordered by
/// (warp, sector address) — the order of the original `BTreeMap`
/// iteration — which keeps the replay deterministic regardless of lane
/// order in the trace. Accesses are naturally aligned and at most 8
/// bytes wide, and sectors are ≥ 32 bytes, so a single lane access
/// never spans two sectors.
#[inline]
pub fn coalesce_into(
    access: &AccessView<'_>,
    warp_width: u32,
    sector_bytes: u64,
    scratch: &mut CoalesceScratch,
    out: &mut Vec<SectorReq>,
) {
    debug_assert!(sector_bytes.is_power_of_two() && (32..=64).contains(&sector_bytes));
    let warp_width = warp_width.max(1);
    // Every real warp width is a power of two; this runs per traced
    // lane, so the division must compile to a shift there.
    let warp_shift =
        if warp_width.is_power_of_two() { Some(warp_width.trailing_zeros()) } else { None };
    let width = access.width;
    let lane_bits = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
    let key = |lane: u32, addr: u64| {
        let warp = match warp_shift {
            Some(s) => lane >> s,
            None => lane / warp_width,
        };
        let sector = addr & !(sector_bytes - 1);
        let offset = addr - sector;
        debug_assert!(offset + u64::from(width) <= sector_bytes);
        (warp, sector, lane_bits << offset)
    };
    out.clear();
    let mut lanes = access.lanes.iter().zip(access.addrs);
    let Some((&lane, &addr)) = lanes.next() else { return };
    // The open request's key and contents live in registers; it is
    // pushed when the next key differs.
    let (mut warp, mut sector, mut cover) = key(lane, addr);
    let mut count = 1;
    for (&lane, &addr) in lanes {
        let (w, s, bits) = key(lane, addr);
        if (w, s) == (warp, sector) {
            cover |= bits;
            count += 1;
            continue;
        }
        if (w, s) < (warp, sector) {
            // The key went down: equal keys may not be adjacent.
            return sort_and_merge(access, key, scratch, out);
        }
        out.push(SectorReq { addr: sector, cover, lanes: count });
        (warp, sector, cover, count) = (w, s, bits, 1);
    }
    out.push(SectorReq { addr: sector, cover, lanes: count });
}

/// The fallback for lane orders whose (warp, sector) key decreases: one
/// entry per lane, sorted unstably by the merge key, then merged.
fn sort_and_merge(
    access: &AccessView<'_>,
    key: impl Fn(u32, u64) -> (u32, u64, u64),
    scratch: &mut CoalesceScratch,
    out: &mut Vec<SectorReq>,
) {
    let entries = &mut scratch.entries;
    entries.clear();
    out.clear();
    entries.extend(access.lanes.iter().zip(access.addrs).map(|(&lane, &addr)| key(lane, addr)));
    entries.sort_unstable_by_key(|&(warp, sector, _)| (warp, sector));
    let mut prev: Option<(u32, u64)> = None;
    for &(warp, sector, bits) in entries.iter() {
        if prev == Some((warp, sector)) {
            // Same (warp, sector) run as the previous entry: merge.
            let req = out.last_mut().expect("run continuation implies an open request");
            req.cover |= bits;
            req.lanes += 1;
        } else {
            out.push(SectorReq { addr: sector, cover: bits, lanes: 1 });
            prev = Some((warp, sector));
        }
    }
}

/// Coalesce one traced access, allocating fresh buffers — the
/// convenience form the serial reference replay and the unit tests use.
pub fn coalesce(access: &AccessView<'_>, warp_width: u32, sector_bytes: u64) -> Vec<SectorReq> {
    let mut scratch = CoalesceScratch::default();
    let mut out = Vec::new();
    coalesce_into(access, warp_width, sector_bytes, &mut scratch, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{AccessKind, BlockTrace};

    /// Assemble a one-access trace arena and return it (views borrow
    /// from it at the use site).
    fn access(width: u32, lanes: impl IntoIterator<Item = (u32, u64)>) -> BlockTrace {
        let mut t = BlockTrace::new(0);
        for (lane, addr) in lanes {
            t.push_lane(lane, addr);
        }
        t.end_access(AccessKind::Load, width);
        t
    }

    fn run(t: &BlockTrace, warp_width: u32, sector_bytes: u64) -> Vec<SectorReq> {
        coalesce(&t.accesses().next().expect("one access"), warp_width, sector_bytes)
    }

    #[test]
    fn unit_stride_f64_warp32_fills_sectors() {
        // 32 lanes × 8B contiguous = 256B = eight full 32B sectors.
        let a = access(8, (0..32).map(|l| (l, u64::from(l) * 8)));
        let reqs = run(&a, 32, 32);
        assert_eq!(reqs.len(), 8);
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.addr, i as u64 * 32);
            assert!(r.full(32));
            assert_eq!(r.lanes, 4);
        }
    }

    #[test]
    fn warp_width_changes_transaction_grouping() {
        // Same 64 lanes, 4B stride-16 (64B apart): every access lands in
        // its own sector, but warp grouping differs: w64 = one warp of 64
        // transactions, w16 = four warps of 16. Totals equal; the warp
        // boundary matters once sectors are shared.
        let a = access(4, (0..64).map(|l| (l, u64::from(l) * 64)));
        assert_eq!(run(&a, 64, 64).len(), 64);
        assert_eq!(run(&a, 16, 64).len(), 64);
        // Broadcast: all lanes hit one address — one transaction per warp.
        let b = access(4, (0..64).map(|l| (l, 0)));
        assert_eq!(run(&b, 64, 64).len(), 1);
        assert_eq!(run(&b, 16, 64).len(), 4);
    }

    #[test]
    fn strided_gather_wastes_sector_cover() {
        // 8B loads, 128B apart: each sector transaction covers 8/32 bytes.
        let a = access(8, (0..32).map(|l| (l, u64::from(l) * 128)));
        let reqs = run(&a, 32, 32);
        assert_eq!(reqs.len(), 32);
        for r in &reqs {
            assert_eq!(r.covered_bytes(), 8);
            assert!(!r.full(32));
        }
    }

    #[test]
    fn full_cover_detection_at_64b() {
        let a = access(8, (0..8).map(|l| (l, u64::from(l) * 8)));
        let reqs = run(&a, 32, 64);
        assert_eq!(reqs.len(), 1);
        assert!(reqs[0].full(64));
        assert_eq!(reqs[0].lanes, 8);
    }

    #[test]
    fn deterministic_regardless_of_lane_order() {
        let fwd = access(4, (0..32).map(|l| (l, u64::from(l) * 4)));
        let rev = access(4, (0..32).rev().map(|l| (l, u64::from(l) * 4)));
        assert_eq!(run(&fwd, 32, 32), run(&rev, 32, 32));
    }

    #[test]
    fn scratch_reuse_matches_fresh_buffers() {
        // Drive several accesses through one scratch; each result must
        // equal the allocation-per-call form.
        let mut scratch = CoalesceScratch::default();
        let mut out = Vec::new();
        for stride in [4u64, 8, 64, 128] {
            let a = access(4, (0..64).map(|l| (l, u64::from(l) * stride)));
            let view = a.accesses().next().expect("one access");
            coalesce_into(&view, 32, 32, &mut scratch, &mut out);
            assert_eq!(out, coalesce(&view, 32, 32), "stride {stride}");
        }
    }

    /// Reference: group lanes by (warp, sector) in an ordered map — the
    /// coalescer's original formulation.
    fn reference(t: &BlockTrace, warp_width: u32, sector_bytes: u64) -> Vec<SectorReq> {
        let a = t.accesses().next().expect("one access");
        let mut map = std::collections::BTreeMap::<(u32, u64), SectorReq>::new();
        for (&lane, &addr) in a.lanes.iter().zip(a.addrs) {
            let sector = addr / sector_bytes * sector_bytes;
            let bits = ((1u64 << a.width) - 1) << (addr - sector);
            let req = map.entry((lane / warp_width, sector)).or_insert(SectorReq {
                addr: sector,
                cover: 0,
                lanes: 0,
            });
            req.cover |= bits;
            req.lanes += 1;
        }
        map.into_values().collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Ascending lanes with strided, broadcast, descending or random
        /// addresses, and shuffled lane orders: one pass or fallback, the
        /// output equals the ordered-map reference.
        #[test]
        fn one_pass_and_fallback_match_the_reference(
            shape in 0u8..5,
            stride in 0u64..40,
            lanes in 1u32..200,
            seed in proptest::prelude::any::<u64>(),
            config in 0usize..6,
        ) {
            let (width, warp_width, sector_bytes) =
                [(8, 32, 32), (4, 32, 32), (8, 64, 64), (4, 16, 64), (1, 24, 32), (8, 48, 64)][config];
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut pairs: Vec<(u32, u64)> = (0..lanes)
                .map(|l| {
                    let slot = match shape {
                        0 => u64::from(l) * stride,
                        1 => 7,
                        2 => u64::from(lanes - l) * stride,
                        3 => u64::from(l) * stride + next() % 3,
                        _ => next() % 512,
                    };
                    (l, slot * u64::from(width))
                })
                .collect();
            if next() % 4 == 0 {
                // A non-ascending lane order (like an atomic's).
                pairs.rotate_left((next() % u64::from(lanes)) as usize);
            }
            let t = access(width, pairs);
            proptest::prop_assert_eq!(
                run(&t, warp_width, sector_bytes),
                reference(&t, warp_width, sector_bytes)
            );
        }
    }

    #[test]
    fn shared_sector_across_warps_stays_split() {
        // Lanes 31 and 32 touch the same 64B sector from different
        // 32-wide warps: two transactions, not one.
        let a = access(4, [(31u32, 60u64), (32, 0)]);
        let reqs = run(&a, 32, 64);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].addr, 0);
        assert_eq!(reqs[1].addr, 0);
    }
}
