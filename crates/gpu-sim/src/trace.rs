//! Per-warp memory-access tracing.
//!
//! Both execution tiers can optionally record every **global-memory**
//! access a block performs: which lanes were active, which byte address
//! each lane touched, how wide the access was, and whether it was a
//! load, store, or atomic. The trace is the input to the coalescer and
//! cache models in [`crate::coalesce`] / [`crate::cache`] /
//! [`crate::memhier`]; it is *observational only* — recording a trace
//! never changes what a kernel computes, and the differential tests pin
//! output buffers byte-identical with tracing on or off.
//!
//! Design constraints:
//!
//! * **Near-zero overhead when off.** Interpreters carry an
//!   `Option<TraceScratch>`; the hot path pays one `is_some()` branch
//!   per memory instruction when tracing is disabled.
//! * **Zero per-access allocations when on.** A [`BlockTrace`] is a
//!   flat SoA arena — fixed-size access headers indexing into one
//!   shared lane/address pool — so recording a lane is two `Vec`
//!   pushes into buffers that amortize to their high-water mark and
//!   are recycled across launches via the device's [`ScratchPool`].
//! * **Tier-identical.** The scalar and vectorized tiers must emit the
//!   same trace for the same launch: lane entries are recorded in
//!   ascending lane order for loads/stores and in the device's
//!   warp-round-robin commit order for atomics (the order both tiers
//!   actually commit them in).
//! * **Deterministic replay.** Blocks may run on several threads and
//!   finish in nondeterministic order; both replay modes sort by block id
//!   before any shared-state stage, so replay is stable run-to-run.
//!
//! The sink supports two replay modes ([`ReplayMode`]):
//!
//! * **Buffered** — the original pipeline, retained as the pinned
//!   reference: blocks buffer their full traces, and
//!   [`crate::memhier::replay`] walks the whole launch serially.
//! * **Streaming** — the production pipeline: because L1 is private
//!   per block, each access is coalesced and driven through the block's
//!   L1 *on the worker thread as it is sealed*
//!   ([`TraceScratch::end_access`]), so the arena never holds more than
//!   one access and only the far smaller L2-request stream survives the
//!   block; [`TraceSink::finish`] then replays the block-id-sorted
//!   streams through the shared L2. The differential tests pin both
//!   modes to bit-identical [`MemStats`](crate::memhier::MemStats).

use crate::memhier::{replay, replay_l2, L1Stage, L2Scratch, L2Streams, MemHierSpec};
use crate::pool::ScratchPool;
use crate::MemStats;
use parking_lot::Mutex;
use std::sync::Arc;

/// What kind of access a trace entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Global-memory load.
    Load,
    /// Global-memory store.
    Store,
    /// Global-memory read-modify-write (bypasses L1, served by L2).
    Atomic,
}

/// How a launch's trace is turned into [`MemStats`](crate::memhier::MemStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// Buffer every block's full trace; replay the launch serially
    /// after the block phase (the pinned reference pipeline).
    Buffered,
    /// Run coalescing + L1 per block on the worker thread at block
    /// exit; only the L2-request streams survive to the serial stage.
    Streaming,
}

/// One access's header in the flat trace encoding: its kind, width,
/// and the end of its lane range in the block's lane/address pools
/// (the start is the previous header's end).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AccessHeader {
    kind: AccessKind,
    width: u32,
    end: u32,
}

/// All traced accesses of one block, in program order, as a flat SoA
/// arena: headers index ranges of the shared lane/address pools.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockTrace {
    /// Linear block id within the launch.
    pub block: u32,
    headers: Vec<AccessHeader>,
    lanes: Vec<u32>,
    addrs: Vec<u64>,
}

/// A borrowed view of one recorded access: parallel lane/address
/// slices plus the access's kind and width.
#[derive(Debug, Clone, Copy)]
pub struct AccessView<'a> {
    /// Load, store, or atomic.
    pub kind: AccessKind,
    /// Access width in bytes per lane (1, 4, or 8 today).
    pub width: u32,
    /// Lane index within the block, per recorded lane. Ascending for
    /// loads/stores; warp-round-robin commit order for atomics.
    pub lanes: &'a [u32],
    /// Byte address per recorded lane, parallel to `lanes`.
    pub addrs: &'a [u64],
}

impl BlockTrace {
    /// An empty trace for the given block.
    pub fn new(block: u32) -> Self {
        Self { block, ..Self::default() }
    }

    /// Record one lane of the access currently being assembled.
    #[inline]
    pub fn push_lane(&mut self, lane: u32, addr: u64) {
        self.lanes.push(lane);
        self.addrs.push(addr);
    }

    /// Record lanes `0..addrs.len()` of the access currently being
    /// assembled, in ascending order — a full-mask access in one go.
    /// Negative addresses are skipped, like [`push_lane`]'s callers do:
    /// the access faults and the trace is never consumed.
    ///
    /// [`push_lane`]: Self::push_lane
    pub fn push_dense(&mut self, addrs: &[i64]) {
        if addrs.iter().all(|&a| a >= 0) {
            self.lanes.extend(0..addrs.len() as u32);
            self.addrs.extend(addrs.iter().map(|&a| a as u64));
        } else {
            for (lane, &a) in (0u32..).zip(addrs) {
                if a >= 0 {
                    self.push_lane(lane, a as u64);
                }
            }
        }
    }

    /// Seal the access currently being assembled. A no-op if no lanes
    /// were pushed since the last seal (inactive warps trace nothing).
    #[inline]
    pub fn end_access(&mut self, kind: AccessKind, width: u32) {
        let end = self.lanes.len() as u32;
        if end > self.headers.last().map_or(0, |h| h.end) {
            self.headers.push(AccessHeader { kind, width, end });
        }
    }

    /// The block's accesses in the order it issued them.
    pub fn accesses(&self) -> impl Iterator<Item = AccessView<'_>> {
        self.headers.iter().scan(0usize, |start, h| {
            let range = *start..h.end as usize;
            *start = h.end as usize;
            Some(AccessView {
                kind: h.kind,
                width: h.width,
                lanes: &self.lanes[range.clone()],
                addrs: &self.addrs[range],
            })
        })
    }

    /// Number of sealed accesses.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Whether the block recorded no accesses.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Forget all recorded accesses but keep the arena's capacity (for
    /// scratch reuse across blocks and launches).
    pub fn clear(&mut self) {
        self.block = 0;
        self.forget_accesses();
    }

    fn forget_accesses(&mut self) {
        self.headers.clear();
        self.lanes.clear();
        self.addrs.clear();
    }
}

/// Per-worker reusable tracing state: the block's trace arena plus the
/// L1 stage (cache, coalescer buffers, L2-bound output) the streaming
/// pipeline drives each sealed access through. Pooled on the device so
/// its buffers survive across blocks *and* launches at their
/// high-water mark.
#[derive(Debug, Default)]
pub struct TraceScratch {
    trace: BlockTrace,
    l1: L1Stage,
    /// Streaming mode: the hierarchy and warp width the L1 stage runs
    /// under, set by [`TraceSink::begin_block`]. `None` in buffered
    /// mode, where the arena keeps the whole block.
    fused: Option<(MemHierSpec, u32)>,
}

impl TraceScratch {
    /// Record one lane of the access currently being assembled.
    #[inline]
    pub fn push_lane(&mut self, lane: u32, addr: u64) {
        self.trace.push_lane(lane, addr);
    }

    /// See [`BlockTrace::push_dense`].
    #[inline]
    pub fn push_dense(&mut self, addrs: &[i64]) {
        self.trace.push_dense(addrs);
    }

    /// Seal the access currently being assembled (see
    /// [`BlockTrace::end_access`]). In streaming mode the access is
    /// coalesced and driven through the block's L1 right here, and the
    /// arena emptied.
    #[inline]
    pub fn end_access(&mut self, kind: AccessKind, width: u32) {
        self.trace.end_access(kind, width);
        if let Some((spec, warp_width)) = &self.fused {
            for access in self.trace.accesses() {
                self.l1.access(spec, *warp_width, &access);
            }
            self.trace.forget_accesses();
        }
    }
}

/// Launch-wide collector blocks record into.
///
/// Exec tiers call [`begin_block`](Self::begin_block) when a traced
/// block starts and [`finish_block`](Self::finish_block) when it exits;
/// the device calls [`finish`](Self::finish) after the block phase to
/// obtain the launch's [`MemStats`]. A block that fails mid-flight
/// simply drops its scratch — the trace of a failed launch is never
/// consumed (the launch as a whole errors before replay).
#[derive(Debug)]
pub struct TraceSink {
    spec: MemHierSpec,
    warp_width: u32,
    mode: ReplayMode,
    scratch: Arc<ScratchPool<TraceScratch>>,
    /// Device-owned slot recycling the shared-L2 cache and the stream
    /// buffers between launches (streaming mode).
    l2_slot: Arc<Mutex<L2Scratch>>,
    /// Buffered mode: full block traces awaiting the serial replay.
    blocks: Mutex<Vec<BlockTrace>>,
    /// Streaming mode: per-block L2-request streams awaiting the
    /// shared L2 stage.
    streams: Mutex<L2Streams>,
}

impl TraceSink {
    /// A sink replaying under `mode`, drawing per-worker scratch from
    /// `scratch` and the shared-L2 cache from `l2_slot` (pass the
    /// device's pool and slot so buffers persist across launches).
    pub fn new(
        spec: MemHierSpec,
        warp_width: u32,
        mode: ReplayMode,
        scratch: Arc<ScratchPool<TraceScratch>>,
        l2_slot: Arc<Mutex<L2Scratch>>,
    ) -> Self {
        let streams = match mode {
            ReplayMode::Streaming => std::mem::take(&mut l2_slot.lock().streams),
            ReplayMode::Buffered => L2Streams::default(),
        };
        Self {
            spec,
            warp_width,
            mode,
            scratch,
            l2_slot,
            blocks: Mutex::new(Vec::new()),
            streams: Mutex::new(streams),
        }
    }

    /// A buffered-mode sink with a private scratch pool — the pinned
    /// serial reference configuration, used by tests.
    pub fn buffered(spec: MemHierSpec, warp_width: u32) -> Self {
        Self::new(
            spec,
            warp_width,
            ReplayMode::Buffered,
            Arc::new(ScratchPool::default()),
            Arc::default(),
        )
    }

    /// Which replay pipeline this sink runs.
    pub fn mode(&self) -> ReplayMode {
        self.mode
    }

    /// Hand out a (recycled) scratch for a block that is starting; in
    /// streaming mode its L1 stage is reset for the block.
    pub fn begin_block(&self, block: u32) -> TraceScratch {
        let mut s = self.scratch.acquire();
        s.trace.block = block;
        s.fused = match self.mode {
            ReplayMode::Streaming => {
                s.l1.begin_block(&self.spec);
                Some((self.spec, self.warp_width))
            }
            ReplayMode::Buffered => None,
        };
        s
    }

    /// Flush one finished block. Called once per block, at exit, on the
    /// worker thread that ran the block. In streaming mode the block's
    /// accesses have already been through its L1 (in parallel across
    /// workers); this drains the L1's dirty sectors and hands the
    /// block's L2-request stream to the launch.
    pub fn finish_block(&self, mut scratch: TraceScratch) {
        match self.mode {
            ReplayMode::Buffered => {
                let trace = std::mem::take(&mut scratch.trace);
                self.blocks.lock().push(trace);
            }
            ReplayMode::Streaming => {
                let (reqs, partial) = scratch.l1.finish_block();
                self.streams.lock().push_block(scratch.trace.block, reqs, partial);
                scratch.trace.clear();
            }
        }
        self.scratch.release(scratch);
    }

    /// Replay whatever reached the sink into the launch's [`MemStats`].
    /// Deterministic in both modes: same launch ⇒ same stats, and the
    /// differential suite pins the two modes bit-identical.
    pub fn finish(self) -> MemStats {
        match self.mode {
            ReplayMode::Buffered => {
                let spec = self.spec;
                let warp_width = self.warp_width;
                replay(&spec, warp_width, &self.into_blocks())
            }
            ReplayMode::Streaming => {
                let mut streams = self.streams.into_inner();
                let mut slot = self.l2_slot.lock();
                let stats = replay_l2(&self.spec, &mut streams, &mut slot.l2);
                slot.streams = streams;
                stats
            }
        }
    }

    /// Drain a buffered sink into a deterministic, block-id-sorted
    /// trace. Block ids are unique, so the unstable sort is safe.
    pub fn into_blocks(self) -> Vec<BlockTrace> {
        debug_assert!(self.mode == ReplayMode::Buffered, "streaming sinks do not retain traces");
        let mut blocks = self.blocks.into_inner();
        blocks.sort_unstable_by_key(|b| b.block);
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_load_trace(block: u32) -> BlockTrace {
        let mut t = BlockTrace::new(block);
        t.push_lane(0, u64::from(block) * 64);
        t.end_access(AccessKind::Load, 4);
        t
    }

    #[test]
    fn sink_sorts_blocks_for_deterministic_replay() {
        let sink = TraceSink::buffered(MemHierSpec::nvidia_a100(), 32);
        for block in [3u32, 0, 2, 1] {
            let mut s = sink.begin_block(block);
            s.push_lane(0, u64::from(block) * 64);
            s.end_access(AccessKind::Load, 4);
            sink.finish_block(s);
        }
        let blocks = sink.into_blocks();
        let ids: Vec<u32> = blocks.iter().map(|b| b.block).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_sink_is_empty() {
        assert!(TraceSink::buffered(MemHierSpec::nvidia_a100(), 32).into_blocks().is_empty());
    }

    #[test]
    fn arena_round_trips_accesses_in_program_order() {
        let mut t = BlockTrace::new(7);
        t.push_lane(0, 0);
        t.push_lane(1, 8);
        t.end_access(AccessKind::Load, 8);
        t.push_lane(3, 160);
        t.end_access(AccessKind::Store, 4);
        t.push_lane(0, 256);
        t.end_access(AccessKind::Atomic, 8);
        let views: Vec<_> = t.accesses().collect();
        assert_eq!(t.len(), 3);
        assert_eq!(views[0].kind, AccessKind::Load);
        assert_eq!(views[0].width, 8);
        assert_eq!(views[0].lanes, &[0, 1]);
        assert_eq!(views[0].addrs, &[0, 8]);
        assert_eq!(views[1].kind, AccessKind::Store);
        assert_eq!(views[1].lanes, &[3]);
        assert_eq!(views[1].addrs, &[160]);
        assert_eq!(views[2].kind, AccessKind::Atomic);
        assert_eq!(views[2].addrs, &[256]);
    }

    #[test]
    fn empty_access_records_no_header() {
        let mut t = BlockTrace::new(0);
        t.end_access(AccessKind::Load, 8);
        assert!(t.is_empty());
        t.push_lane(5, 40);
        t.end_access(AccessKind::Store, 8);
        // Sealing again without new lanes must not duplicate the header.
        t.end_access(AccessKind::Load, 4);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clear_keeps_capacity_but_forgets_contents() {
        let mut t = one_load_trace(9);
        let cap = (t.headers.capacity(), t.lanes.capacity(), t.addrs.capacity());
        t.clear();
        assert!(t.is_empty() && t.block == 0);
        assert!(t.headers.capacity() >= cap.0 && t.lanes.capacity() >= cap.1);
        assert!(t.addrs.capacity() >= cap.2);
    }

    #[test]
    fn streaming_scratch_never_holds_a_sealed_access() {
        let sink = TraceSink::new(
            MemHierSpec::amd_mi250x(),
            64,
            ReplayMode::Streaming,
            Arc::new(ScratchPool::default()),
            Arc::default(),
        );
        let mut s = sink.begin_block(0);
        for kind in [AccessKind::Load, AccessKind::Store, AccessKind::Atomic] {
            s.push_dense(&[0, 8, 16, 24]);
            assert_eq!(s.trace.lanes.len(), 4);
            s.end_access(kind, 8);
            assert!(s.trace.is_empty() && s.trace.lanes.is_empty());
        }
        sink.finish_block(s);
        let stats = sink.finish();
        assert_eq!((stats.requests, stats.transactions), (12, 3));
    }

    #[test]
    fn dense_pushes_match_lane_pushes() {
        let addrs = [0i64, 8, -8, 24];
        let mut dense = BlockTrace::new(0);
        dense.push_dense(&addrs);
        dense.push_dense(&addrs[..2]);
        let mut lanes = BlockTrace::new(0);
        for (lane, addr) in [(0, 0), (1, 8), (3, 24), (0, 0), (1, 8)] {
            lanes.push_lane(lane, addr);
        }
        assert_eq!(dense, lanes);
    }

    #[test]
    fn streaming_and_buffered_sinks_agree() {
        let spec = MemHierSpec::nvidia_a100();
        let mk = |mode| {
            let sink =
                TraceSink::new(spec, 32, mode, Arc::new(ScratchPool::default()), Arc::default());
            for block in [2u32, 0, 1] {
                let mut s = sink.begin_block(block);
                for l in 0..64u32 {
                    s.push_lane(l, u64::from(l) * 8 + u64::from(block) * 512);
                }
                s.end_access(AccessKind::Load, 8);
                sink.finish_block(s);
            }
            sink.finish()
        };
        assert_eq!(mk(ReplayMode::Buffered), mk(ReplayMode::Streaming));
    }
}
