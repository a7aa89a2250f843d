//! Device global memory.
//!
//! Backing store is a slab of `AtomicU64` words, so concurrently executing
//! blocks can read and write without locks and without data races (the
//! approach Rust Atomics and Locks teaches: make the unsynchronized
//! accesses atomic-relaxed instead of UB). Sub-word stores splice bytes via
//! `fetch_update`; kernel-visible atomics ([`GlobalMemory::atomic_rmw`])
//! use CAS loops on the containing word. Host transfers move whole words:
//! [`GlobalMemory::write_bytes`] stores each word it fully covers with one
//! relaxed store and splices only its unaligned ends, and
//! [`GlobalMemory::read_bytes`] loads each covered word once.
//!
//! Allocation is a simple first-fit free-list with 256-byte-aligned blocks
//! (real GPU allocators also hand out aligned slabs).

use crate::ir::{Type, Value};
use crate::{Result, SimError};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// A pointer into device global memory (byte offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// Pointer arithmetic in bytes.
    pub fn offset(self, bytes: u64) -> DevicePtr {
        DevicePtr(self.0 + bytes)
    }
}

/// Allocation granularity/alignment.
const ALIGN: u64 = 256;

#[derive(Debug, Clone, Copy)]
struct FreeBlock {
    start: u64,
    len: u64,
}

/// Device global memory: word-atomic slab + allocator.
pub struct GlobalMemory {
    words: Box<[AtomicU64]>,
    size: u64,
    free: Mutex<Vec<FreeBlock>>,
}

impl GlobalMemory {
    /// Create a memory of `size` bytes (rounded up to 8).
    pub fn new(size: u64) -> Self {
        let size = (size + 7) & !7;
        let nwords = (size / 8) as usize;
        // Go through `vec![0u64; n]`, which takes the zeroed-page
        // allocation path: a simulated 256 MB device then costs address
        // space, not physically touched pages, so bringing up many
        // devices at once (e.g. the gateway's shards) is cheap.
        // Constructing the words one `AtomicU64::new(0)` at a time
        // faults in every page up front — multi-second, sys-time-bound
        // construction on small machines.
        const _: () = assert!(
            std::mem::size_of::<AtomicU64>() == std::mem::size_of::<u64>()
                && std::mem::align_of::<AtomicU64>() == std::mem::align_of::<u64>()
        );
        let zeroed: Box<[u64]> = vec![0u64; nwords].into_boxed_slice();
        // SAFETY: `AtomicU64` has the same size, alignment, and bit
        // validity as `u64` (asserted above), and all-zero bits are the
        // valid value 0; the box's allocation is passed through unchanged.
        let words = unsafe { Box::from_raw(Box::into_raw(zeroed) as *mut [AtomicU64]) };
        Self { words, size, free: Mutex::new(vec![FreeBlock { start: 0, len: size }]) }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.size
    }

    /// Currently free bytes (sum over free list).
    pub fn free_bytes(&self) -> u64 {
        self.free.lock().iter().map(|b| b.len).sum()
    }

    /// Allocate `len` bytes; returns an aligned device pointer.
    pub fn alloc(&self, len: u64) -> Result<DevicePtr> {
        let want = ((len.max(1)) + ALIGN - 1) & !(ALIGN - 1);
        let mut free = self.free.lock();
        for i in 0..free.len() {
            if free[i].len >= want {
                let ptr = free[i].start;
                free[i].start += want;
                free[i].len -= want;
                if free[i].len == 0 {
                    free.remove(i);
                }
                return Ok(DevicePtr(ptr));
            }
        }
        Err(SimError::OutOfMemory { requested: want, available: free.iter().map(|b| b.len).sum() })
    }

    /// Free an allocation made by [`GlobalMemory::alloc`] with its original
    /// length. Coalesces adjacent free blocks.
    pub fn free(&self, ptr: DevicePtr, len: u64) {
        let want = ((len.max(1)) + ALIGN - 1) & !(ALIGN - 1);
        let mut free = self.free.lock();
        free.push(FreeBlock { start: ptr.0, len: want });
        free.sort_by_key(|b| b.start);
        let mut i = 0;
        while i + 1 < free.len() {
            if free[i].start + free[i].len == free[i + 1].start {
                free[i].len += free[i + 1].len;
                free.remove(i + 1);
            } else {
                i += 1;
            }
        }
    }

    fn check(&self, addr: u64, len: u64) -> Result<()> {
        if addr.checked_add(len).is_none_or(|end| end > self.size) {
            return Err(SimError::OutOfBounds { addr, len });
        }
        Ok(())
    }

    fn check_aligned(&self, addr: u64, align: u64) -> Result<()> {
        if !addr.is_multiple_of(align) {
            return Err(SimError::Misaligned { addr, align });
        }
        Ok(())
    }

    /// Read a raw little-endian scalar of up to 8 bytes at a naturally
    /// aligned address. `pub(crate)` so the vectorized tier's typed
    /// load/store loops skip the `Value` round-trip while inheriting the
    /// exact bounds/alignment checks.
    pub(crate) fn read_raw(&self, addr: u64, len: u64) -> Result<u64> {
        self.check(addr, len)?;
        self.check_aligned(addr, len)?;
        let word = self.words[(addr / 8) as usize].load(Ordering::Relaxed);
        let shift = (addr % 8) * 8;
        Ok(if len == 8 { word } else { (word >> shift) & ((1u64 << (len * 8)) - 1) })
    }

    /// Write a raw little-endian scalar of up to 8 bytes at a naturally
    /// aligned address. See [`GlobalMemory::read_raw`] on visibility.
    pub(crate) fn write_raw(&self, addr: u64, len: u64, value: u64) -> Result<()> {
        self.check(addr, len)?;
        self.check_aligned(addr, len)?;
        let w = &self.words[(addr / 8) as usize];
        if len == 8 {
            w.store(value, Ordering::Relaxed);
        } else {
            let shift = (addr % 8) * 8;
            let mask = ((1u64 << (len * 8)) - 1) << shift;
            // Splice the sub-word bytes in atomically.
            w.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                Some((old & !mask) | ((value << shift) & mask))
            })
            .expect("fetch_update closure always returns Some");
        }
        Ok(())
    }

    /// Typed load.
    pub fn load(&self, ty: Type, addr: u64) -> Result<Value> {
        let raw = self.read_raw(addr, ty.size())?;
        Ok(decode(ty, raw))
    }

    /// Typed store.
    pub fn store(&self, addr: u64, value: Value) -> Result<()> {
        let ty = value.ty();
        self.write_raw(addr, ty.size(), encode(value))
    }

    /// Kernel-visible atomic read-modify-write. Returns the old value.
    pub fn atomic_rmw(&self, addr: u64, op: crate::ir::AtomicOp, operand: Value) -> Result<Value> {
        use crate::ir::AtomicOp;
        let ty = operand.ty();
        let len = ty.size();
        self.check(addr, len)?;
        self.check_aligned(addr, len)?;
        let w = &self.words[(addr / 8) as usize];
        let shift = (addr % 8) * 8;
        let mask = if len == 8 { u64::MAX } else { ((1u64 << (len * 8)) - 1) << shift };
        let mut old_raw = 0u64;
        w.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |word| {
            old_raw = (word & mask) >> shift;
            let old = decode(ty, old_raw);
            let new = match op {
                AtomicOp::Add => arith(old, operand, |a, b| a + b, |a, b| a.wrapping_add(b)),
                AtomicOp::Min => arith(old, operand, f64::min, i64::min),
                AtomicOp::Max => arith(old, operand, f64::max, i64::max),
                AtomicOp::Exch => operand,
            };
            let new_raw = encode(new);
            Some((word & !mask) | ((new_raw << shift) & mask))
        })
        .expect("fetch_update closure always returns Some");
        Ok(decode(ty, old_raw))
    }

    /// Host → device copy. Every word the range fully covers is stored
    /// whole; only the unaligned head and tail bytes (at most 7 each) are
    /// spliced into their words.
    pub fn write_bytes(&self, ptr: DevicePtr, data: &[u8]) -> Result<()> {
        self.check(ptr.0, data.len() as u64)?;
        let head = (ptr.0.wrapping_neg() % 8).min(data.len() as u64) as usize;
        let (head_bytes, body) = data.split_at(head);
        let mut chunks = body.chunks_exact(8);
        let tail = chunks.remainder();
        for (i, &b) in head_bytes.iter().enumerate() {
            self.write_raw(ptr.0 + i as u64, 1, u64::from(b))?;
        }
        let first = ((ptr.0 + head as u64) / 8) as usize;
        for (w, chunk) in self.words[first..].iter().zip(&mut chunks) {
            let word =
                u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8) yields 8 bytes"));
            w.store(word, Ordering::Relaxed);
        }
        let tail_at = ptr.0 + (data.len() - tail.len()) as u64;
        for (i, &b) in tail.iter().enumerate() {
            self.write_raw(tail_at + i as u64, 1, u64::from(b))?;
        }
        Ok(())
    }

    /// Device → host copy: each covered word is loaded once.
    pub fn read_bytes(&self, ptr: DevicePtr, len: u64) -> Result<Vec<u8>> {
        self.check(ptr.0, len)?;
        let words = &self.words[(ptr.0 / 8) as usize..(ptr.0 + len).div_ceil(8) as usize];
        // The covered words hold at most 7 bytes beyond each end of the range.
        let mut out = Vec::with_capacity(len as usize + 7);
        if let Some((first, rest)) = words.split_first() {
            out.extend_from_slice(
                &first.load(Ordering::Relaxed).to_le_bytes()[(ptr.0 % 8) as usize..],
            );
            for w in rest {
                out.extend_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
            }
        }
        out.truncate(len as usize);
        Ok(out)
    }

    /// Device → device copy.
    pub fn copy_within(&self, src: DevicePtr, dst: DevicePtr, len: u64) -> Result<()> {
        let data = self.read_bytes(src, len)?;
        self.write_bytes(dst, &data)
    }
}

fn encode(v: Value) -> u64 {
    match v {
        Value::F32(x) => u64::from(x.to_bits()),
        Value::F64(x) => x.to_bits(),
        Value::I32(x) => u64::from(x as u32),
        Value::I64(x) => x as u64,
        Value::Bool(x) => u64::from(x),
    }
}

fn decode(ty: Type, raw: u64) -> Value {
    match ty {
        Type::F32 => Value::F32(f32::from_bits(raw as u32)),
        Type::F64 => Value::F64(f64::from_bits(raw)),
        Type::I32 => Value::I32(raw as u32 as i32),
        Type::I64 => Value::I64(raw as i64),
        Type::Bool => Value::Bool(raw != 0),
    }
}

/// Apply a float/int arithmetic closure pair on same-typed values.
fn arith(a: Value, b: Value, f: impl Fn(f64, f64) -> f64, i: impl Fn(i64, i64) -> i64) -> Value {
    match (a, b) {
        (Value::F32(x), Value::F32(y)) => Value::F32(f(f64::from(x), f64::from(y)) as f32),
        (Value::F64(x), Value::F64(y)) => Value::F64(f(x, y)),
        (Value::I32(x), Value::I32(y)) => Value::I32(i(i64::from(x), i64::from(y)) as i32),
        (Value::I64(x), Value::I64(y)) => Value::I64(i(x, y)),
        _ => unreachable!("atomic operand type mismatch slipped past validation"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::AtomicOp;

    #[test]
    fn alloc_free_roundtrip() {
        let m = GlobalMemory::new(4096);
        assert_eq!(m.capacity(), 4096);
        let a = m.alloc(100).unwrap();
        let b = m.alloc(100).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.0 % ALIGN, 0);
        assert_eq!(b.0 % ALIGN, 0);
        m.free(a, 100);
        m.free(b, 100);
        assert_eq!(m.free_bytes(), 4096);
        // After coalescing we can allocate the whole thing.
        let c = m.alloc(4096).unwrap();
        assert_eq!(c.0, 0);
    }

    #[test]
    fn out_of_memory_reports_available() {
        let m = GlobalMemory::new(1024);
        let _a = m.alloc(512).unwrap();
        match m.alloc(1024) {
            Err(SimError::OutOfMemory { requested, available }) => {
                assert_eq!(requested, 1024);
                assert_eq!(available, 512);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn typed_load_store_roundtrip() {
        let m = GlobalMemory::new(256);
        m.store(0, Value::F32(1.5)).unwrap();
        m.store(4, Value::F32(-2.5)).unwrap();
        m.store(8, Value::F64(3.25)).unwrap();
        m.store(16, Value::I32(-7)).unwrap();
        m.store(24, Value::I64(i64::MIN)).unwrap();
        assert_eq!(m.load(Type::F32, 0).unwrap(), Value::F32(1.5));
        assert_eq!(m.load(Type::F32, 4).unwrap(), Value::F32(-2.5));
        assert_eq!(m.load(Type::F64, 8).unwrap(), Value::F64(3.25));
        assert_eq!(m.load(Type::I32, 16).unwrap(), Value::I32(-7));
        assert_eq!(m.load(Type::I64, 24).unwrap(), Value::I64(i64::MIN));
    }

    #[test]
    fn sub_word_stores_do_not_clobber_neighbors() {
        let m = GlobalMemory::new(64);
        m.store(0, Value::I32(0x1111_1111)).unwrap();
        m.store(4, Value::I32(0x2222_2222)).unwrap();
        m.store(0, Value::I32(-1)).unwrap();
        assert_eq!(m.load(Type::I32, 4).unwrap(), Value::I32(0x2222_2222));
    }

    #[test]
    fn bounds_and_alignment_enforced() {
        let m = GlobalMemory::new(64);
        assert!(matches!(m.load(Type::F64, 60), Err(SimError::OutOfBounds { .. })));
        assert!(matches!(m.load(Type::F64, 4), Err(SimError::Misaligned { .. })));
        assert!(matches!(m.store(2, Value::F32(0.0)), Err(SimError::Misaligned { .. })));
        assert!(matches!(m.store(64, Value::I32(0)), Err(SimError::OutOfBounds { .. })));
        // Address arithmetic overflow must not wrap.
        assert!(matches!(m.load(Type::F64, u64::MAX - 3), Err(SimError::OutOfBounds { .. })));
    }

    #[test]
    fn atomic_add_f32_and_i64() {
        let m = GlobalMemory::new(64);
        m.store(0, Value::F32(1.0)).unwrap();
        let old = m.atomic_rmw(0, AtomicOp::Add, Value::F32(2.5)).unwrap();
        assert_eq!(old, Value::F32(1.0));
        assert_eq!(m.load(Type::F32, 0).unwrap(), Value::F32(3.5));

        m.store(8, Value::I64(10)).unwrap();
        let old = m.atomic_rmw(8, AtomicOp::Add, Value::I64(-3)).unwrap();
        assert_eq!(old, Value::I64(10));
        assert_eq!(m.load(Type::I64, 8).unwrap(), Value::I64(7));
    }

    #[test]
    fn atomic_min_max_exch() {
        let m = GlobalMemory::new(64);
        m.store(0, Value::I32(5)).unwrap();
        m.atomic_rmw(0, AtomicOp::Min, Value::I32(3)).unwrap();
        assert_eq!(m.load(Type::I32, 0).unwrap(), Value::I32(3));
        m.atomic_rmw(0, AtomicOp::Max, Value::I32(9)).unwrap();
        assert_eq!(m.load(Type::I32, 0).unwrap(), Value::I32(9));
        let old = m.atomic_rmw(0, AtomicOp::Exch, Value::I32(42)).unwrap();
        assert_eq!(old, Value::I32(9));
        assert_eq!(m.load(Type::I32, 0).unwrap(), Value::I32(42));
    }

    #[test]
    fn byte_copies_roundtrip_unaligned() {
        let m = GlobalMemory::new(256);
        let data: Vec<u8> = (0..100).collect();
        m.write_bytes(DevicePtr(3), &data).unwrap();
        assert_eq!(m.read_bytes(DevicePtr(3), 100).unwrap(), data);
        m.copy_within(DevicePtr(3), DevicePtr(128), 100).unwrap();
        assert_eq!(m.read_bytes(DevicePtr(128), 100).unwrap(), data);
    }

    /// Byte-at-a-time reference transfers for the word-wide ones.
    fn write_ref(m: &GlobalMemory, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            m.write_raw(addr + i as u64, 1, u64::from(b)).unwrap();
        }
    }

    fn read_ref(m: &GlobalMemory, addr: u64, len: u64) -> Vec<u8> {
        (0..len).map(|i| m.read_raw(addr + i, 1).unwrap() as u8).collect()
    }

    #[test]
    fn transfers_match_a_byte_reference_at_every_offset() {
        let fill: Vec<u8> = (0..64u8).map(|i| 0xA5 ^ i).collect();
        for off in 0..16u64 {
            for len in 0..40u64 {
                let m = GlobalMemory::new(64);
                write_ref(&m, 0, &fill);
                let data: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
                m.write_bytes(DevicePtr(off), &data).unwrap();
                let mut want = fill.clone();
                want[off as usize..(off + len) as usize].copy_from_slice(&data);
                // The written range changed, and its neighbours did not.
                assert_eq!(read_ref(&m, 0, 64), want, "write at {off}+{len}");
                for (a, l) in [(off, len), (0, 64), (off, 64 - off), (off / 3, len)] {
                    assert_eq!(
                        m.read_bytes(DevicePtr(a), l).unwrap(),
                        read_ref(&m, a, l),
                        "read at {a}+{l} after write at {off}+{len}"
                    );
                }
            }
        }
    }

    #[test]
    fn transfers_out_of_bounds_are_refused_untouched() {
        let m = GlobalMemory::new(64);
        let oob = |r: Result<()>, a, l| {
            assert!(matches!(r, Err(SimError::OutOfBounds { addr, len }) if addr == a && len == l));
        };
        oob(m.write_bytes(DevicePtr(60), &[0xFF; 5]), 60, 5);
        oob(m.write_bytes(DevicePtr(u64::MAX - 2), &[0xFF; 8]), u64::MAX - 2, 8);
        oob(m.read_bytes(DevicePtr(57), 8).map(drop), 57, 8);
        oob(m.read_bytes(DevicePtr(u64::MAX - 3), 8).map(drop), u64::MAX - 3, 8);
        oob(m.copy_within(DevicePtr(0), DevicePtr(40), 32), 40, 32);
        assert_eq!(m.read_bytes(DevicePtr(0), 64).unwrap(), vec![0; 64], "refused writes wrote");
        // Ranges ending exactly at the end of memory are in bounds.
        m.write_bytes(DevicePtr(57), &[9; 7]).unwrap();
        assert_eq!(m.read_bytes(DevicePtr(56), 8).unwrap(), [0, 9, 9, 9, 9, 9, 9, 9]);
        assert!(m.read_bytes(DevicePtr(64), 0).unwrap().is_empty());
    }

    #[test]
    fn concurrent_atomic_adds_are_exact() {
        use std::sync::Arc;
        let m = Arc::new(GlobalMemory::new(64));
        m.store(0, Value::I64(0)).unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.atomic_rmw(0, AtomicOp::Add, Value::I64(1)).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.load(Type::I64, 0).unwrap(), Value::I64(4000));
    }
}
