//! The packed execution backend: 64-PE bitset masks, a recycling plane
//! arena, one-pass bit slicing, plan-free broadcasts, and a bus-plan cache
//! for the wired-OR.
//!
//! [`PackedBackend`] implements [`Executor`] with five wall-clock levers
//! the scalar reference backend lacks:
//!
//! * **Packed masks** — every `Plane<bool>` mask inside the bit-serial
//!   `min`/`selected_min` loop is a [`PackedMask`]: 64 PEs per `u64`
//!   word, so votes, knockouts and occupancy counting are word ops and
//!   popcounts instead of per-PE byte walks.
//! * **Plane arena** — mask words are recycled through a shared
//!   [`WordPool`]; after warm-up the O(h) scan loop allocates nothing.
//! * **One-pass bit slicing** — the first bit-plane extraction of a scan
//!   operand transposes every bit the scan needs at once (8×8 bit-matrix
//!   transposes) and later extractions copy one sliced plane. The slices
//!   are keyed by the operand's shared storage, so a plane written after
//!   slicing (copy-on-write) can never be served stale bits.
//! * **Plan-free broadcasts** — a cluster-head broadcast reads the packed
//!   Open words directly: row buses fill the runs between Open bits,
//!   column buses carry one row of head values and copy it into each
//!   output row. No cluster plan is derived or cached.
//! * **Bus-plan cache** — the wired-OR's cluster resolution
//!   (`bus::cluster_keys`) is computed once per distinct (direction,
//!   Open-mask) switch configuration and reused; the MCP inner loop
//!   replays the same configuration across all h bit passes, so nearly
//!   every wired-OR hits the cache.
//!
//! Semantics are bit-identical to [`ScalarBackend`](crate::ScalarBackend):
//! the differential suites in `tests/backend_diff.rs` assert values *and*
//! step counts across the two backends.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use crate::bus;
use crate::error::MachineError;
use crate::geometry::{Axis, Dim, Direction};
use crate::isa::{ExecStats, Executor};
use crate::machine::Machine;
use crate::plane::Plane;

/// Retained bus plans; the MCP loop needs ~5 distinct configurations, so a
/// small LRU never evicts a live plan while tolerating mask churn.
const PLAN_CACHE_CAP: usize = 32;

/// Retained bit-sliced scan operands. An MCP iteration scans `SOW` (fresh
/// every iteration) and then `COL` (the same plane every iteration), so
/// two LRU entries keep `COL` sliced across the whole solve.
const SLICE_CACHE_CAP: usize = 2;

/// Number of words needed to back one bit per PE of `dim`.
fn words_for(dim: Dim) -> usize {
    dim.len().div_ceil(64)
}

/// Bits `start..end` of one word set (`start < 64`, `end <= 64`).
fn range_mask(start: usize, end: usize) -> u64 {
    let below_end = if end >= 64 { !0 } else { (1u64 << end) - 1 };
    below_end & !((1u64 << start) - 1)
}

/// The `(word index, in-word mask)` pieces of the flat bit range
/// `start..end`, in ascending order.
fn pieces(start: usize, end: usize) -> impl Iterator<Item = (usize, u64)> {
    let mut i = start;
    std::iter::from_fn(move || {
        (i < end).then(|| {
            let off = i % 64;
            let take = (64 - off).min(end - i);
            let piece = (i / 64, range_mask(off, off + take));
            i += take;
            piece
        })
    })
}

/// Whether any bit in `start..end` of a flat bitset is set.
fn range_any(words: &[u64], start: usize, end: usize) -> bool {
    pieces(start, end).any(|(wi, m)| words[wi] & m != 0)
}

/// Sets every bit in `start..end` of a flat bitset.
fn set_range(words: &mut [u64], start: usize, end: usize) {
    for (wi, m) in pieces(start, end) {
        words[wi] |= m;
    }
}

/// Calls `f` with the position of every set bit in `start..end` of a flat
/// bitset, in ascending order.
fn for_each_set_bit_in(words: &[u64], start: usize, end: usize, mut f: impl FnMut(usize)) {
    for (wi, m) in pieces(start, end) {
        let mut bits = words[wi] & m;
        while bits != 0 {
            f(wi * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Whether bit `i` of a flat bitset is set.
#[inline]
fn test_bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Sets bit `i` of a flat bitset.
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

/// Packs a flat boolean plane into `out`, 64 PEs per word.
fn pack(src: &[bool], out: &mut [u64]) {
    for (w, chunk) in out.iter_mut().zip(src.chunks(64)) {
        *w = pack_word(chunk);
    }
}

/// Packs up to 64 booleans into one word (bit `i` = `bools[i]`), eight at
/// a time: one multiply gathers eight 0/1 bytes into the top byte.
fn pack_word(bools: &[bool]) -> u64 {
    let (groups, tail) = bools.as_chunks::<8>();
    let mut word = 0u64;
    for (g, group) in groups.iter().enumerate() {
        let bytes = u64::from_le_bytes(group.map(u8::from));
        word |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
    }
    for (b, &v) in tail.iter().enumerate() {
        word |= (v as u64) << (8 * groups.len() + b);
    }
    word
}

/// Transposes an 8×8 bit matrix held row-per-byte: bit `b` of byte `i`
/// moves to bit `i` of byte `b` (three delta swaps).
fn transpose8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00aa_00aa_00aa_00aa;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_cccc_0000_cccc;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_f0f0_f0f0;
    x ^= t ^ (t << 28);
    x
}

/// Slices bits `0..bits` of every value into bit-planes in one pass over
/// `src`: plane `j` occupies `out[j * nwords..(j + 1) * nwords]` and holds
/// bit `j` of every PE. Each group of eight PEs costs one 8×8 transpose
/// per value byte, instead of eight single-bit extractions per plane.
fn slice_bits(src: &[i64], bits: u32, nwords: usize, out: &mut [u64]) {
    let bits = bits as usize;
    debug_assert!(bits <= 64 && out.len() == bits * nwords);
    out.fill(0);
    for (wi, chunk) in src.chunks(64).enumerate() {
        debug_assert!(
            chunk.iter().all(|&x| x >= 0),
            "bit-serial scan expects non-negative values"
        );
        // One 64-PE word per bit-plane, assembled value byte by value byte:
        // byte `k` of eight PEs is an 8×8 bit matrix whose transpose holds
        // their bits `8k..8k + 8`, one byte per bit-plane.
        let mut planes = [0u64; 64];
        for k in 0..bits.div_ceil(8) {
            let mut bytes = [0u8; 64];
            for (b, &x) in bytes.iter_mut().zip(chunk) {
                *b = (x as u64 >> (8 * k)) as u8;
            }
            for (g, rows) in bytes.as_chunks::<8>().0.iter().enumerate() {
                let cols = transpose8(u64::from_le_bytes(*rows));
                for b in 0..8.min(bits - 8 * k) {
                    planes[8 * k + b] |= ((cols >> (8 * b)) & 0xff) << (8 * g);
                }
            }
        }
        for (j, &p) in planes[..bits].iter().enumerate() {
            out[j * nwords + wi] = p;
        }
    }
}

/// Cluster-head broadcast straight from packed Open words, with no plan:
/// every PE receives the `src` value of the Open node heading its cluster
/// (`bus::broadcast` semantics, circular lines). Lines with no Open node
/// are returned in the error, ascending.
fn broadcast_words<T: Copy>(
    dim: Dim,
    src: &[T],
    dir: Direction,
    open: &[u64],
) -> Result<Plane<T>, MachineError> {
    let out = match dir.axis() {
        Axis::Row => broadcast_rows(dim, src, dir, open),
        Axis::Col => broadcast_cols(dim, src, dir, open),
    };
    out.map(|data| Plane::from_vec(dim, data))
        .map_err(|lines| MachineError::BusFault {
            axis: dir.axis(),
            lines,
        })
}

/// Row buses: each row's Open bits cut it into runs, and every run is one
/// fill with its head's value.
fn broadcast_rows<T: Copy>(
    dim: Dim,
    src: &[T],
    dir: Direction,
    open: &[u64],
) -> Result<Vec<T>, Vec<usize>> {
    let cols = dim.cols;
    let mut out = Vec::with_capacity(dim.len());
    let mut driverless = Vec::new();
    let mut heads = Vec::with_capacity(cols);
    for r in 0..dim.rows {
        let base = r * cols;
        heads.clear();
        for_each_set_bit_in(open, base, base + cols, |p| heads.push(p - base));
        let (Some(&first), Some(&last)) = (heads.first(), heads.last()) else {
            driverless.push(r);
            continue;
        };
        if !driverless.is_empty() {
            // The broadcast already faults; only later lines' drivers matter.
            continue;
        }
        let row = &src[base..base + cols];
        if dir.is_increasing() {
            // Eastward, a head drives up to the next Open node; the PEs
            // before the first one wrap around to the last head.
            out.resize(base + first, row[last]);
            for (k, &p) in heads.iter().enumerate() {
                let end = heads.get(k + 1).map_or(cols, |&q| q);
                out.resize(base + end, row[p]);
            }
        } else {
            // Westward, a head drives back to the previous Open node; the
            // PEs after the last one wrap around to the first head.
            for &p in &heads {
                out.resize(base + p + 1, row[p]);
            }
            out.resize(base + cols, row[first]);
        }
    }
    if driverless.is_empty() {
        Ok(out)
    } else {
        Err(driverless)
    }
}

/// Column buses: one row of head values is carried along the movement
/// direction, updated at each row's Open bits and copied into that output
/// row. A first pass primes it with each column's last head, which drives
/// the PEs before the column's first Open node.
fn broadcast_cols<T: Copy>(
    dim: Dim,
    src: &[T],
    dir: Direction,
    open: &[u64],
) -> Result<Vec<T>, Vec<usize>> {
    let (rows, cols) = (dim.rows, dim.cols);
    let row_at = |pos: usize| {
        if dir.is_increasing() {
            pos
        } else {
            rows - 1 - pos
        }
    };
    // Placeholder values: every driven column is overwritten by pass 1.
    let mut carried = src[..cols].to_vec();
    let mut driven = vec![false; cols];
    for pos in 0..rows {
        let base = row_at(pos) * cols;
        for_each_set_bit_in(open, base, base + cols, |p| {
            carried[p - base] = src[p];
            driven[p - base] = true;
        });
    }
    let driverless: Vec<usize> = (0..cols).filter(|&c| !driven[c]).collect();
    if !driverless.is_empty() {
        return Err(driverless);
    }
    let mut out = src.to_vec();
    for pos in 0..rows {
        let base = row_at(pos) * cols;
        for_each_set_bit_in(open, base, base + cols, |p| carried[p - base] = src[p]);
        out[base..base + cols].copy_from_slice(&carried);
    }
    Ok(out)
}

/// The shared mask arena: spent word buffers waiting to be reissued.
#[derive(Debug, Default)]
struct WordPool {
    free: Vec<Vec<u64>>,
    fresh: u64,
    reused: u64,
}

impl WordPool {
    /// A zeroed buffer of exactly `words` words, recycled when possible.
    fn get(&mut self, words: usize) -> Vec<u64> {
        while let Some(mut buf) = self.free.pop() {
            if buf.len() == words {
                self.reused += 1;
                buf.fill(0);
                return buf;
            }
            // Stale geometry (machine rebuilt with another dim): discard.
        }
        self.fresh += 1;
        vec![0; words]
    }

    fn put(&mut self, buf: Vec<u64>) {
        if !buf.is_empty() {
            self.free.push(buf);
        }
    }
}

/// A boolean mask plane packed 64 PEs per `u64` word (row-major flat
/// order).
///
/// Buffers are leased from the backend's [`WordPool`]: dropping or cloning
/// a mask goes through the arena, so steady-state mask traffic allocates
/// nothing. Bits at positions `>= dim.len()` in the last word are always
/// zero (every producing operation maintains the invariant).
pub struct PackedMask {
    dim: Dim,
    words: Vec<u64>,
    pool: Rc<RefCell<WordPool>>,
}

impl PackedMask {
    /// Whether the bit for flat PE index `i` is set.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        test_bit(&self.words, i)
    }

    /// Number of set PEs (a popcount per word).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The mask geometry.
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Zeroes any bits at positions `>= dim.len()` in the last word.
    fn trim(&mut self) {
        let rem = self.dim.len() % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl Drop for PackedMask {
    fn drop(&mut self) {
        self.pool.borrow_mut().put(std::mem::take(&mut self.words));
    }
}

impl Clone for PackedMask {
    fn clone(&self) -> Self {
        let mut words = self.pool.borrow_mut().get(self.words.len());
        words.copy_from_slice(&self.words);
        PackedMask {
            dim: self.dim,
            words,
            pool: Rc::clone(&self.pool),
        }
    }
}

impl PartialEq for PackedMask {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.words == other.words
    }
}

impl std::fmt::Debug for PackedMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedMask")
            .field("dim", &self.dim)
            .field("set", &self.count())
            .finish()
    }
}

/// A cached bus-cluster resolution for one (direction, Open mask) pair.
#[derive(Debug)]
struct BusPlan {
    /// Flat index of the driving Open node, per PE (floating-segment key on
    /// driverless lines — see [`bus::cluster_keys`]).
    keys: Vec<u32>,
    /// Maximal runs of equal key as `(start, end, key)` flat-index ranges —
    /// populated only for row-axis plans, where each line's positions are
    /// contiguous in row-major order. A cluster that wraps around its line
    /// contributes two runs with the same key; the wired-OR fast path
    /// accumulates per key, so that is handled naturally.
    segs: Vec<(u32, u32, u32)>,
}

/// Derives the cluster plan for a packed Open mask from scratch (the
/// cache-miss path).
fn compute_plan(dim: Dim, dir: Direction, words: &[u64]) -> BusPlan {
    let open: Vec<bool> = (0..dim.len()).map(|i| test_bit(words, i)).collect();
    let (keys, _driverless) = bus::cluster_keys(dim, dir, &open);
    let segs = if dir.axis() == Axis::Row {
        let mut segs = Vec::new();
        for r in 0..dim.rows {
            let base = r * dim.cols;
            let mut s = base;
            for p in base + 1..base + dim.cols {
                if keys[p] != keys[s] {
                    segs.push((s as u32, p as u32, keys[s]));
                    s = p;
                }
            }
            segs.push((s as u32, (base + dim.cols) as u32, keys[s]));
        }
        segs
    } else {
        Vec::new()
    };
    BusPlan { keys, segs }
}

#[derive(Debug, Clone)]
struct PlanEntry {
    dir: Direction,
    fp: u64,
    words: Vec<u64>,
    plan: Rc<BusPlan>,
}

/// FNV-1a over the packed words, seeded with the direction.
fn fingerprint(dir: Direction, words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (dir as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One scan operand sliced into bit-planes by [`slice_bits`].
#[derive(Debug, Clone)]
struct SliceEntry {
    /// The sliced plane's storage. Holding it keys the entry by identity
    /// and rules out stale bits: a later write to the plane unshares its
    /// buffer (copy-on-write), so the written plane misses the cache.
    src: Arc<Vec<i64>>,
    /// Bits `0..bits` are sliced.
    bits: u32,
    /// Bit-plane `j` occupies words `j * nwords..(j + 1) * nwords`.
    planes: Vec<u64>,
}

/// The packed bit-plane execution backend (see module docs).
#[derive(Debug, Clone)]
pub struct PackedBackend {
    pool: Rc<RefCell<WordPool>>,
    plans: Vec<PlanEntry>,
    plan_hits: u64,
    plan_misses: u64,
    /// Bit-sliced scan operands, least recently used first.
    slices: Vec<SliceEntry>,
    scratch: Vec<u64>,
    /// Bench-gate mutation drill only: corrupt one bit of every vote.
    #[cfg(any(test, feature = "mutation-drill"))]
    perturb_vote: bool,
}

impl PackedBackend {
    /// A fresh backend with an empty arena and plan cache.
    pub fn new() -> Self {
        PackedBackend {
            pool: Rc::new(RefCell::new(WordPool::default())),
            plans: Vec::new(),
            plan_hits: 0,
            plan_misses: 0,
            slices: Vec::new(),
            scratch: Vec::new(),
            #[cfg(any(test, feature = "mutation-drill"))]
            perturb_vote: false,
        }
    }

    /// A deliberately broken backend whose `vote` flips bit 0 of its first
    /// output word — the bench-gate mutation drill uses this to prove the
    /// bit-identity gate actually fails on a one-bit kernel corruption.
    /// Never compiled into release binaries.
    #[cfg(any(test, feature = "mutation-drill"))]
    pub fn with_perturbed_vote() -> Self {
        let mut be = PackedBackend::new();
        be.perturb_vote = true;
        be
    }

    fn alloc_mask(&mut self, dim: Dim) -> PackedMask {
        let words = self.pool.borrow_mut().get(words_for(dim));
        PackedMask {
            dim,
            words,
            pool: Rc::clone(&self.pool),
        }
    }

    /// The cached cluster plan for `open` given as packed words.
    fn plan_for_words(&mut self, dim: Dim, dir: Direction, words: &[u64]) -> Rc<BusPlan> {
        let fp = fingerprint(dir, words);
        if let Some(pos) = self
            .plans
            .iter()
            .position(|e| e.dir == dir && e.fp == fp && e.words == words)
        {
            self.plan_hits += 1;
            let entry = self.plans.remove(pos);
            let plan = Rc::clone(&entry.plan);
            self.plans.push(entry); // LRU: most recent at the back
            return plan;
        }
        self.plan_misses += 1;
        let plan = Rc::new(compute_plan(dim, dir, words));
        if self.plans.len() >= PLAN_CACHE_CAP {
            self.plans.remove(0);
        }
        self.plans.push(PlanEntry {
            dir,
            fp,
            words: words.to_vec(),
            plan: Rc::clone(&plan),
        });
        plan
    }

    /// `open` packed into the reusable scratch buffer; hand the buffer
    /// back with `self.scratch = words` when done.
    fn pack_scratch(&mut self, dim: Dim, open: &Plane<bool>) -> Vec<u64> {
        let mut words = std::mem::take(&mut self.scratch);
        words.clear();
        words.resize(words_for(dim), 0);
        pack(open.as_slice(), &mut words);
        words
    }

    /// The cached cluster plan for `open` given as a plane.
    fn plan_for_plane(&mut self, dim: Dim, dir: Direction, open: &Plane<bool>) -> Rc<BusPlan> {
        let words = self.pack_scratch(dim, open);
        let plan = self.plan_for_words(dim, dir, &words);
        self.scratch = words;
        plan
    }

    /// The slice entry holding bit `j` of `src`, most recently used last.
    /// A miss slices bits `0..=j` — every bit an MSB-first scan still
    /// needs — into the buffer of the entry it replaces.
    fn sliced(&mut self, src: &Plane<i64>, j: u32, nwords: usize) -> &SliceEntry {
        let data = src.shared();
        let same = |e: &SliceEntry| Arc::ptr_eq(&e.src, &data);
        if let Some(pos) = self.slices.iter().position(|e| same(e) && j < e.bits) {
            let entry = self.slices.remove(pos);
            self.slices.push(entry);
        } else {
            // Re-slice a shallower entry for the same plane, else evict
            // the least recently used entry once the cache is full.
            let evict = self
                .slices
                .iter()
                .position(same)
                .or_else(|| (self.slices.len() >= SLICE_CACHE_CAP).then_some(0));
            let mut planes = evict.map_or_else(Vec::new, |pos| self.slices.remove(pos).planes);
            let bits = j + 1;
            planes.resize(bits as usize * nwords, 0);
            slice_bits(&data, bits, nwords, &mut planes);
            self.slices.push(SliceEntry {
                src: data,
                bits,
                planes,
            });
        }
        &self.slices[self.slices.len() - 1]
    }
}

impl Default for PackedBackend {
    fn default() -> Self {
        PackedBackend::new()
    }
}

impl Executor for PackedBackend {
    type Mask = PackedMask;

    const NAME: &'static str = "packed";

    fn mask_from_plane(&mut self, dim: Dim, plane: &Plane<bool>) -> PackedMask {
        let mut mask = self.alloc_mask(dim);
        pack(plane.as_slice(), &mut mask.words);
        mask
    }

    fn mask_to_plane(&self, dim: Dim, mask: &PackedMask) -> Plane<bool> {
        Plane::from_vec(dim, (0..dim.len()).map(|i| mask.bit(i)).collect())
    }

    fn mask_filled(&mut self, dim: Dim, value: bool) -> PackedMask {
        let mut mask = self.alloc_mask(dim);
        if value {
            mask.words.fill(!0);
            mask.trim();
        }
        mask
    }

    fn mask_count(&self, _dim: Dim, mask: &PackedMask) -> usize {
        mask.count()
    }

    fn bit_plane(&mut self, dim: Dim, src: &Plane<i64>, j: u32) -> PackedMask {
        let nwords = words_for(dim);
        let mut mask = self.alloc_mask(dim);
        let at = j as usize * nwords;
        mask.words
            .copy_from_slice(&self.sliced(src, j, nwords).planes[at..at + nwords]);
        mask
    }

    fn vote(
        &mut self,
        dim: Dim,
        enable: &PackedMask,
        bit: &PackedMask,
        keep_low: bool,
    ) -> PackedMask {
        // Min rule `e & !b`, Max rule `e & b`. `enable` has zero trailing
        // bits, so the negation preserves the trim invariant.
        let mut out = self.alloc_mask(dim);
        for ((o, &e), &b) in out.words.iter_mut().zip(&enable.words).zip(&bit.words) {
            *o = if keep_low { e & !b } else { e & b };
        }
        #[cfg(any(test, feature = "mutation-drill"))]
        if self.perturb_vote {
            out.words[0] ^= 1;
        }
        out
    }

    fn knockout(
        &mut self,
        dim: Dim,
        enable: &PackedMask,
        present: &PackedMask,
        bit: &PackedMask,
        keep_low: bool,
    ) -> PackedMask {
        // Min rule `e & !(p & b)`, Max rule `e & (!p | b)`.
        let mut out = self.alloc_mask(dim);
        let inputs = enable.words.iter().zip(&present.words).zip(&bit.words);
        for (o, ((&e, &p), &b)) in out.words.iter_mut().zip(inputs) {
            *o = if keep_low { e & !(p & b) } else { e & (!p | b) };
        }
        out
    }

    fn mask_bus_or(
        &mut self,
        dim: Dim,
        values: &PackedMask,
        dir: Direction,
        open: &PackedMask,
    ) -> Result<PackedMask, MachineError> {
        let plan = self.plan_for_words(dim, dir, &open.words);
        let mut out = self.alloc_mask(dim);
        // Accumulator bitset indexed by cluster key: pass 1 deposits set
        // value bits at their cluster key, pass 2 reads each PE's key back.
        let mut acc = self.pool.borrow_mut().get(words_for(dim));
        if !plan.segs.is_empty() {
            // Row-axis fast path: each cluster is a handful of contiguous
            // runs, so both passes are word-masked range ops instead of
            // per-PE bit walks.
            for &(s, e, k) in &plan.segs {
                if range_any(&values.words, s as usize, e as usize) {
                    set_bit(&mut acc, k as usize);
                }
            }
            for &(s, e, k) in &plan.segs {
                if test_bit(&acc, k as usize) {
                    set_range(&mut out.words, s as usize, e as usize);
                }
            }
        } else {
            for_each_set_bit_in(&values.words, 0, dim.len(), |i| {
                set_bit(&mut acc, plan.keys[i] as usize);
            });
            for (wi, w) in out.words.iter_mut().enumerate() {
                let keys = &plan.keys[wi * 64..dim.len().min(wi * 64 + 64)];
                for (b, &key) in keys.iter().enumerate() {
                    *w |= (test_bit(&acc, key as usize) as u64) << b;
                }
            }
        }
        self.pool.borrow_mut().put(acc);
        Ok(out)
    }

    fn broadcast<T: Copy>(
        &mut self,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<T>, MachineError> {
        if src.dim() != dim {
            return Err(MachineError::DimMismatch {
                expected: dim,
                found: src.dim(),
            });
        }
        if open.dim() != dim {
            return Err(MachineError::DimMismatch {
                expected: dim,
                found: open.dim(),
            });
        }
        let words = self.pack_scratch(dim, open);
        let out = broadcast_words(dim, src.as_slice(), dir, &words);
        self.scratch = words;
        out
    }

    fn broadcast_masked<T: Copy>(
        &mut self,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        open: &PackedMask,
    ) -> Result<Plane<T>, MachineError> {
        if src.dim() != dim {
            return Err(MachineError::DimMismatch {
                expected: dim,
                found: src.dim(),
            });
        }
        broadcast_words(dim, src.as_slice(), dir, &open.words)
    }

    fn bus_or(
        &mut self,
        dim: Dim,
        values: &Plane<bool>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<bool>, MachineError> {
        if values.dim() != dim {
            return Err(MachineError::DimMismatch {
                expected: dim,
                found: values.dim(),
            });
        }
        if open.dim() != dim {
            return Err(MachineError::DimMismatch {
                expected: dim,
                found: open.dim(),
            });
        }
        let plan = self.plan_for_plane(dim, dir, open);
        let v = values.as_slice();
        let keys = &plan.keys;
        let mut acc = vec![false; dim.len()];
        for (i, &set) in v.iter().enumerate() {
            if set {
                acc[keys[i] as usize] = true;
            }
        }
        let data = (0..dim.len()).map(|i| acc[keys[i] as usize]).collect();
        Ok(Plane::from_vec(dim, data))
    }

    fn stats(&self) -> ExecStats {
        let pool = self.pool.borrow();
        ExecStats {
            plan_hits: self.plan_hits,
            plan_misses: self.plan_misses,
            arena_fresh: pool.fresh,
            arena_reused: pool.reused,
        }
    }

    fn reset_stats(&mut self) {
        self.plan_hits = 0;
        self.plan_misses = 0;
        let mut pool = self.pool.borrow_mut();
        pool.fresh = 0;
        pool.reused = 0;
    }
}

impl Machine<PackedBackend> {
    /// Creates a `rows x cols` machine on the packed backend.
    pub fn new_packed(rows: usize, cols: usize) -> Self {
        Machine::with_backend(Dim::new(rows, cols), PackedBackend::new())
    }

    /// Creates a square `n x n` machine on the packed backend.
    pub fn packed_square(n: usize) -> Self {
        Machine::new_packed(n, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ScalarBackend;

    fn plane_of(dim: Dim, f: impl Fn(usize) -> bool) -> Plane<bool> {
        Plane::from_vec(dim, (0..dim.len()).map(f).collect())
    }

    #[test]
    fn pack_roundtrip_preserves_bits() {
        let dim = Dim::new(5, 13); // 65 PEs: crosses a word boundary
        let plane = plane_of(dim, |i| i % 3 == 0 || i == 64);
        let mut be = PackedBackend::new();
        let mask = be.mask_from_plane(dim, &plane);
        assert_eq!(mask.count(), plane.count_true());
        assert_eq!(be.mask_to_plane(dim, &mask), plane);
    }

    #[test]
    fn filled_mask_trims_trailing_bits() {
        let dim = Dim::new(3, 3);
        let mut be = PackedBackend::new();
        let mask = be.mask_filled(dim, true);
        assert_eq!(mask.count(), 9);
        assert_eq!(mask.words[0], 0x1ff);
    }

    #[test]
    fn range_ops_cover_word_boundaries() {
        // `range_any`/`set_range` with boundaries on, inside and across
        // 64-bit words, plus a full span and an empty range.
        let nwords = 12; // 768 bits
        for (s, e) in [
            (0, 64),
            (64, 128),
            (60, 70),
            (120, 200),
            (250, 300),
            (255, 257), // one bit each side of a word boundary
            (500, 768), // runs to the very end
            (0, 768),   // everything
            (300, 300), // empty
        ] {
            let mut words = vec![0u64; nwords];
            set_range(&mut words, s, e);
            let count: u32 = words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(count as usize, e - s, "set_range {s}..{e}");
            for probe in 0..768 {
                let hit = range_any(&words, probe, probe + 1);
                assert_eq!(hit, (s..e).contains(&probe), "range {s}..{e} probe {probe}");
            }
            assert_eq!(range_any(&words, s, e), s != e);
            if s > 0 {
                assert!(!range_any(&words, 0, s), "prefix clean {s}..{e}");
            }
            if e < 768 {
                assert!(!range_any(&words, e, 768), "suffix clean {s}..{e}");
            }
        }
    }

    #[test]
    fn packed_bus_or_matches_scalar_reference() {
        // 9x9 = 81 PEs: row segments and column key walks straddle a word.
        let dim = Dim::square(9);
        let mut packed = PackedBackend::new();
        let mut scalar = ScalarBackend;
        for (seed, dir) in [
            (3usize, Direction::East),
            (7, Direction::South),
            (11, Direction::West),
            (5, Direction::North),
        ] {
            let open = plane_of(dim, |i| (i * seed + 1) % 4 == 0);
            let vals = plane_of(dim, |i| (i * seed) % 5 == 0);
            let pm = packed.mask_from_plane(dim, &open);
            let pv = packed.mask_from_plane(dim, &vals);
            let got = packed.mask_bus_or(dim, &pv, dir, &pm).unwrap();
            let want = scalar.mask_bus_or(dim, &vals, dir, &open).unwrap();
            assert_eq!(packed.mask_to_plane(dim, &got), want, "dir {dir:?}");
        }
    }

    #[test]
    fn vote_and_knockout_match_scalar() {
        let dim = Dim::new(9, 31); // 279 PEs: four full words and a partial one
        let mut packed = PackedBackend::new();
        let mut scalar = ScalarBackend;
        let enable = plane_of(dim, |i| i % 2 == 0);
        let present = plane_of(dim, |i| i % 3 != 0);
        let bit = plane_of(dim, |i| (i / 5) % 2 == 1);
        let (pe, pp, pb) = (
            packed.mask_from_plane(dim, &enable),
            packed.mask_from_plane(dim, &present),
            packed.mask_from_plane(dim, &bit),
        );
        for keep_low in [true, false] {
            let got = packed.vote(dim, &pe, &pb, keep_low);
            let want = scalar.vote(dim, &enable, &bit, keep_low);
            assert_eq!(packed.mask_to_plane(dim, &got), want, "vote {keep_low}");
            let got = packed.knockout(dim, &pe, &pp, &pb, keep_low);
            let want = scalar.knockout(dim, &enable, &present, &bit, keep_low);
            assert_eq!(packed.mask_to_plane(dim, &got), want, "knockout {keep_low}");
        }
    }

    #[test]
    fn plan_cache_hits_on_repeated_configurations() {
        // The wired-OR is the plan cache's user: one miss derives the
        // clusters, every replay of the same switch pattern hits.
        let dim = Dim::square(8);
        let mut be = PackedBackend::new();
        let open = be.mask_from_plane(dim, &plane_of(dim, |i| i % 8 == 0));
        let vals = be.mask_from_plane(dim, &plane_of(dim, |i| i % 5 == 0));
        for _ in 0..5 {
            be.mask_bus_or(dim, &vals, Direction::East, &open).unwrap();
        }
        let stats = be.stats();
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.plan_hits, 4);
        assert!(stats.plan_hit_rate() > 0.75);
    }

    #[test]
    fn broadcasts_need_no_plan() {
        let dim = Dim::square(8);
        let mut be = PackedBackend::new();
        let open = plane_of(dim, |i| i % 8 == 0);
        let src = Plane::from_vec(dim, (0..dim.len() as i64).collect());
        let mask = be.mask_from_plane(dim, &open);
        // East is fully driven; South faults on seven driverless columns.
        for dir in [Direction::East, Direction::South] {
            let _ = be.broadcast(dim, &src, dir, &open);
            let _ = be.broadcast_masked(dim, &src, dir, &mask);
        }
        assert_eq!(be.stats().plan_hits + be.stats().plan_misses, 0);
    }

    #[test]
    fn arena_recycles_mask_buffers() {
        let dim = Dim::square(16);
        let mut be = PackedBackend::new();
        for _ in 0..10 {
            let m = be.mask_filled(dim, true);
            drop(m);
        }
        let stats = be.stats();
        assert_eq!(stats.arena_fresh, 1, "one physical buffer serves the loop");
        assert_eq!(stats.arena_reused, 9);
    }

    #[test]
    fn driverless_broadcast_faults_like_scalar() {
        let dim = Dim::square(4);
        let mut be = PackedBackend::new();
        let open = plane_of(dim, |_| false);
        let src = Plane::filled(dim, 1i64);
        match be.broadcast(dim, &src, Direction::East, &open) {
            Err(MachineError::BusFault { lines, .. }) => assert_eq!(lines, vec![0, 1, 2, 3]),
            other => panic!("expected BusFault, got {other:?}"),
        }
    }

    #[test]
    fn perturbed_vote_differs_in_exactly_one_bit() {
        let dim = Dim::square(6);
        let enable = plane_of(dim, |i| i % 2 == 0);
        let bit = plane_of(dim, |i| i % 3 == 0);
        let mut clean = PackedBackend::new();
        let mut drilled = PackedBackend::with_perturbed_vote();
        let (ce, cb) = (
            clean.mask_from_plane(dim, &enable),
            clean.mask_from_plane(dim, &bit),
        );
        let (de, db) = (
            drilled.mask_from_plane(dim, &enable),
            drilled.mask_from_plane(dim, &bit),
        );
        let want = clean.vote(dim, &ce, &cb, true);
        let got = drilled.vote(dim, &de, &db, true);
        let diff: usize = (0..dim.len())
            .filter(|&i| want.bit(i) != got.bit(i))
            .count();
        assert_eq!(diff, 1, "exactly PE 0 corrupted");
    }
}
