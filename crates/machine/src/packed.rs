//! The packed execution backend: 64-PE bitset masks, bit-sliced integer
//! registers, a recycling word arena, plan-free broadcasts, and a bus-plan
//! cache for the wired-OR.
//!
//! [`PackedBackend`] implements [`Executor`] with five wall-clock levers
//! the scalar reference backend lacks:
//!
//! * **Packed masks** — every mask is a [`PackedMask`]: 64 PEs per `u64`
//!   word, so votes, knockouts, logic and occupancy counting are word ops
//!   and popcounts instead of per-PE byte walks.
//! * **Bit-sliced registers** — an `h`-bit integer register is a
//!   [`PackedInt`]: `h` plane-major bit-planes of such words, exactly the
//!   bit-serial PPA's register file. `bit(j)` is plane `j`; the saturating
//!   add is a ripple-carry chain over the planes; compares are an OR of
//!   XORs; a masked write is one word blend per plane. Values are sliced
//!   into planes once, when they are loaded (8×8 bit-matrix transposes).
//! * **Word arena** — mask and register words are recycled through a
//!   shared [`WordPool`], bucketed by length; after warm-up a solve
//!   allocates nothing.
//! * **Plan-free broadcasts** — a cluster-head broadcast reads the packed
//!   Open words directly. Row buses derive one piece list per Open mask
//!   and replay it on every bit-plane; column buses carry one row image
//!   per plane, updated with word ops at each row's Open bits and copied
//!   into each output row. No cluster plan is derived or cached.
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
use std::ops::Range;
use std::rc::Rc;

use crate::bus;
use crate::error::MachineError;
use crate::geometry::{Axis, Dim, Direction};
use crate::isa::{ExecStats, Executor};
use crate::machine::Machine;
use crate::plane::Plane;

/// Retained bus plans; the MCP loop needs ~5 distinct configurations, so a
/// small LRU never evicts a live plan while tolerating mask churn.
const PLAN_CACHE_CAP: usize = 32;

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

/// Keeps only the low `len % 64` bits of the last of `len.div_ceil(64)`
/// words (a no-op when `len` fills its last word).
fn trim_to(words: &mut [u64], len: usize) {
    let rem = len % 64;
    if rem != 0 {
        if let Some(last) = words.get_mut(len.div_ceil(64) - 1) {
            *last &= (1u64 << rem) - 1;
        }
    }
}

/// Copies bits `start..start + len` of a flat bitset into the first
/// `len.div_ceil(64)` words of `out` (bit `k` of the range lands on bit
/// `k`), with the bits past `len` cleared. Shifts, not per-bit loops: rows
/// of 32 or 96 PEs do not start on a word boundary.
fn read_bits(words: &[u64], start: usize, len: usize, out: &mut [u64]) {
    let (w0, off) = (start / 64, start % 64);
    for (k, o) in out[..len.div_ceil(64)].iter_mut().enumerate() {
        let lo = words[w0 + k] >> off;
        let hi = match (off, words.get(w0 + k + 1)) {
            (0, _) | (_, None) => 0,
            (_, Some(&next)) => next << (64 - off),
        };
        *o = lo | hi;
    }
    trim_to(out, len);
}

/// ORs the low `len` bits of `src` (zero past `len`) into bits
/// `start..start + len` of a flat bitset.
fn write_bits(words: &mut [u64], start: usize, len: usize, src: &[u64]) {
    let (w0, off) = (start / 64, start % 64);
    for (k, &v) in src[..len.div_ceil(64)].iter().enumerate() {
        words[w0 + k] |= v << off;
        if off != 0 {
            if let Some(next) = words.get_mut(w0 + k + 1) {
                *next |= v >> (64 - off);
            }
        }
    }
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

/// Transposes eight words as an 8×8 byte matrix: byte `g` of word `b`
/// moves to byte `b` of word `g` (three rounds of block swaps).
fn transpose_bytes(t: &mut [u64; 8]) {
    for (half, mask, pairs) in [
        (32, 0xffff_ffff, [(0, 4), (1, 5), (2, 6), (3, 7)]),
        (16, 0x0000_ffff_0000_ffff, [(0, 2), (1, 3), (4, 6), (5, 7)]),
        (8, 0x00ff_00ff_00ff_00ff, [(0, 1), (2, 3), (4, 5), (6, 7)]),
    ] {
        for (a, b) in pairs {
            let x = ((t[a] >> half) ^ t[b]) & mask;
            t[a] ^= x << half;
            t[b] ^= x;
        }
    }
}

/// Slices bits `0..bits` of 64 values into one word per bit-plane: bit `i`
/// of `planes[j]` is bit `j` of `chunk[i]`. Per value byte, each group of
/// eight values is an 8×8 bit matrix whose transpose holds one byte of
/// eight bit-planes; a byte transpose across the eight groups then
/// assembles whole plane words.
fn slice_chunk(chunk: &[i64; 64], bits: usize, planes: &mut [u64; 64]) {
    for k in 0..bits.div_ceil(8) {
        let mut t = [0u64; 8];
        for (g, values) in t.iter_mut().zip(chunk.as_chunks::<8>().0) {
            let row = values.iter().enumerate().fold(0u64, |row, (i, &x)| {
                row | (((x as u64 >> (8 * k)) & 0xff) << (8 * i))
            });
            *g = transpose8(row);
        }
        transpose_bytes(&mut t);
        let n = 8.min(bits - 8 * k);
        planes[8 * k..8 * k + n].copy_from_slice(&t[..n]);
    }
}

fn bus_fault(dir: Direction, lines: Vec<usize>) -> MachineError {
    MachineError::BusFault {
        axis: dir.axis(),
        lines,
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

/// The first set bit at or after `from` and before `limit` of a flat
/// bitset, or `limit` when there is none.
fn next_set(words: &[u64], from: usize, limit: usize) -> usize {
    let mut wi = from / 64;
    let mut w = words[wi] & (!0u64 << (from % 64));
    loop {
        if w != 0 {
            return (wi * 64 + w.trailing_zeros() as usize).min(limit);
        }
        wi += 1;
        if wi * 64 >= limit {
            return limit;
        }
        w = words[wi];
    }
}

/// The last set bit at or after `floor` and before `before` of a flat
/// bitset, if any.
fn prev_set(words: &[u64], floor: usize, before: usize) -> Option<usize> {
    if before <= floor {
        return None;
    }
    let last = before - 1;
    let mut wi = last / 64;
    let mut w = words[wi] & (!0u64 >> (63 - last % 64));
    loop {
        if w != 0 {
            let p = wi * 64 + 63 - w.leading_zeros() as usize;
            return (p >= floor).then_some(p);
        }
        if wi * 64 <= floor {
            return None;
        }
        wi -= 1;
        w = words[wi];
    }
}

/// Splits the Open PEs of a row-bus pattern into `alone` heads, whose
/// cluster is the head itself (the next PE downstream in its row is Open
/// too, or it sits at the row's downstream end), and `drivers`, the rest.
fn find_alone(
    dim: Dim,
    increasing: bool,
    open: &[u64],
    alone: &mut Vec<u64>,
    drivers: &mut Vec<u64>,
) {
    alone.extend(open.iter().enumerate().map(|(wi, &w)| {
        if increasing {
            w >> 1 | open.get(wi + 1).map_or(0, |&n| n << 63)
        } else {
            w << 1 | wi.checked_sub(1).map_or(0, |p| open[p] >> 63)
        }
    }));
    for r in 0..dim.rows {
        let end = if increasing {
            (r + 1) * dim.cols - 1
        } else {
            r * dim.cols
        };
        set_bit(alone, end);
    }
    for (a, &o) in alone.iter_mut().zip(open) {
        *a &= o;
        drivers.push(o & !*a);
    }
}

/// The cluster structure of one row-bus broadcast, derived once per Open
/// mask and replayed on every bit-plane of a register. A cluster longer
/// than one PE is a segment of flat PEs filled with its head's value; a
/// head whose cluster is itself alone (the next PE downstream is also
/// Open) drives only itself, so runs of Open PEs are found with word
/// shifts and cost one copy mask per word — dense Open masks, such as the
/// ties of an all-`MAXINT` row, stay cheap.
#[derive(Debug, Clone, Default)]
struct RowPieces {
    /// `(start, end, head)` flat ranges; a single-head row is one segment.
    segs: Vec<(usize, usize, usize)>,
    /// `(word, mask)` of the one-PE clusters.
    copies: Vec<(usize, u64)>,
    /// The one-PE-cluster heads, then the other heads, as flat bitsets.
    alone: Vec<u64>,
    drivers: Vec<u64>,
    /// The geometry and Open words the pieces were derived from (no words:
    /// none). The MCP loop replays one West pattern (`COL == n - 1`) for a
    /// whole session.
    key: (Option<Dim>, Vec<u64>),
}

impl RowPieces {
    /// Derives the pieces for `open` unless they are already held; the
    /// driverless rows, ascending, are the error.
    fn derive(&mut self, dim: Dim, dir: Direction, open: &[u64]) -> Result<(), Vec<usize>> {
        if self.key.0 == Some(dim) && self.key.1 == open {
            return Ok(());
        }
        self.key.1.clear();
        self.derive_afresh(dim, dir, open)?;
        self.key = (Some(dim), std::mem::take(&mut self.key.1));
        self.key.1.extend_from_slice(open);
        Ok(())
    }

    fn derive_afresh(&mut self, dim: Dim, dir: Direction, open: &[u64]) -> Result<(), Vec<usize>> {
        let cols = dim.cols;
        let increasing = dir.is_increasing();
        let RowPieces {
            segs,
            copies,
            alone,
            drivers,
            ..
        } = self;
        segs.clear();
        copies.clear();
        alone.clear();
        drivers.clear();
        let mut push = |s: usize, e: usize, head: usize| match segs.last_mut() {
            Some((_, end, h)) if *end == s && *h == head => *end = e,
            _ => segs.push((s, e, head)),
        };
        let mut driverless = Vec::new();
        for r in 0..dim.rows {
            let (base, end) = (r * cols, (r + 1) * cols);
            let first = next_set(open, base, end);
            let Some(last) = prev_set(open, base, end) else {
                driverless.push(r);
                continue;
            };
            if !driverless.is_empty() {
                continue; // the broadcast faults; only later lines matter
            }
            if first == last {
                // One head drives the whole (circular) row.
                push(base, end, first);
                continue;
            }
            if alone.is_empty() {
                find_alone(dim, increasing, open, alone, drivers);
            }
            // The wrap segment: before the first head eastward (driven by
            // the last), after the last head westward (driven by the first).
            if increasing && first > base {
                push(base, first, last);
            }
            // Eastward a head drives up to the next Open node; westward
            // back to the previous one.
            for_each_set_bit_in(drivers, base, end, |head| {
                if increasing {
                    push(head, next_set(open, head + 1, end), head);
                } else {
                    push(
                        prev_set(open, base, head).map_or(base, |q| q + 1),
                        head + 1,
                        head,
                    );
                }
            });
            if !increasing && last + 1 < end {
                push(last + 1, end, first);
            }
        }
        if !driverless.is_empty() {
            return Err(driverless);
        }
        // A single-head row's head may be marked alone too; copying its
        // own bit under its fill is harmless.
        copies.extend(
            alone
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a != 0)
                .map(|(wi, &a)| (wi, a)),
        );
        Ok(())
    }

    /// Broadcasts every bit-plane of `src` (`nw` words each) into the
    /// zeroed planes of `out`. Each segment reads its head's value once,
    /// then sets its range in the planes of the value's one bits.
    fn apply(&self, nw: usize, src: &[u64], out: &mut [u64]) {
        for (s, o) in src.chunks(nw).zip(out.chunks_mut(nw)) {
            for &(wi, m) in &self.copies {
                o[wi] |= s[wi] & m;
            }
        }
        let bits = src.len() / nw.max(1);
        for &(start, end, head) in &self.segs {
            let (hw, hb) = (head / 64, head % 64);
            let value = (0..bits).fold(0u64, |v, j| v | ((src[j * nw + hw] >> hb) & 1) << j);
            if value == 0 {
                continue;
            }
            for (wi, m) in pieces(start, end) {
                let mut ones = value;
                while ones != 0 {
                    out[ones.trailing_zeros() as usize * nw + wi] |= m;
                    ones &= ones - 1;
                }
            }
        }
    }
}

/// The Open pattern of one column-bus broadcast, analysed once and replayed
/// on every bit-plane of a register.
#[derive(Debug, Clone, Default)]
struct ColHeads {
    /// Per column, the flat index of its Open node — meaningful when every
    /// column has exactly one (`single`): then each column is one cluster
    /// and every output row is the same image.
    heads: Vec<usize>,
    single: bool,
    /// Row `r`'s Open bits at words `r * rw..(r + 1) * rw` (multi-head
    /// patterns only).
    open_rows: Vec<u64>,
    /// Working rows: source rows, the carried image, the tiling period.
    rows: Vec<u64>,
    image: Vec<u64>,
    pattern: Vec<u64>,
}

impl ColHeads {
    /// Analyses `open`; the driverless columns, ascending, are the error.
    fn derive(&mut self, dim: Dim, open: &[u64]) -> Result<(), Vec<usize>> {
        let (rows, cols, rw) = (dim.rows, dim.cols, dim.cols.div_ceil(64));
        const NONE: usize = usize::MAX;
        self.heads.clear();
        self.heads.resize(cols, NONE);
        self.single = true;
        // One walk over the Open bits in flat order, tracking the row.
        let mut base = 0;
        for (wi, &w) in open.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let p = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                while p >= base + cols {
                    base += cols;
                }
                let head = &mut self.heads[p - base];
                self.single &= *head == NONE;
                *head = p;
            }
        }
        let driverless: Vec<usize> = (0..cols).filter(|&c| self.heads[c] == NONE).collect();
        if !driverless.is_empty() {
            return Err(driverless);
        }
        if !self.single {
            self.open_rows.clear();
            self.open_rows.resize(rows * rw, 0);
            for r in 0..rows {
                read_bits(open, r * cols, cols, &mut self.open_rows[r * rw..]);
            }
        }
        Ok(())
    }

    /// Broadcasts one bit-plane `src` into the zeroed plane `out`.
    fn apply(&mut self, dim: Dim, dir: Direction, open: &[u64], src: &[u64], out: &mut [u64]) {
        let (rows, cols, rw) = (dim.rows, dim.cols, dim.cols.div_ceil(64));
        self.image.clear();
        self.image.resize(rw, 0);
        if self.single {
            // One head per column: every output row is the image of the
            // heads' bits. When `cols` divides 64 every word holds whole
            // rows in the same slots, so the image is an OR-fold of
            // `src & open`, then of the slots, halving; otherwise each
            // column's head bit is gathered.
            if row_period(cols) == 1 {
                let mut w = src.iter().zip(open).fold(0, |acc, (&x, &y)| acc | (x & y));
                let mut width = 64;
                while width > cols {
                    width /= 2;
                    w |= w >> width;
                }
                self.image[0] = w & range_mask(0, cols);
            } else {
                for (c, &p) in self.heads.iter().enumerate() {
                    self.image[c / 64] |= ((src[p / 64] >> (p % 64)) & 1) << (c % 64);
                }
            }
            tile_rows(dim, &self.image, &mut self.pattern, out);
            return;
        }
        self.rows.clear();
        self.rows.resize(rows * rw, 0);
        for r in 0..rows {
            read_bits(src, r * cols, cols, &mut self.rows[r * rw..]);
        }
        // Pass 0 primes each column with its last head in movement order
        // (the driver of the PEs before its first Open node); pass 1
        // updates `(carried & !open) | (src & open)` and writes each row.
        for pass in 0..2 {
            for pos in 0..rows {
                let r = if dir.is_increasing() {
                    pos
                } else {
                    rows - 1 - pos
                };
                let open = &self.open_rows[r * rw..(r + 1) * rw];
                let row = &self.rows[r * rw..(r + 1) * rw];
                for ((c, &o), &s) in self.image.iter_mut().zip(open).zip(row) {
                    *c = (*c & !o) | (s & o);
                }
                if pass == 1 {
                    write_bits(out, r * cols, cols, &self.image);
                }
            }
        }
    }
}

/// Rows of `cols` bits repeat every `cols / gcd(cols, 64)` words.
fn row_period(cols: usize) -> usize {
    cols >> cols.trailing_zeros().min(6)
}

/// Writes the row image `image` into every row of the zeroed plane `out`.
/// The rows repeat with a period of `cols / gcd(cols, 64)` words, so one
/// period is assembled in `pattern` and copied word for word.
fn tile_rows(dim: Dim, image: &[u64], pattern: &mut Vec<u64>, out: &mut [u64]) {
    let cols = dim.cols;
    let period = row_period(cols);
    if period == 1 {
        // `cols` divides 64: a multiply copies the row into every slot.
        let word = if cols == 64 {
            image[0]
        } else {
            image[0] * (!0 / range_mask(0, cols))
        };
        out.fill(word);
        trim_to(out, dim.len());
        return;
    }
    if period >= out.len() {
        for r in 0..dim.rows {
            write_bits(out, r * cols, cols, image);
        }
        return;
    }
    pattern.clear();
    pattern.resize(period, 0);
    for r in 0..period * 64 / cols {
        write_bits(pattern, r * cols, cols, image);
    }
    for (k, &p) in pattern.iter().enumerate() {
        for w in out[k..].iter_mut().step_by(period) {
            *w = p;
        }
    }
    trim_to(out, dim.len());
}

/// The shared word arena: spent buffers waiting to be reissued, bucketed by
/// length. A backend leases a handful of lengths (one mask, one register,
/// the wired-OR accumulator), so mixed mask and register traffic never
/// throws a buffer away.
#[derive(Debug, Default)]
struct WordPool {
    free: Vec<(usize, Vec<Vec<u64>>)>,
    fresh: u64,
    reused: u64,
}

impl WordPool {
    /// A zeroed buffer of exactly `words` words, recycled when possible.
    fn get(&mut self, words: usize) -> Vec<u64> {
        let spare = self
            .free
            .iter_mut()
            .find(|(len, _)| *len == words)
            .and_then(|(_, bucket)| bucket.pop());
        match spare {
            Some(mut buf) => {
                self.reused += 1;
                buf.fill(0);
                buf
            }
            None => {
                self.fresh += 1;
                vec![0; words]
            }
        }
    }

    fn put(&mut self, buf: Vec<u64>) {
        if buf.is_empty() {
            return;
        }
        match self.free.iter_mut().find(|(len, _)| *len == buf.len()) {
            Some((_, bucket)) => bucket.push(buf),
            None => self.free.push((buf.len(), vec![buf])),
        }
    }
}

/// A word buffer leased from a [`WordPool`]: dropping or cloning it goes
/// through the arena.
struct Lease {
    words: Vec<u64>,
    pool: Rc<RefCell<WordPool>>,
}

impl Lease {
    fn new(pool: &Rc<RefCell<WordPool>>, words: usize) -> Self {
        Lease {
            words: pool.borrow_mut().get(words),
            pool: Rc::clone(pool),
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.pool.borrow_mut().put(std::mem::take(&mut self.words));
    }
}

impl Clone for Lease {
    fn clone(&self) -> Self {
        let mut copy = Lease::new(&self.pool, self.words.len());
        copy.words.copy_from_slice(&self.words);
        copy
    }
}

/// A boolean mask plane packed 64 PEs per `u64` word (row-major flat
/// order).
///
/// Buffers are leased from the backend's [`WordPool`], so steady-state
/// mask traffic allocates nothing. Bits at positions `>= dim.len()` in the
/// last word are always zero (every producing operation maintains the
/// invariant).
#[derive(Clone)]
pub struct PackedMask {
    dim: Dim,
    buf: Lease,
}

impl PackedMask {
    /// Whether the bit for flat PE index `i` is set.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        test_bit(&self.buf.words, i)
    }

    /// Number of set PEs (a popcount per word).
    pub fn count(&self) -> usize {
        self.buf.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The mask geometry.
    pub fn dim(&self) -> Dim {
        self.dim
    }

    fn words(&self) -> &[u64] {
        &self.buf.words
    }
}

impl PartialEq for PackedMask {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.words() == other.words()
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

/// An `h`-bit unsigned integer register held as `h` bit-planes: plane `j`
/// is a [`PackedMask`]-layout bitset of bit `j` of every PE, stored at
/// words `j * nwords..(j + 1) * nwords`. Leased from the same arena as the
/// masks; every plane keeps the mask trim invariant.
#[derive(Clone)]
pub struct PackedInt {
    dim: Dim,
    bits: u32,
    buf: Lease,
}

impl PackedInt {
    /// The register geometry.
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// The register width `h` (number of bit-planes).
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The value at flat PE index `i`.
    pub fn value(&self, i: usize) -> i64 {
        let nw = words_for(self.dim);
        (0..self.bits as usize).fold(0i64, |v, j| {
            v | (i64::from(test_bit(&self.buf.words[j * nw..], i)) << j)
        })
    }

    fn plane(&self, j: usize) -> &[u64] {
        let nw = words_for(self.dim);
        &self.buf.words[j * nw..(j + 1) * nw]
    }
}

impl PartialEq for PackedInt {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.bits == other.bits && self.buf.words == other.buf.words
    }
}

impl std::fmt::Debug for PackedInt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedInt")
            .field("dim", &self.dim)
            .field("bits", &self.bits)
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

/// The kernel a mutation drill corrupts.
#[cfg(any(test, feature = "mutation-drill"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Drill {
    /// Flip bit 0 of every vote's first word.
    Vote,
    /// Flip the lowest bit of every saturating sum.
    Adder,
}

/// The packed bit-plane execution backend (see module docs).
#[derive(Debug, Clone)]
pub struct PackedBackend {
    pool: Rc<RefCell<WordPool>>,
    plans: Vec<PlanEntry>,
    plan_hits: u64,
    plan_misses: u64,
    scratch: Vec<u64>,
    /// Row-bus pieces, one set per direction of movement (East, West).
    pieces: [RowPieces; 2],
    col_heads: ColHeads,
    /// Bench-gate mutation drill only: the kernel to corrupt.
    #[cfg(any(test, feature = "mutation-drill"))]
    drill: Option<Drill>,
}

impl PackedBackend {
    /// A fresh backend with an empty arena and plan cache.
    pub fn new() -> Self {
        PackedBackend {
            pool: Rc::new(RefCell::new(WordPool::default())),
            plans: Vec::new(),
            plan_hits: 0,
            plan_misses: 0,
            scratch: Vec::new(),
            pieces: Default::default(),
            col_heads: ColHeads::default(),
            #[cfg(any(test, feature = "mutation-drill"))]
            drill: None,
        }
    }

    /// A deliberately broken backend whose `vote` flips bit 0 of its first
    /// output word — the bench-gate mutation drill uses this to prove the
    /// bit-identity gate actually fails on a one-bit kernel corruption.
    /// Never compiled into release binaries.
    #[cfg(any(test, feature = "mutation-drill"))]
    pub fn with_perturbed_vote() -> Self {
        let mut be = PackedBackend::new();
        be.drill = Some(Drill::Vote);
        be
    }

    /// A deliberately broken backend whose register adder flips the lowest
    /// bit of every sum — the mutation drill's register-kernel case. Never
    /// compiled into release binaries.
    #[cfg(any(test, feature = "mutation-drill"))]
    pub fn with_perturbed_adder() -> Self {
        let mut be = PackedBackend::new();
        be.drill = Some(Drill::Adder);
        be
    }

    #[cfg(any(test, feature = "mutation-drill"))]
    fn drilled(&self, kernel: Drill) -> bool {
        self.drill == Some(kernel)
    }

    fn alloc_mask(&mut self, dim: Dim) -> PackedMask {
        PackedMask {
            dim,
            buf: Lease::new(&self.pool, words_for(dim)),
        }
    }

    fn alloc_int(&mut self, dim: Dim, bits: u32) -> PackedInt {
        PackedInt {
            dim,
            bits,
            buf: Lease::new(&self.pool, bits as usize * words_for(dim)),
        }
    }

    /// A mask computed word by word from `f(word index)`.
    fn mask_from_words(&mut self, dim: Dim, f: impl Fn(usize) -> u64) -> PackedMask {
        let mut out = self.alloc_mask(dim);
        for (wi, w) in out.buf.words.iter_mut().enumerate() {
            *w = f(wi);
        }
        trim_to(&mut out.buf.words, dim.len());
        out
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

    /// A register with the same value on every PE of each row (`by_row`)
    /// or of each column: plane `j` of a row image has bit `c` set when
    /// bit `j` of `value(c)` is, and is copied into every row.
    fn int_by_line(
        &mut self,
        dim: Dim,
        h: u32,
        by_row: bool,
        mut value: impl FnMut(usize) -> i64,
    ) -> PackedInt {
        let mut out = self.alloc_int(dim, h);
        let (nw, cols) = (words_for(dim), dim.cols);
        if by_row {
            for r in 0..dim.rows {
                let v = value(r) as u64;
                for j in (0..h as usize).filter(|&j| (v >> j) & 1 == 1) {
                    set_range(&mut out.buf.words[j * nw..], r * cols, (r + 1) * cols);
                }
            }
            return out;
        }
        let rw = cols.div_ceil(64);
        let mut images = vec![0u64; h as usize * rw];
        for c in 0..cols {
            let v = value(c) as u64;
            for j in (0..h as usize).filter(|&j| (v >> j) & 1 == 1) {
                set_bit(&mut images[j * rw..], c);
            }
        }
        for j in 0..h as usize {
            let plane = &mut out.buf.words[j * nw..(j + 1) * nw];
            for r in 0..dim.rows {
                write_bits(plane, r * cols, cols, &images[j * rw..(j + 1) * rw]);
            }
        }
        out
    }
}

impl Default for PackedBackend {
    fn default() -> Self {
        PackedBackend::new()
    }
}

impl Executor for PackedBackend {
    type Mask = PackedMask;
    type Int = PackedInt;

    const NAME: &'static str = "packed";

    fn mask_from_plane(&mut self, dim: Dim, plane: &Plane<bool>) -> PackedMask {
        let mut mask = self.alloc_mask(dim);
        pack(plane.as_slice(), &mut mask.buf.words);
        mask
    }

    fn mask_to_plane(&self, dim: Dim, mask: &PackedMask) -> Plane<bool> {
        Plane::from_vec(dim, (0..dim.len()).map(|i| mask.bit(i)).collect())
    }

    fn mask_filled(&mut self, dim: Dim, value: bool) -> PackedMask {
        self.mask_from_words(dim, |_| if value { !0 } else { 0 })
    }

    fn mask_count(&self, _dim: Dim, mask: &PackedMask) -> usize {
        mask.count()
    }

    fn mask_any_in(&self, dim: Dim, mask: &PackedMask, row: usize, cols: Range<usize>) -> bool {
        let base = row * dim.cols;
        range_any(mask.words(), base + cols.start, base + cols.end)
    }

    fn mask_and(&mut self, dim: Dim, a: &PackedMask, b: &PackedMask) -> PackedMask {
        self.mask_from_words(dim, |wi| a.words()[wi] & b.words()[wi])
    }

    fn mask_or(&mut self, dim: Dim, a: &PackedMask, b: &PackedMask) -> PackedMask {
        self.mask_from_words(dim, |wi| a.words()[wi] | b.words()[wi])
    }

    fn mask_not(&mut self, dim: Dim, a: &PackedMask) -> PackedMask {
        self.mask_from_words(dim, |wi| !a.words()[wi])
    }

    fn vote(
        &mut self,
        dim: Dim,
        enable: &PackedMask,
        bit: &PackedMask,
        keep_low: bool,
    ) -> PackedMask {
        // Min rule `e & !b`, Max rule `e & b`.
        let (e, b) = (enable.words(), bit.words());
        #[allow(unused_mut)]
        let mut out = if keep_low {
            self.mask_from_words(dim, |wi| e[wi] & !b[wi])
        } else {
            self.mask_from_words(dim, |wi| e[wi] & b[wi])
        };
        #[cfg(any(test, feature = "mutation-drill"))]
        if self.drilled(Drill::Vote) {
            out.buf.words[0] ^= 1;
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
        let (e, p, b) = (enable.words(), present.words(), bit.words());
        if keep_low {
            self.mask_from_words(dim, |wi| e[wi] & !(p[wi] & b[wi]))
        } else {
            self.mask_from_words(dim, |wi| e[wi] & (!p[wi] | b[wi]))
        }
    }

    fn mask_bus_or(
        &mut self,
        dim: Dim,
        values: &PackedMask,
        dir: Direction,
        open: &PackedMask,
    ) -> Result<PackedMask, MachineError> {
        let plan = self.plan_for_words(dim, dir, open.words());
        let mut out = self.alloc_mask(dim);
        // Accumulator bitset indexed by cluster key: pass 1 deposits set
        // value bits at their cluster key, pass 2 reads each PE's key back.
        let mut acc = Lease::new(&self.pool, words_for(dim));
        let acc = &mut acc.words;
        let vals = values.words();
        let out_words = &mut out.buf.words;
        if !plan.segs.is_empty() {
            // Row-axis fast path: each cluster is a handful of contiguous
            // runs, so both passes are word-masked range ops instead of
            // per-PE bit walks.
            for &(s, e, k) in &plan.segs {
                if range_any(vals, s as usize, e as usize) {
                    set_bit(acc, k as usize);
                }
            }
            for &(s, e, k) in &plan.segs {
                if test_bit(acc, k as usize) {
                    set_range(out_words, s as usize, e as usize);
                }
            }
        } else {
            for_each_set_bit_in(vals, 0, dim.len(), |i| {
                set_bit(acc, plan.keys[i] as usize);
            });
            for (wi, w) in out_words.iter_mut().enumerate() {
                let keys = &plan.keys[wi * 64..dim.len().min(wi * 64 + 64)];
                for (b, &key) in keys.iter().enumerate() {
                    *w |= (test_bit(acc, key as usize) as u64) << b;
                }
            }
        }
        Ok(out)
    }

    fn int_from_fn(
        &mut self,
        dim: Dim,
        h: u32,
        mut value: impl FnMut(usize, usize) -> i64,
    ) -> PackedInt {
        let mut out = self.alloc_int(dim, h);
        let (nw, bits) = (words_for(dim), h as usize);
        let (mut chunk, mut planes) = ([0i64; 64], [0u64; 64]);
        let (mut filled, mut wi) = (0, 0);
        let mut flush = |chunk: &mut [i64; 64], filled: usize, wi: usize| {
            // A partial last word's missing PEs slice as zeros (the trim
            // invariant).
            chunk[filled..].fill(0);
            slice_chunk(chunk, bits, &mut planes);
            for (j, &p) in planes[..bits].iter().enumerate() {
                out.buf.words[j * nw + wi] = p;
            }
        };
        for r in 0..dim.rows {
            for c in 0..dim.cols {
                chunk[filled] = value(r, c);
                filled += 1;
                if filled == 64 {
                    flush(&mut chunk, filled, wi);
                    (filled, wi) = (0, wi + 1);
                }
            }
        }
        if filled > 0 {
            flush(&mut chunk, filled, wi);
        }
        out
    }

    fn int_by_row(&mut self, dim: Dim, h: u32, value: impl FnMut(usize) -> i64) -> PackedInt {
        self.int_by_line(dim, h, true, value)
    }

    fn int_by_col(&mut self, dim: Dim, h: u32, value: impl FnMut(usize) -> i64) -> PackedInt {
        self.int_by_line(dim, h, false, value)
    }

    fn int_to_plane(&self, dim: Dim, reg: &PackedInt) -> Plane<i64> {
        let mut data = vec![0i64; dim.len()];
        for j in 0..reg.bits as usize {
            for_each_set_bit_in(reg.plane(j), 0, dim.len(), |i| data[i] |= 1 << j);
        }
        Plane::from_vec(dim, data)
    }

    fn int_row(&self, dim: Dim, reg: &PackedInt, row: usize, cols: Range<usize>) -> Vec<i64> {
        let start = row * dim.cols + cols.start;
        let mut out = vec![0i64; cols.len()];
        for j in 0..reg.bits as usize {
            for_each_set_bit_in(reg.plane(j), start, start + cols.len(), |i| {
                out[i - start] |= 1 << j;
            });
        }
        out
    }

    fn int_sat_add(&mut self, dim: Dim, h: u32, a: &PackedInt, b: &PackedInt) -> PackedInt {
        debug_assert!(a.bits == h && b.bits == h, "register width mismatch");
        let mut out = self.alloc_int(dim, h);
        let nw = words_for(dim);
        // Ripple carry up the planes, one word vector per plane; a carry out
        // of the top plane means the sum reached 2^h, which saturates to
        // MAXINT (all ones).
        let mut carry = Lease::new(&self.pool, nw);
        let carry = &mut carry.words;
        let planes = a.buf.words.chunks(nw).zip(b.buf.words.chunks(nw));
        for (s, (x, y)) in out.buf.words.chunks_mut(nw).zip(planes) {
            for (((s, &p), &q), c) in s.iter_mut().zip(x).zip(y).zip(carry.iter_mut()) {
                *s = p ^ q ^ *c;
                *c = (p & q) | (*c & (p ^ q));
            }
        }
        for s in out.buf.words.chunks_mut(nw) {
            for (s, &c) in s.iter_mut().zip(carry.iter()) {
                *s |= c;
            }
        }
        #[cfg(any(test, feature = "mutation-drill"))]
        if self.drilled(Drill::Adder) {
            for w in &mut out.buf.words[..nw] {
                *w = !*w;
            }
            trim_to(&mut out.buf.words[..nw], dim.len());
        }
        out
    }

    fn int_eq(&mut self, dim: Dim, a: &PackedInt, b: &PackedInt, equal: bool) -> PackedMask {
        let nw = words_for(dim);
        let mut out = self.alloc_mask(dim);
        for (x, y) in a.buf.words.chunks(nw).zip(b.buf.words.chunks(nw)) {
            for ((d, &p), &q) in out.buf.words.iter_mut().zip(x).zip(y) {
                *d |= p ^ q;
            }
        }
        if equal {
            for d in out.buf.words.iter_mut() {
                *d = !*d;
            }
            trim_to(&mut out.buf.words, dim.len());
        }
        out
    }

    fn int_assign(
        &mut self,
        dim: Dim,
        dst: &mut PackedInt,
        src: &PackedInt,
        mask: Option<&PackedMask>,
    ) {
        debug_assert_eq!(dst.bits, src.bits, "register width mismatch");
        let Some(mask) = mask else {
            dst.buf.words.copy_from_slice(&src.buf.words);
            return;
        };
        let m = mask.words();
        for (d, s) in dst
            .buf
            .words
            .chunks_mut(words_for(dim))
            .zip(src.buf.words.chunks(words_for(dim)))
        {
            for ((d, &s), &m) in d.iter_mut().zip(s).zip(m) {
                *d = (*d & !m) | (s & m);
            }
        }
    }

    fn int_broadcast(
        &mut self,
        dim: Dim,
        src: &PackedInt,
        dir: Direction,
        open: &PackedMask,
    ) -> Result<PackedInt, MachineError> {
        let mut out = self.alloc_int(dim, src.bits);
        let nw = words_for(dim);
        match dir.axis() {
            Axis::Row => {
                let pieces = &mut self.pieces[usize::from(dir.is_increasing())];
                pieces
                    .derive(dim, dir, open.words())
                    .map_err(|lines| bus_fault(dir, lines))?;
                pieces.apply(nw, &src.buf.words, &mut out.buf.words);
            }
            Axis::Col => {
                self.col_heads
                    .derive(dim, open.words())
                    .map_err(|lines| bus_fault(dir, lines))?;
                for (s, o) in src.buf.words.chunks(nw).zip(out.buf.words.chunks_mut(nw)) {
                    self.col_heads.apply(dim, dir, open.words(), s, o);
                }
            }
        }
        Ok(out)
    }

    fn int_bit(&mut self, dim: Dim, src: &PackedInt, j: u32) -> PackedMask {
        let plane = src.plane(j as usize);
        self.mask_from_words(dim, |wi| plane[wi])
    }

    fn assign_plane<T: Copy>(
        &mut self,
        dim: Dim,
        dst: &mut Plane<T>,
        src: &Plane<T>,
        mask: Option<&PackedMask>,
    ) {
        let Some(mask) = mask else {
            *dst = src.clone();
            return;
        };
        // In place: a shared `dst` buffer is unshared first (copy-on-write).
        let (s, d) = (src.as_slice(), dst.as_mut_slice());
        for_each_set_bit_in(mask.words(), 0, dim.len(), |i| d[i] = s[i]);
    }

    fn broadcast<T: Copy>(
        &mut self,
        dim: Dim,
        src: &Plane<T>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<T>, MachineError> {
        for found in [src.dim(), open.dim()] {
            if found != dim {
                return Err(MachineError::DimMismatch {
                    expected: dim,
                    found,
                });
            }
        }
        // Plan-free, straight from the packed Open words: row buses fill
        // each cluster segment with its head's value (one-PE clusters keep
        // their own), column buses carry a row of head values.
        let words = self.pack_scratch(dim, open);
        let src = src.as_slice();
        let out = match dir.axis() {
            Axis::Row => {
                let pieces = &mut self.pieces[usize::from(dir.is_increasing())];
                pieces.derive(dim, dir, &words).map(|()| {
                    let mut out = src.to_vec();
                    for &(s, e, head) in &pieces.segs {
                        out[s..e].fill(src[head]);
                    }
                    out
                })
            }
            Axis::Col => broadcast_cols(dim, src, dir, &words),
        };
        self.scratch = words;
        out.map(|data| Plane::from_vec(dim, data))
            .map_err(|lines| bus_fault(dir, lines))
    }

    fn bus_or(
        &mut self,
        dim: Dim,
        values: &Plane<bool>,
        dir: Direction,
        open: &Plane<bool>,
    ) -> Result<Plane<bool>, MachineError> {
        for found in [values.dim(), open.dim()] {
            if found != dim {
                return Err(MachineError::DimMismatch {
                    expected: dim,
                    found,
                });
            }
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
        assert_eq!(mask.words()[0], 0x1ff);
        let none = be.mask_filled(dim, false);
        let not = be.mask_not(dim, &none);
        assert_eq!(not.words()[0], 0x1ff, "negation keeps the trim");
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
    fn bit_reads_and_writes_round_trip_at_every_offset() {
        let words: Vec<u64> = (0..6u64)
            .map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        for start in [0, 1, 31, 63, 64, 65, 100] {
            for len in [1, 13, 32, 63, 64, 65, 96, 128] {
                if start + len > 384 {
                    continue;
                }
                let mut row = vec![0u64; 3];
                read_bits(&words, start, len, &mut row);
                let mut back = vec![0u64; 6];
                write_bits(&mut back, start, len, &row);
                for i in 0..384 {
                    let want = (start..start + len).contains(&i) && test_bit(&words, i);
                    assert_eq!(test_bit(&back, i), want, "start {start} len {len} bit {i}");
                }
            }
        }
    }

    #[test]
    fn slicing_matches_per_bit_extraction() {
        let mut be = PackedBackend::new();
        for (rows, cols) in [(5, 13), (1, 64), (3, 100)] {
            let dim = Dim::new(rows, cols);
            for h in [1u32, 7, 8, 9, 16, 17, 62] {
                let value = |r: usize, c: usize| {
                    let x = ((r * cols + c) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    (x >> (64 - h)) as i64
                };
                let reg = be.int_from_fn(dim, h, value);
                for i in 0..dim.len() {
                    assert_eq!(reg.value(i), value(i / cols, i % cols), "h={h} PE {i}");
                }
                for j in 0..h as usize {
                    let ones: u32 = reg.plane(j).iter().map(|w| w.count_ones()).sum();
                    let want = (0..dim.len()).filter(|&i| (reg.value(i) >> j) & 1 == 1);
                    assert_eq!(
                        ones as usize,
                        want.count(),
                        "plane {j}: no bit past the last PE"
                    );
                }
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
        let reg = be.int_from_fn(dim, 6, |r, c| (r * 8 + c) as i64);
        let mask = be.mask_from_plane(dim, &open);
        // East is fully driven; South faults on seven driverless columns.
        for dir in [Direction::East, Direction::South] {
            let _ = be.broadcast(dim, &src, dir, &open);
            let _ = be.int_broadcast(dim, &reg, dir, &mask);
        }
        assert_eq!(be.stats().plan_hits + be.stats().plan_misses, 0);
    }

    #[test]
    fn arena_recycles_mask_and_register_buffers() {
        let dim = Dim::square(16);
        let mut be = PackedBackend::new();
        for _ in 0..10 {
            // Interleaved lengths: a mask, then an 11-plane register.
            let m = be.mask_filled(dim, true);
            let r = be.int_by_row(dim, 11, |_| 5);
            drop((m, r));
        }
        let stats = be.stats();
        assert_eq!(stats.arena_fresh, 2, "one physical buffer per length");
        assert_eq!(stats.arena_reused, 18);
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

    #[test]
    fn perturbed_adder_flips_the_lowest_bit_of_every_sum() {
        let dim = Dim::new(5, 13); // 65 PEs: the flip must keep the trim
        let value = |r: usize, c: usize| (r * 13 + c) as i64;
        let mut clean = PackedBackend::new();
        let mut drilled = PackedBackend::with_perturbed_adder();
        let a = clean.int_from_fn(dim, 8, value);
        let b = drilled.int_from_fn(dim, 8, value);
        let want = clean.int_sat_add(dim, 8, &a, &a);
        let got = drilled.int_sat_add(dim, 8, &b, &b);
        for i in 0..dim.len() {
            assert_eq!(got.value(i), want.value(i) ^ 1, "PE {i}");
        }
        assert_eq!(got.plane(0)[1], 1, "no bit past the last PE");
    }
}
