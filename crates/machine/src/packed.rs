//! The packed execution backend: 64-PE bitset masks, bit-sliced integer
//! registers, a recycling word arena, and switch patterns compiled once
//! into word masks for the mask and register bus operations.
//!
//! [`PackedBackend`] implements [`Executor`] with four wall-clock levers
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
//!   shared `WordPool`, bucketed by length; after warm-up a solve
//!   allocates nothing.
//! * **Compiled switch patterns** — the first time a (direction, Open
//!   mask) pattern is seen it is compiled into word masks, in the form its
//!   shape runs fastest:
//!   - row buses whose clusters are exactly the aligned slots of 1–64
//!     bits (rows of 8, 16, 32 or 64 columns with one Open PE each, and
//!     lanes whose Open PE sits at the lane's upstream end) fill every
//!     slot that holds a set bit with a handful of word ops;
//!   - other East patterns with at least one Open PE per word (the scans'
//!     survivor sets in lanes of n ≤ 64) cut the rows into runs at the
//!     Open PEs and carry values along them with one add per word;
//!   - every other row pattern (sparser East sets, which run faster this
//!     way, and rows that straddle words, as at n = 96) keeps its one-PE
//!     clusters as a word mask and every other cluster as a list of word
//!     pieces;
//!   - column buses with at most one Open PE per column fold a plane by
//!     its row period into one row image and tile it back;
//!   - any other column pattern carries row images along the columns.
//!
//!   The wired-OR runs the compiled form on one bit-plane. Each cluster
//!   holds exactly one Open PE, its head, so once the pattern's
//!   driverless-line list is empty a register broadcast is, plane by
//!   plane, the wired-OR of `src & open` over the same clusters. The
//!   carry-chain and word-piece forms broadcast more directly: chains carry
//!   each head's bit up to the next Open PE, and word pieces read each
//!   head's value once and fill its cluster in the planes of the value's
//!   one bits.
//!   Compiled patterns are cached, the most recent one checked before any
//!   hashing. A pattern that has not been reused yet is held on probation:
//!   once four such are held a new pattern evicts the oldest of them, so
//!   the scans' survivor sets, which change on every call, never push out
//!   any of the four most recently used replayed patterns (the MCP loop
//!   replays three or four).
//!
//! Plane broadcasts of an arbitrary `T` run the bus reference (the
//! [`Executor::broadcast`] default); the plane wired-OR packs its operands
//! and runs the compiled pattern.
//!
//! Semantics are bit-identical to [`ScalarBackend`](crate::ScalarBackend):
//! the differential suites in `tests/backend_diff.rs` assert values *and*
//! step counts across the two backends.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use crate::error::MachineError;
use crate::geometry::{Axis, Dim, Direction};
use crate::isa::{ExecStats, Executor};
use crate::machine::Machine;
use crate::plane::Plane;

/// Retained switch patterns. The MCP loop replays three or four per solve
/// (`COL == n - 1` West, `ROW == COL` and `ROW == d` South); a survivor-set
/// pattern in lanes holds tens of KiB, so the cache stays small.
const PLAN_CACHE_CAP: usize = 8;

/// Compiled patterns that have not been reused yet. A new pattern evicts
/// the oldest of them once this many are held, and the least recently used
/// pattern of all only when fewer are held and the cache is full. So masks
/// that change on every call (the scans' survivor sets) never push out any
/// of the `PLAN_CACHE_CAP - PROBATION` most recently used replayed plans.
const PROBATION: usize = 4;

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
fn word_pieces(start: usize, end: usize) -> impl Iterator<Item = (usize, u64)> {
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
    word_pieces(start, end).any(|(wi, m)| words[wi] & m != 0)
}

/// Sets every bit in `start..end` of a flat bitset.
fn set_range(words: &mut [u64], start: usize, end: usize) {
    for (wi, m) in word_pieces(start, end) {
        words[wi] |= m;
    }
}

/// Calls `f` with the position of every set bit in `start..end` of a flat
/// bitset, in ascending order.
fn for_each_set_bit_in(words: &[u64], start: usize, end: usize, mut f: impl FnMut(usize)) {
    for (wi, m) in word_pieces(start, end) {
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
    for chunk in out.chunks_mut(period) {
        chunk.copy_from_slice(&pattern[..chunk.len()]);
    }
    trim_to(out, dim.len());
}

/// All ones in the low `width` bits (`width` at most 64).
fn ones(width: u32) -> u64 {
    if width >= 64 {
        !0
    } else {
        (1 << width) - 1
    }
}

/// Fills every aligned `width`-bit slot of a word that holds a set bit
/// (`width` a power of two up to 64): per slot, adding the slot's bits
/// below its top to all ones below its top carries into the top bit
/// exactly when one of them is set; then each top bit `t` becomes the
/// slot's fill `2t - (t >> (width - 1))`, with no multiply.
#[derive(Debug, Clone, Copy)]
struct SlotFill {
    width: u32,
    /// Bit 0 of every slot.
    lows: u64,
    /// Every bit of every slot but its top one.
    rest: u64,
}

impl SlotFill {
    fn new(width: u32) -> Self {
        let lows = !0 / ones(width);
        SlotFill {
            width,
            lows,
            rest: (lows << (width - 1)) - lows,
        }
    }

    #[inline]
    fn apply(self, w: u64) -> u64 {
        let tops = (((w & self.rest) + self.rest) | w) & (self.rest + self.lows);
        (tops << 1).wrapping_sub(tops >> (self.width - 1))
    }
}

/// The slot width when the clusters of a row pattern are exactly the
/// aligned slots of the flat bitset: rows of a power-of-two width up to 64
/// with at most one Open PE each (a row with none is one floating
/// cluster), or rows cut into narrower power-of-two slots whose Open PEs
/// are exactly the slots' upstream ends (lanes). Widest first.
fn slot_width(dim: Dim, increasing: bool, open: &[u64]) -> Option<SlotFill> {
    let (cols, len) = (dim.cols, dim.len());
    (0..=6u32)
        .rev()
        .map(|k| 1u32 << k)
        .filter(|&s| cols % s as usize == 0)
        .find(|&s| {
            if s as usize == cols {
                return open.iter().all(|&w| {
                    (0..64)
                        .step_by(s as usize)
                        .all(|at| ((w >> at) & ones(s)).count_ones() <= 1)
                });
            }
            let lows = !0 / ones(s);
            let ends = if increasing { lows } else { lows << (s - 1) };
            open.iter()
                .enumerate()
                .all(|(wi, &w)| w == ends & range_mask(0, (len - wi * 64).min(64)))
        })
        .map(SlotFill::new)
}

/// Sets `alone` to the one-PE clusters of a row pattern: the Open PEs whose
/// downstream neighbour in their row, cyclically, is Open too.
fn one_pe_clusters(dim: Dim, increasing: bool, open: &[u64], alone: &mut Vec<u64>) {
    alone.extend(open.iter().enumerate().map(|(wi, &w)| {
        w & if increasing {
            w >> 1 | open.get(wi + 1).map_or(0, |&n| n << 63)
        } else {
            w << 1 | wi.checked_sub(1).map_or(0, |p| open[p] >> 63)
        }
    }));
    for r in 0..dim.rows {
        let (base, end) = (r * dim.cols, (r + 1) * dim.cols);
        let (at, wrap) = if increasing {
            (end - 1, base)
        } else {
            (base, end - 1)
        };
        alone[at / 64] &= !(1 << (at % 64));
        if test_bit(open, at) && test_bit(open, wrap) {
            set_bit(alone, at);
        }
    }
}

/// The head of a driverless row's floating cluster.
const NO_HEAD: u32 = u32::MAX;

/// How a compiled switch pattern runs, chosen from its shape.
#[derive(Debug, Clone, Copy)]
enum Form {
    /// Row buses whose clusters are exactly the aligned slots.
    Slots(SlotFill),
    /// Any other East pattern with at least as many Open PEs as words:
    /// carry chains cut at `bounds`, with `wraps`.
    Chain,
    /// Any other row pattern: `alone` plus the word pieces of `clusters`.
    Runs,
    /// Column buses with at most one Open PE per column: every column is
    /// one cluster.
    Fold,
    /// Any other column pattern: the Open row images in `rows`.
    Carry,
}

/// One (direction, Open mask) switch pattern compiled into word masks.
#[derive(Debug, Clone)]
struct Switch {
    dim: Dim,
    dir: Direction,
    fp: u64,
    open: Vec<u64>,
    /// Looked up again since it was compiled (see [`PROBATION`]).
    reused: bool,
    /// The lookup clock of its last use.
    used: u64,
    /// Lines with no Open PE, ascending: a broadcast faults on them, and
    /// the wired-OR treats each as one floating cluster.
    driverless: Vec<usize>,
    form: Form,
    /// `Chain`: the Open PEs and the first PE of every row.
    bounds: Vec<u64>,
    /// `Chain`: `(first PE, last head)` of every row whose first PE is
    /// driven by its last head, round the end of the row.
    wraps: Vec<(u32, u32)>,
    /// `Runs`: the one-PE clusters as a bitset, left empty when every row
    /// has at most one head.
    alone: Vec<u64>,
    /// `Runs`: every other cluster as `(head, end)`, its word pieces being
    /// `pieces[previous end..end]`; a driverless row's head is `NO_HEAD`.
    clusters: Vec<(u32, u32)>,
    pieces: Vec<(u32, u64)>,
    /// `Carry`: the Open bits of row `r` at words `r * rw..(r + 1) * rw`.
    rows: Vec<u64>,
    /// `Fold` on rows narrower than a word that straddle words: each
    /// column's Open PE.
    heads: Vec<u32>,
}

impl Switch {
    fn new(dim: Dim, dir: Direction) -> Self {
        Switch {
            dim,
            dir,
            fp: 0,
            open: Vec::new(),
            reused: false,
            used: 0,
            driverless: Vec::new(),
            form: Form::Runs,
            bounds: Vec::new(),
            wraps: Vec::new(),
            alone: Vec::new(),
            clusters: Vec::new(),
            pieces: Vec::new(),
            rows: Vec::new(),
            heads: Vec::new(),
        }
    }

    /// Compiles `open` along `dir` into this slot, reusing its buffers.
    fn compile(&mut self, dim: Dim, dir: Direction, fp: u64, open: &[u64]) {
        (self.dim, self.dir, self.fp, self.reused) = (dim, dir, fp, false);
        self.open.clear();
        self.open.extend_from_slice(open);
        self.driverless.clear();
        self.bounds.clear();
        self.wraps.clear();
        self.alone.clear();
        self.clusters.clear();
        self.pieces.clear();
        self.rows.clear();
        self.heads.clear();
        self.form = match dir.axis() {
            Axis::Row => self.compile_rows(),
            Axis::Col => self.compile_cols(),
        };
    }

    fn compile_rows(&mut self) -> Form {
        let Switch {
            dim,
            dir,
            open,
            driverless,
            bounds,
            wraps,
            alone,
            clusters,
            pieces,
            ..
        } = self;
        let (rows, cols, increasing) = (dim.rows, dim.cols, dir.is_increasing());
        if let Some(fill) = slot_width(*dim, increasing, open) {
            // Narrower slots than the row put an Open PE in every slot.
            if fill.width as usize == cols {
                driverless
                    .extend((0..rows).filter(|&r| !range_any(open, r * cols, (r + 1) * cols)));
            }
            return Form::Slots(fill);
        }
        // Chains cost a few word ops per word and plane, pieces a few per
        // cluster and piece. Measured (EXPERIMENTS.md § BK): with fewer
        // Open PEs than words (one per row at n = 80–128) pieces run the
        // scans' sets 1.5–2× faster; with at least as many (lanes of
        // n ≤ 64) chains run them 1.1–3.6× faster.
        let heads = open.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        if increasing && heads >= open.len() {
            bounds.extend_from_slice(open);
            for r in 0..rows {
                let (base, end) = (r * cols, (r + 1) * cols);
                set_bit(bounds, base);
                match prev_set(open, base, end) {
                    None => driverless.push(r),
                    Some(last) if !test_bit(open, base) => wraps.push((base as u32, last as u32)),
                    Some(_) => {}
                }
            }
            return Form::Chain;
        }
        let mut add = |ranges: [(usize, usize); 2], head: u32| {
            let first = pieces.len();
            for (mut i, end) in ranges {
                while i < end {
                    let (wi, off) = ((i / 64) as u32, i % 64);
                    let take = (64 - off).min(end - i);
                    let m = range_mask(off, off + take);
                    match pieces[first..].last_mut() {
                        Some((w, pm)) if *w == wi => *pm |= m,
                        _ => pieces.push((wi, m)),
                    }
                    i += take;
                }
            }
            clusters.push((head, pieces.len() as u32));
        };
        for r in 0..rows {
            let (base, end) = (r * cols, (r + 1) * cols);
            let Some(last) = prev_set(open, base, end) else {
                driverless.push(r);
                add([(base, end), (0, 0)], NO_HEAD);
                continue;
            };
            let first = next_set(open, base, end);
            if first == last {
                // One head drives the whole row.
                add([(base, end), (0, 0)], first as u32);
                continue;
            }
            if alone.is_empty() {
                one_pe_clusters(*dim, increasing, open, alone);
            }
            for (wi, m) in word_pieces(base, end) {
                let mut heads = open[wi] & !alone[wi] & m;
                while heads != 0 {
                    let h = wi * 64 + heads.trailing_zeros() as usize;
                    heads &= heads - 1;
                    // A head drives downstream up to the next Open PE; the
                    // row's last head in movement order wraps round.
                    let ranges = if increasing {
                        match (h + 1 < end).then(|| next_set(open, h + 1, end)) {
                            Some(next) if next < end => [(h, next), (0, 0)],
                            _ => [(h, end), (base, first)],
                        }
                    } else {
                        match prev_set(open, base, h) {
                            Some(q) => [(q + 1, h + 1), (0, 0)],
                            None => [(base, h + 1), (last + 1, end)],
                        }
                    };
                    add(ranges, h as u32);
                }
            }
        }
        Form::Runs
    }

    fn compile_cols(&mut self) -> Form {
        let (rows, cols) = (self.dim.rows, self.dim.cols);
        let rw = cols.div_ceil(64);
        self.rows.resize(rows * rw, 0);
        for r in 0..rows {
            read_bits(&self.open, r * cols, cols, &mut self.rows[r * rw..]);
        }
        // Columns with an Open PE, and columns with two.
        let (mut seen, mut twice) = (vec![0u64; rw], vec![0u64; rw]);
        for row in self.rows.chunks(rw) {
            for ((s, t), &o) in seen.iter_mut().zip(&mut twice).zip(row) {
                *t |= *s & o;
                *s |= o;
            }
        }
        self.driverless
            .extend((0..cols).filter(|&c| !test_bit(&seen, c)));
        if twice.iter().any(|&t| t != 0) {
            return Form::Carry;
        }
        if cols < 64 && row_period(cols) > 1 {
            // Rows narrower than a word that straddle words: folding by
            // the period would read every row, so broadcasts read each
            // column's head directly.
            self.heads.resize(cols, 0);
            for (r, row) in self.rows.chunks(rw).enumerate() {
                let mut bits = row[0];
                while bits != 0 {
                    let c = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.heads[c] = (r * cols + c) as u32;
                }
            }
        }
        self.rows.clear();
        Form::Fold
    }

    /// The wired-OR of the bit-plane `v`, ANDed with `gate` when given,
    /// into the zeroed plane `out`.
    fn wired_or(&self, v: &[u64], gate: Option<&[u64]>, out: &mut [u64], s: &mut Scratch) {
        let word = |wi: usize| v[wi] & gate.map_or(!0, |g| g[wi]);
        match self.form {
            Form::Slots(fill) => match gate {
                None => {
                    for (o, &x) in out.iter_mut().zip(v) {
                        *o = fill.apply(x);
                    }
                }
                Some(g) => {
                    for ((o, &x), &y) in out.iter_mut().zip(v).zip(g) {
                        *o = fill.apply(x & y);
                    }
                }
            },
            Form::Chain => {
                // Prefixes within the runs between bounds, then each run's
                // total handed back down from its last PE; a row's first
                // and last runs form one cluster when the row wraps.
                for (wi, o) in out.iter_mut().enumerate() {
                    *o = word(wi);
                }
                spread_up(&self.bounds, out);
                spread_down(&self.bounds, out, self.dim.len());
                let cols = self.dim.cols;
                for &(start, last) in &self.wraps {
                    let (start, last, end) = (start as usize, last as usize, start as usize + cols);
                    if test_bit(out, start) || test_bit(out, end - 1) {
                        set_range(out, start, next_set(&self.open, start, end));
                        set_range(out, last, end);
                    }
                }
            }
            Form::Runs => {
                for (wi, &a) in self.alone.iter().enumerate().filter(|&(_, &a)| a != 0) {
                    out[wi] = word(wi) & a;
                }
                let mut start = 0;
                for &(_, end) in &self.clusters {
                    let cluster = &self.pieces[start..end as usize];
                    start = end as usize;
                    if cluster.iter().any(|&(w, m)| word(w as usize) & m != 0) {
                        for &(w, m) in cluster {
                            out[w as usize] |= m;
                        }
                    }
                }
            }
            Form::Fold => fold_cols(self.dim, v, gate, out, s),
            Form::Carry => {
                let mut vals = std::mem::take(&mut s.vals);
                vals.clear();
                vals.extend((0..out.len()).map(word));
                carry_cols(self.dim, self.dir, &self.rows, &vals, out, s);
                s.vals = vals;
            }
        }
    }

    /// Broadcasts every `nw`-word bit-plane of `src` into the zeroed planes
    /// of `out`. The caller has checked that the pattern drives every line.
    fn broadcast(&self, nw: usize, src: &[u64], out: &mut [u64], s: &mut Scratch) {
        let planes = src.chunks(nw).zip(out.chunks_mut(nw));
        match self.form {
            Form::Chain => {
                // Each head's value carried up to the next bound; a row's
                // first PE, when no head, starts with its last head's value.
                for (x, o) in planes {
                    for ((o, &x), &h) in o.iter_mut().zip(x).zip(&self.open) {
                        *o = x & h;
                    }
                    for &(start, last) in &self.wraps {
                        if test_bit(x, last as usize) {
                            set_bit(o, start as usize);
                        }
                    }
                    spread_up(&self.bounds, o);
                    trim_to(o, self.dim.len());
                }
            }
            Form::Runs => {
                // One-PE clusters keep their own bits; every other cluster
                // reads its head's value once and fills its pieces in the
                // planes of the value's one bits.
                let bits = src.len() / nw;
                for (wi, &a) in self.alone.iter().enumerate().filter(|&(_, &a)| a != 0) {
                    for j in 0..bits {
                        out[j * nw + wi] = src[j * nw + wi] & a;
                    }
                }
                let mut start = 0;
                for &(head, end) in &self.clusters {
                    let cluster = &self.pieces[start..end as usize];
                    start = end as usize;
                    let (hw, hb) = (head as usize / 64, head % 64);
                    let mut ones =
                        (0..bits).fold(0, |v, j| v | ((src[j * nw + hw] >> hb) & 1) << j);
                    while ones != 0 {
                        let plane = ones.trailing_zeros() as usize * nw;
                        ones &= ones - 1;
                        for &(w, m) in cluster {
                            out[plane + w as usize] |= m;
                        }
                    }
                }
            }
            Form::Fold if !self.heads.is_empty() => {
                for (x, o) in planes {
                    let line = self.heads.iter().enumerate().fold(0, |line, (c, &p)| {
                        line | ((x[p as usize / 64] >> (p % 64)) & 1) << c
                    });
                    tile_rows(self.dim, &[line], &mut s.pattern, o);
                }
            }
            // Each cluster holds one Open PE, its head, so plane by plane the
            // broadcast is the wired-OR of `src & open`.
            Form::Slots(_) | Form::Fold | Form::Carry => {
                for (x, o) in planes {
                    self.wired_or(x, Some(&self.open), o, s);
                }
            }
        }
    }
}

/// Carries every set bit of `g` up the flat bitset, towards higher
/// positions, until the next bit of `bounds`, with one add per word: adding
/// `g | !bounds` to `g` generates a carry at every set bit and propagates
/// it through every position that is no bound.
fn spread_up(bounds: &[u64], g: &mut [u64]) {
    let mut carry = 0;
    for (g, &b) in g.iter_mut().zip(bounds) {
        let (x, pass) = (*g, !b);
        let y = x | pass;
        let (sum, c1) = x.overflowing_add(y);
        let (sum, c2) = sum.overflowing_add(carry);
        *g = x | ((sum ^ x ^ y) & pass);
        carry = u64::from(c1 | c2);
    }
}

/// Hands the value at the last PE of every run between `bounds` (the PE
/// before a bound, or the last of `len`) down to the run's other PEs:
/// [`spread_up`] on bit-reversed words, from the top word down.
fn spread_down(bounds: &[u64], f: &mut [u64], len: usize) {
    let mut carry = 0;
    for wi in (0..f.len()).rev() {
        let mut tails = bounds[wi] >> 1 | bounds.get(wi + 1).map_or(0, |&b| b << 63);
        if wi == (len - 1) / 64 {
            tails |= 1 << ((len - 1) % 64);
        }
        let (x, pass) = ((f[wi] & tails).reverse_bits(), (!tails).reverse_bits());
        let y = x | pass;
        let (sum, c1) = x.overflowing_add(y);
        let (sum, c2) = sum.overflowing_add(carry);
        f[wi] = (x | ((sum ^ x ^ y) & pass)).reverse_bits();
        carry = u64::from(c1 | c2);
    }
}

/// Work buffers of the column kernels, reused across calls.
#[derive(Debug, Clone, Default)]
struct Scratch {
    vals: Vec<u64>,
    rows: Vec<u64>,
    line: Vec<u64>,
    spare: Vec<u64>,
    pattern: Vec<u64>,
}

/// The wired-OR of column buses holding at most one Open PE each, over the
/// bit-plane `v` ANDed with `gate` when given: every column is one
/// cluster, so every output row is the OR of all rows. Words a row period
/// apart hold the same columns, so they are ORed into one period, whose
/// rows are ORed into one row image and tiled back.
fn fold_cols(dim: Dim, v: &[u64], gate: Option<&[u64]>, out: &mut [u64], s: &mut Scratch) {
    let cols = dim.cols;
    let period = row_period(cols);
    s.vals.clear();
    if period == 1 {
        s.vals.push(match gate {
            None => v.iter().fold(0, |acc, &x| acc | x),
            Some(g) => v.iter().zip(g).fold(0, |acc, (&x, &y)| acc | (x & y)),
        });
    }
    s.vals.extend((s.vals.len()..period).map(|k| {
        let words = v.iter().skip(k).step_by(period);
        match gate {
            None => words.fold(0, |acc, &x| acc | x),
            Some(g) => words
                .zip(g.iter().skip(k).step_by(period))
                .fold(0, |acc, (&x, &y)| acc | (x & y)),
        }
    }));
    s.line.clear();
    s.line.resize(cols.div_ceil(64), 0);
    if period == 1 {
        // `cols` divides 64: OR the row slots, halving.
        let mut w = s.vals[0];
        let mut width = 64;
        while width > cols {
            width /= 2;
            w |= w >> width;
        }
        s.line[0] = w & range_mask(0, cols);
    } else {
        s.spare.resize(s.line.len(), 0);
        for r in 0..(period * 64 / cols).min(dim.rows) {
            read_bits(&s.vals, r * cols, cols, &mut s.spare);
            for (l, &x) in s.line.iter_mut().zip(&s.spare) {
                *l |= x;
            }
        }
    }
    tile_rows(dim, &s.line, &mut s.pattern, out);
}

/// The wired-OR of column buses cut by the Open row images `open_rows`.
/// Row images of `v` are carried in movement order, restarting at each
/// row's Open bits, so each row holds the OR from its head down to itself;
/// then, against movement order, each cluster's last row (the one before
/// the next head) hands its total back up to the head. Each pass runs
/// twice round the line so that clusters wrapping past its end see their
/// other part; a driverless column keeps the OR of the whole line.
fn carry_cols(
    dim: Dim,
    dir: Direction,
    open_rows: &[u64],
    v: &[u64],
    out: &mut [u64],
    s: &mut Scratch,
) {
    let (rows, cols, rw) = (dim.rows, dim.cols, dim.cols.div_ceil(64));
    let at = |pos: usize| {
        if dir.is_increasing() {
            pos
        } else {
            rows - 1 - pos
        }
    };
    s.rows.clear();
    s.rows.resize(rows * rw, 0);
    for r in 0..rows {
        read_bits(v, r * cols, cols, &mut s.rows[r * rw..]);
    }
    s.line.clear();
    s.line.resize(rw, 0);
    for round in 0..2 {
        for pos in 0..rows {
            let r = at(pos);
            let open = &open_rows[r * rw..(r + 1) * rw];
            let row = &mut s.rows[r * rw..(r + 1) * rw];
            for ((acc, &o), x) in s.line.iter_mut().zip(open).zip(row) {
                *acc = (*acc & !o) | *x;
                if round == 1 {
                    *x = *acc;
                }
            }
        }
    }
    let last = at(rows - 1) * rw;
    s.spare.clear();
    s.spare.extend_from_slice(&s.rows[last..last + rw]);
    for round in 0..2 {
        for pos in (0..rows).rev() {
            let (r, next) = (at(pos), at((pos + 1) % rows));
            let tail = &open_rows[next * rw..(next + 1) * rw];
            let prefix = &s.rows[r * rw..(r + 1) * rw];
            for ((t, &o), &p) in s.spare.iter_mut().zip(tail).zip(prefix) {
                *t = (*t & !o) | (p & o);
            }
            if round == 1 {
                write_bits(out, r * cols, cols, &s.spare);
            }
        }
    }
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
/// Buffers are leased from the backend's `WordPool`, so steady-state
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
    /// Flip PE 0 of every wired-OR result.
    BusOr,
}

/// The packed bit-plane execution backend (see module docs).
#[derive(Debug, Clone)]
pub struct PackedBackend {
    pool: Rc<RefCell<WordPool>>,
    /// Compiled switch patterns.
    switches: Vec<Switch>,
    /// The index of the most recently used one.
    recent: usize,
    /// Pattern lookups so far: a pattern's `used` is the clock of its last.
    clock: u64,
    plan_hits: u64,
    plan_misses: u64,
    scratch: Scratch,
    /// Bench-gate mutation drill only: the kernel to corrupt.
    #[cfg(any(test, feature = "mutation-drill"))]
    drill: Option<Drill>,
}

impl PackedBackend {
    /// A fresh backend with an empty arena and plan cache.
    pub fn new() -> Self {
        PackedBackend {
            pool: Rc::new(RefCell::new(WordPool::default())),
            switches: Vec::new(),
            recent: 0,
            clock: 0,
            plan_hits: 0,
            plan_misses: 0,
            scratch: Scratch::default(),
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

    /// A deliberately broken backend whose compiled wired-OR flips PE 0 of
    /// every result — the mutation drill's bus-kernel case. Never compiled
    /// into release binaries.
    #[cfg(any(test, feature = "mutation-drill"))]
    pub fn with_perturbed_bus_or() -> Self {
        let mut be = PackedBackend::new();
        be.drill = Some(Drill::BusOr);
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

    /// The index of the compiled form of the switch pattern `open` along
    /// `dir`, compiled on a miss. The most recent pattern is checked
    /// before any hashing: a scan's wired-ORs replay one pattern for all
    /// `h` bits.
    fn switch(&mut self, dim: Dim, dir: Direction, open: &[u64]) -> usize {
        self.clock += 1;
        let same = |s: &Switch| s.dir == dir && s.dim == dim && s.open == open;
        let i = if self.switches.get(self.recent).is_some_and(same) {
            self.recent
        } else {
            let fp = fingerprint(dir, open);
            match self.switches.iter().position(|s| s.fp == fp && same(s)) {
                Some(i) => i,
                None => return self.compile(dim, dir, fp, open),
            }
        };
        self.plan_hits += 1;
        let sw = &mut self.switches[i];
        (sw.used, sw.reused) = (self.clock, true);
        self.recent = i;
        i
    }

    /// Compiles a missed pattern into a new slot, or over the least
    /// recently used pattern on probation once [`PROBATION`] are held, or
    /// over the least recently used one once the cache is full.
    fn compile(&mut self, dim: Dim, dir: Direction, fp: u64, open: &[u64]) -> usize {
        self.plan_misses += 1;
        let fresh = self.switches.iter().filter(|s| !s.reused).count();
        let oldest = |fresh_only: bool| {
            let candidates = self.switches.iter().enumerate();
            candidates
                .filter(|(_, s)| !(fresh_only && s.reused))
                .min_by_key(|(_, s)| s.used)
                .map(|(i, _)| i)
        };
        let slot = if fresh >= PROBATION {
            oldest(true)
        } else if self.switches.len() >= PLAN_CACHE_CAP {
            oldest(false)
        } else {
            None
        };
        let i = slot.unwrap_or_else(|| {
            self.switches.push(Switch::new(dim, dir));
            self.switches.len() - 1
        });
        let sw = &mut self.switches[i];
        sw.compile(dim, dir, fp, open);
        sw.used = self.clock;
        self.recent = i;
        i
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
        let mut pattern = Vec::new();
        for (j, image) in images.chunks_exact(rw).enumerate() {
            let plane = &mut out.buf.words[j * nw..(j + 1) * nw];
            tile_rows(dim, image, &mut pattern, plane);
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
        let mut out = self.alloc_mask(dim);
        let i = self.switch(dim, dir, open.words());
        let v = values.words();
        self.switches[i].wired_or(v, None, &mut out.buf.words, &mut self.scratch);
        #[cfg(any(test, feature = "mutation-drill"))]
        if self.drilled(Drill::BusOr) {
            out.buf.words[0] ^= 1;
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
        let i = self.switch(dim, dir, open.words());
        let sw = &self.switches[i];
        if !sw.driverless.is_empty() {
            return Err(bus_fault(dir, sw.driverless.clone()));
        }
        sw.broadcast(
            words_for(dim),
            &src.buf.words,
            &mut out.buf.words,
            &mut self.scratch,
        );
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
        let (values, open) = (
            self.mask_from_plane(dim, values),
            self.mask_from_plane(dim, open),
        );
        let out = self.mask_bus_or(dim, &values, dir, &open)?;
        Ok(self.mask_to_plane(dim, &out))
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
    fn broadcasts_share_the_wired_or_plan() {
        // One compile serves every bus operation on a pattern: the wired-OR
        // and the register broadcast along East replay the same plan, and a
        // South broadcast on the same mask compiles once, then faults from
        // its driverless-column list on every replay.
        let dim = Dim::square(8);
        let mut be = PackedBackend::new();
        let reg = be.int_from_fn(dim, 6, |r, c| (r * 8 + c) as i64);
        let open = be.mask_from_plane(dim, &plane_of(dim, |i| i % 8 == 0));
        for _ in 0..2 {
            be.mask_bus_or(dim, &open, Direction::East, &open).unwrap();
            be.int_broadcast(dim, &reg, Direction::East, &open).unwrap();
            match be.int_broadcast(dim, &reg, Direction::South, &open) {
                Err(MachineError::BusFault { lines, .. }) => {
                    assert_eq!(lines, [1, 2, 3, 4, 5, 6, 7])
                }
                other => panic!("expected BusFault, got {other:?}"),
            }
        }
        let stats = be.stats();
        assert_eq!((stats.plan_misses, stats.plan_hits), (2, 4));
    }

    #[test]
    fn one_off_patterns_keep_the_most_recent_replayed_plans() {
        // Masks that change on every call (the scans' survivor sets) never
        // push out a replayed pattern that a loop keeps using: six replayed
        // patterns all stay cached, and once two of them fall idle the other
        // four still do while the idle two give way.
        fn misses(be: &mut PackedBackend, reg: &PackedInt, open: &PackedMask) -> u64 {
            let before = be.stats().plan_misses;
            be.int_broadcast(reg.dim(), reg, Direction::West, open)
                .unwrap();
            be.stats().plan_misses - before
        }
        let dim = Dim::new(4, 96);
        let mut be = PackedBackend::new();
        let reg = be.int_from_fn(dim, 4, |r, c| ((r + c) % 16) as i64);
        let replayed: Vec<_> = (0..6)
            .map(|k| be.mask_from_plane(dim, &plane_of(dim, |i| i % 96 == 95 - k)))
            .collect();
        for open in &replayed {
            assert_eq!(misses(&mut be, &reg, open), 1);
            assert_eq!(misses(&mut be, &reg, open), 0);
        }
        let mut fresh = 0..97;
        let mut one_off = |be: &mut PackedBackend| {
            let m = fresh.next().unwrap();
            let open = be.mask_from_plane(dim, &plane_of(dim, |i| i % 97 == m));
            let before = be.stats().plan_misses;
            be.mask_bus_or(dim, &open, Direction::East, &open).unwrap();
            assert_eq!(be.stats().plan_misses - before, 1, "one-off {m}");
        };
        for _ in 0..40 {
            for (k, open) in replayed.iter().enumerate() {
                assert_eq!(misses(&mut be, &reg, open), 0, "pattern {k} stayed");
            }
            one_off(&mut be);
            one_off(&mut be);
        }
        for _ in 0..15 {
            for (k, open) in replayed.iter().enumerate().skip(2) {
                assert_eq!(misses(&mut be, &reg, open), 0, "pattern {k} stayed");
            }
            one_off(&mut be);
        }
        for open in &replayed[..2] {
            assert_eq!(misses(&mut be, &reg, open), 1, "an idle pattern gave way");
        }
        assert!(be.switches.len() <= PLAN_CACHE_CAP);
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
