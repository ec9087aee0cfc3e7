//! The packed execution backend: row-aligned bitset masks, bit-sliced
//! integer registers, a recycling word arena, and switch patterns compiled
//! once into word masks for the mask and register bus operations.
//!
//! [`PackedBackend`] implements [`Executor`] with four wall-clock levers
//! the scalar reference backend lacks:
//!
//! * **Packed masks** — every mask is a [`PackedMask`]: a bitset of `u64`
//!   words in which no row straddles a word. A row of up to 64 columns
//!   takes a power-of-two slot, so a word holds `64 / slot` whole rows; a
//!   wider row takes whole words. The bits past a row's last column are
//!   padding and always zero. Votes, knockouts, logic and occupancy
//!   counting are word ops and popcounts, and every bus kernel reaches a
//!   row as one slot or one word range. Rows whose width divides 64 or is
//!   a multiple of it have no padding: their planes are the flat
//!   row-major bitset.
//! * **Bit-sliced registers** — an `h`-bit integer register is a
//!   [`PackedInt`]: `h` plane-major bit-planes of such words, exactly the
//!   bit-serial PPA's register file. `bit(j)` is plane `j`; the saturating
//!   add is a ripple-carry chain over the planes; equality is an OR of
//!   XORs; `<` and the elementwise minimum share one comparator that walks
//!   the planes from the most significant down; a masked write is one
//!   word blend per plane. Values are sliced into planes once, when they
//!   are loaded (8×8 bit-matrix transposes).
//! * **Word arena** — mask and register words are recycled through a
//!   shared `WordPool`, bucketed by length; after warm-up a solve
//!   allocates nothing.
//! * **Compiled switch patterns** — the first time a (direction, Open
//!   mask) pattern is seen it is compiled into word masks, in the form its
//!   shape runs fastest:
//!   - row buses whose clusters are equal runs that never straddle a word
//!     (rows of up to 64 columns with at most one Open PE each, and equal
//!     lanes whose Open PE sits at the lane's upstream end, within such
//!     rows or of a width dividing 64) fill every cluster that holds a set
//!     bit with a handful of word ops;
//!   - rows wider than a word with at most one Open PE each (the MCP
//!     loop's `COL == n - 1` and the scans' survivor sets at n > 64) are
//!     one cluster each: a row's words are ORed and filled;
//!   - other such lanes (the lane-batched `COL == n - 1` at n = 24, 48 or
//!     96) take the same fill with the plane as one integer, carrying and
//!     borrowing across words;
//!   - every other row pattern, in either direction, cuts the rows into
//!     runs at the Open PEs and carries values along them with one add
//!     per word;
//!   - column buses with at most one Open PE per column OR every row
//!     image into one and copy it back into every row;
//!   - any other column pattern carries row images along the columns.
//!
//!   The wired-OR runs the compiled form on one bit-plane. Each cluster
//!   holds exactly one Open PE, its head, so once the pattern's
//!   driverless-line list is empty a register broadcast is, plane by
//!   plane, the wired-OR of `src & open` over the same clusters; the
//!   carry-chain and wide-lane forms broadcast more directly, carrying
//!   each head's bit to the other end of its cluster.
//!   Compiled patterns are cached, the most recent one checked first. A
//!   pattern that has not been reused yet is held on probation: once four
//!   such are held a new pattern evicts the oldest of them, so the scans'
//!   survivor sets, which change on every call, never push out any of the
//!   four most recently used replayed patterns (the MCP loop replays three
//!   or four).
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

/// All ones in the low `width` bits (`width` at most 64).
fn ones(width: usize) -> u64 {
    if width >= 64 {
        !0
    } else {
        (1 << width) - 1
    }
}

/// Bit 0 of every aligned `width`-bit slot of a word (`width` a power of
/// two up to 64).
fn lows(width: usize) -> u64 {
    !0 / ones(width)
}

/// Where a plane keeps its PEs: row `r` starts at bit `r * stride`, and
/// the bits past its `cols` columns, up to the next row, are padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    rows: usize,
    cols: usize,
    /// Bits per row: a power of two up to 64, or a multiple of 64.
    stride: usize,
    /// Words per plane.
    words: usize,
}

impl Layout {
    fn of(dim: Dim) -> Self {
        let (rows, cols) = (dim.rows, dim.cols);
        let stride = if cols <= 64 {
            cols.next_power_of_two()
        } else {
            cols.next_multiple_of(64)
        };
        Layout {
            rows,
            cols,
            stride,
            words: (rows * stride).div_ceil(64),
        }
    }

    /// The bit that holds flat PE index `i`.
    #[inline]
    fn bit(self, i: usize) -> usize {
        i / self.cols * self.stride + i % self.cols
    }

    /// The bits of row `r`'s PEs.
    #[inline]
    fn row(self, r: usize) -> Range<usize> {
        r * self.stride..r * self.stride + self.cols
    }

    /// Words of one row image: a row of up to 64 columns is one word.
    fn row_words(self) -> usize {
        self.stride.div_ceil(64)
    }

    /// The set bits of row `r` of the plane `words`.
    fn count_row(self, words: &[u64], r: usize) -> u32 {
        if self.stride >= 64 {
            let rw = self.row_words();
            return words[r * rw..(r + 1) * rw]
                .iter()
                .map(|w| w.count_ones())
                .sum();
        }
        let at = r * self.stride;
        ((words[at / 64] >> (at % 64)) & ones(self.stride)).count_ones()
    }

    /// The PE bits of every row slot of a word (rows of up to 64 columns).
    fn slot_mask(self) -> u64 {
        ones(self.cols) * lows(self.stride)
    }

    /// The bits of word `wi` that hold PEs.
    fn valid(self, wi: usize) -> u64 {
        if self.stride > 64 {
            let k = wi % (self.stride / 64);
            return ones(self.cols - 64 * k);
        }
        let per = 64 / self.stride;
        self.slot_mask() & ones((self.rows - wi * per).min(per) * self.stride)
    }

    /// Clears the padding bits of the plane `words`.
    fn trim(self, words: &mut [u64]) {
        if self.stride > 64 {
            if !self.cols.is_multiple_of(64) {
                let last = ones(self.cols % 64);
                match self.row_words() {
                    2 => trim_rows(2, last, words),
                    rw => trim_rows(rw, last, words),
                }
            }
            return;
        }
        let keep = self.slot_mask();
        if keep != !0 {
            for w in words.iter_mut() {
                *w &= keep;
            }
        }
        if let Some(last) = words.last_mut() {
            *last &= self.valid(self.words - 1);
        }
    }

    /// Copies row `r` of the plane `words` into the row image `image`
    /// (`row_words()` words, bit `c` for column `c`).
    fn read_row(self, words: &[u64], r: usize, image: &mut [u64]) {
        if self.stride >= 64 {
            image.copy_from_slice(&words[r * image.len()..(r + 1) * image.len()]);
        } else {
            let at = r * self.stride;
            image[0] = (words[at / 64] >> (at % 64)) & ones(self.stride);
        }
    }

    /// ORs the row image `image` into row `r` of the plane `words`.
    fn or_row(self, words: &mut [u64], r: usize, image: &[u64]) {
        if self.stride >= 64 {
            let row = &mut words[r * image.len()..(r + 1) * image.len()];
            for (w, &x) in row.iter_mut().zip(image) {
                *w |= x;
            }
        } else {
            let at = r * self.stride;
            words[at / 64] |= image[0] << (at % 64);
        }
    }

    /// Writes the row image `image` into every row of the plane `out`.
    fn tile_rows(self, image: &[u64], out: &mut [u64]) {
        if self.stride > 64 {
            match image.len() {
                2 => copy_rows(2, image, out),
                rw => copy_rows(rw, image, out),
            }
            return;
        }
        out.fill(image[0] * lows(self.stride));
        if let Some(last) = out.last_mut() {
            *last &= self.valid(self.words - 1);
        }
    }
}

// The row kernels below take the row's word count `rw` and are inlined
// into calls that pass it as a literal where rows are two words wide
// (n = 65-128), so those rows run as straight-line code.

/// Keeps only the low bits `last` of the last word of every `rw`-word row.
#[inline(always)]
fn trim_rows(rw: usize, last: u64, words: &mut [u64]) {
    for row in words.chunks_exact_mut(rw) {
        row[rw - 1] &= last;
    }
}

/// Copies the `rw`-word row image `image` into every row of `out`.
#[inline(always)]
fn copy_rows(rw: usize, image: &[u64], out: &mut [u64]) {
    for row in out.chunks_exact_mut(rw) {
        row.copy_from_slice(image);
    }
}

/// ORs every `rw`-word row of `v`, ANDed with `gate` when given, into
/// `line`.
#[inline(always)]
fn or_rows(rw: usize, v: &[u64], gate: Option<&[u64]>, line: &mut [u64]) {
    match gate {
        None => {
            for row in v.chunks_exact(rw) {
                for (l, &x) in line.iter_mut().zip(row) {
                    *l |= x;
                }
            }
        }
        Some(g) => {
            for (row, g) in v.chunks_exact(rw).zip(g.chunks_exact(rw)) {
                for ((l, &x), &y) in line.iter_mut().zip(row).zip(g) {
                    *l |= x & y;
                }
            }
        }
    }
}

/// Fills every `rw`-word row of `out` whose row of `v`, ANDed with `gate`
/// when given, has a bit set; a row's last word only up to `last`.
#[inline(always)]
fn fill_rows(rw: usize, last: u64, v: &[u64], gate: Option<&[u64]>, out: &mut [u64]) {
    let fill = |o: &mut [u64], any: u64| {
        let m = u64::from(any != 0).wrapping_neg();
        o.fill(m);
        o[rw - 1] &= last;
    };
    let rows = out.chunks_exact_mut(rw).zip(v.chunks_exact(rw));
    match gate {
        None => {
            for (o, x) in rows {
                fill(o, x.iter().fold(0, |a, &x| a | x));
            }
        }
        Some(g) => {
            for ((o, x), g) in rows.zip(g.chunks_exact(rw)) {
                fill(o, x.iter().zip(g).fold(0, |a, (&x, &y)| a | (x & y)));
            }
        }
    }
}

/// Bits `start..end` of one word set (`start < 64`, `end <= 64`).
fn range_mask(start: usize, end: usize) -> u64 {
    ones(end) & !ones(start)
}

/// The `(word index, in-word mask)` pieces of the bit range `start..end`,
/// in ascending order.
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

/// Whether any bit in `start..end` of a bitset is set.
fn range_any(words: &[u64], start: usize, end: usize) -> bool {
    word_pieces(start, end).any(|(wi, m)| words[wi] & m != 0)
}

/// Sets every bit in `start..end` of a bitset.
fn set_range(words: &mut [u64], start: usize, end: usize) {
    for (wi, m) in word_pieces(start, end) {
        words[wi] |= m;
    }
}

/// Calls `f` with the position of every set bit in `start..end` of a
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

/// Calls `f` with the flat PE index of every set bit of the plane `words`,
/// in ascending order.
fn for_each_set_pe(lay: Layout, words: &[u64], mut f: impl FnMut(usize)) {
    for r in 0..lay.rows {
        let (bits, base) = (lay.row(r), r * lay.cols);
        for_each_set_bit_in(words, bits.start, bits.end, |p| f(base + p - bits.start));
    }
}

/// Whether bit `i` of a bitset is set.
#[inline]
fn test_bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Sets bit `i` of a bitset.
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

/// Fills every cluster of a word that holds a set bit, the clusters being
/// runs of `width` bits (1 to 64) that start at the bits of `lows` and never
/// straddle a word: per cluster, adding its bits below its top to all ones
/// below its top carries into the top bit exactly when one of them is set;
/// then each top bit `t` becomes the cluster's fill `2t - (t >> (width -
/// 1))`, with no multiply. Bits outside every cluster stay zero.
#[derive(Debug, Clone, Copy)]
struct SlotFill {
    width: u32,
    /// Bit 0 of every cluster.
    lows: u64,
    /// Every bit of every cluster but its top one.
    rest: u64,
}

impl SlotFill {
    fn new(width: usize, lows: u64) -> Self {
        SlotFill {
            width: width as u32,
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

/// The lane width when every row is cut into equal lanes, each holding
/// exactly one Open PE at its upstream end (its first column going East,
/// its last going West): the lane-batched `COL == n - 1` West pattern and
/// its East mirror.
fn lane_width(lay: Layout, increasing: bool, open: &[u64]) -> Option<usize> {
    // Row 0's Open PEs: how many, and where the first two sit.
    let (row, mut heads, mut at) = (lay.row(0), 0, [0; 2]);
    for_each_set_bit_in(open, row.start, row.end, |p| {
        if heads < 2 {
            at[heads] = p - row.start;
        }
        heads += 1;
    });
    let width = match (increasing, heads) {
        (_, 0) | (true, 1) => return None,
        (true, _) => at[1],
        (false, _) => at[0] + 1,
    };
    if heads * width != lay.cols {
        return None;
    }
    let (mut lane, mut image) = (vec![0u64; lay.row_words()], vec![0u64; lay.row_words()]);
    let first = if increasing { 0 } else { width - 1 };
    for c in (first..lay.cols).step_by(width) {
        set_bit(&mut lane, c);
    }
    (0..lay.rows)
        .all(|r| {
            lay.read_row(open, r, &mut image);
            image == lane
        })
        .then_some(width)
}

/// The tops of the lanes of the words `x` that hold a set bit, into `out`;
/// `tops` holds every lane's last bit. As [`SlotFill`], with the add
/// carrying across words: `!t` stands for every lane's bits below its top
/// (padding bits too, which the final AND clears), and no carry leaves a
/// lane, whose top bit is clear in both terms.
fn lane_tops(tops: &[u64], x: impl Iterator<Item = u64>, out: &mut [u64]) {
    let mut carry = false;
    for ((o, &t), x) in out.iter_mut().zip(tops).zip(x) {
        let (sum, c1) = (x & !t).overflowing_add(!t);
        let (sum, c2) = sum.overflowing_add(u64::from(carry));
        (*o, carry) = ((sum | x) & t, c1 | c2);
    }
}

/// `out = (a << up) - (a >> down)`, a plane taken as one integer, which
/// fills every lane of `width` bits from one marked end: a lane's top `t`
/// becomes `2t - (t >> (width - 1))`, its first bit `f` becomes `(f <<
/// width) - f`. `a` holds the plane from word `pad`, with `pad` zero words
/// either side (both shifts at most `64 * (pad - 1)` bits).
fn shift_sub(a: &[u64], pad: usize, up: usize, down: usize, out: &mut [u64]) {
    let (ui, us, di, ds) = (up / 64, up % 64, down / 64, down % 64);
    let hi = a[pad - ui..].iter().zip(&a[pad - ui - 1..]);
    let lo = a[pad + di..].iter().zip(&a[pad + di + 1..]);
    let mut borrow = false;
    for (o, ((&h, &hp), (&l, &ln))) in out.iter_mut().zip(hi.zip(lo)) {
        // A shift by 64 is zero: the second halves shift twice.
        let hi = h << us | (hp >> 1) >> (63 - us);
        let lo = l >> ds | (ln << 1) << (63 - ds);
        let (d, b1) = hi.overflowing_sub(lo);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        (*o, borrow) = (d, b1 | b2);
    }
}

/// How a compiled switch pattern runs, chosen from its shape.
#[derive(Debug, Clone, Copy)]
enum Form {
    /// Row buses whose clusters are equal runs that never straddle a word:
    /// rows of up to 64 columns with at most one Open PE each (each row one
    /// cluster), or lanes as [`lane_width`] finds them within such rows or
    /// of a width dividing 64.
    Slots(SlotFill),
    /// Rows wider than a word with at most one Open PE each: every row is
    /// one cluster.
    Rows,
    /// Lanes as [`lane_width`] finds them in rows wider than a word, of the
    /// given width, which does not divide 64: some straddle words. `tops`
    /// holds their last bits.
    Lanes(usize),
    /// Any other row pattern: carry chains round each row, cut at
    /// `starts` going up and at `ends` going down.
    Chain,
    /// Column buses with at most one Open PE per column: every column is
    /// one cluster.
    Fold,
    /// Any other column pattern: the Open row images in `rows`.
    Carry,
}

/// One (direction, Open mask) switch pattern compiled into word masks.
#[derive(Debug, Clone)]
struct Switch {
    lay: Layout,
    dir: Direction,
    open: Vec<u64>,
    /// Looked up again since it was compiled (see [`PROBATION`]).
    reused: bool,
    /// The lookup clock of its last use.
    used: u64,
    /// Lines with no Open PE, ascending: a broadcast faults on them, and
    /// the wired-OR treats each as one floating cluster.
    driverless: Vec<usize>,
    form: Form,
    /// `Chain`: the first bit of every cluster (the Open PEs going East,
    /// the bits after them going West), each row a cycle of `stride` bits.
    starts: Vec<u64>,
    /// `Chain`: the last bit of every cluster (the bits before the Open PEs
    /// going East, the Open PEs going West), each word bit-reversed for
    /// [`spread_down`]. A driverless row is one cluster from its first bit
    /// to its last.
    ends: Vec<u64>,
    /// `Lanes`: the last bit of every lane.
    tops: Vec<u64>,
    /// `Carry`: the Open row image of row `r` at words `r * rw..(r + 1) *
    /// rw`.
    rows: Vec<u64>,
}

impl Switch {
    fn new(lay: Layout, dir: Direction) -> Self {
        Switch {
            lay,
            dir,
            open: Vec::new(),
            reused: false,
            used: 0,
            driverless: Vec::new(),
            form: Form::Chain,
            starts: Vec::new(),
            ends: Vec::new(),
            tops: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Compiles `open` along `dir` into this slot, reusing its buffers.
    fn compile(&mut self, lay: Layout, dir: Direction, open: &[u64]) {
        (self.lay, self.dir, self.reused) = (lay, dir, false);
        self.open.clear();
        self.open.extend_from_slice(open);
        self.driverless.clear();
        self.starts.clear();
        self.ends.clear();
        self.tops.clear();
        self.rows.clear();
        self.form = match dir.axis() {
            Axis::Row => self.compile_rows(),
            Axis::Col => self.compile_cols(),
        };
    }

    fn compile_rows(&mut self) -> Form {
        let Switch {
            lay,
            dir,
            open,
            driverless,
            starts,
            ends,
            tops,
            ..
        } = self;
        let (lay, increasing) = (*lay, dir.is_increasing());
        // Rows with at most one Open PE each are one cluster each (a row
        // with none floating), and so are equal lanes headed upstream.
        let mut one_each = true;
        for r in 0..lay.rows {
            match lay.count_row(open, r) {
                0 => driverless.push(r),
                1 => {}
                _ => {
                    one_each = false;
                    break;
                }
            }
        }
        let width = if one_each {
            if lay.stride > 64 {
                return Form::Rows;
            }
            Some(lay.cols)
        } else {
            driverless.clear();
            lane_width(lay, increasing, open)
        };
        if let Some(width) = width {
            if lay.stride <= 64 {
                // A row's cluster starts, repeated in every row slot.
                let firsts = (0..lay.cols).step_by(width).fold(0u64, |w, c| w | 1 << c);
                return Form::Slots(SlotFill::new(width, firsts * lows(lay.stride)));
            }
            if 64 % width == 0 {
                return Form::Slots(SlotFill::new(width, lows(width)));
            }
            let mut image = vec![0u64; lay.row_words()];
            for c in (width - 1..lay.cols).step_by(width) {
                set_bit(&mut image, c);
            }
            tops.resize(lay.words, 0);
            lay.tile_rows(&image, tops);
            return Form::Lanes(width);
        }
        // Each row is a cycle: going East a cluster runs from its head up
        // to the bit before the next head round the row, padding included;
        // going West from the bit after a head up to the next head. `turn`
        // is the other end's bits: the heads turned by one bit round their
        // row.
        let first_last = |head: u64, turn: u64| {
            if increasing {
                (head, turn)
            } else {
                (turn, head)
            }
        };
        if lay.stride >= 64 {
            let rw = lay.row_words();
            for (r, row) in open.chunks(rw).enumerate() {
                for (k, &w) in row.iter().enumerate() {
                    let (first, last) = first_last(
                        w,
                        if increasing {
                            w >> 1 | row[(k + 1) % rw] << 63
                        } else {
                            w << 1 | row[(k + rw - 1) % rw] >> 63
                        },
                    );
                    starts.push(first);
                    ends.push(last);
                }
                if row.iter().all(|&w| w == 0) {
                    driverless.push(r);
                    starts[r * rw] |= 1;
                    ends[r * rw + rw - 1] |= 1 << 63;
                }
            }
        } else {
            let (s, fill) = (lay.stride, SlotFill::new(lay.stride, lows(lay.stride)));
            let (firsts, lasts) = (lows(s), lows(s) << (s - 1));
            for (wi, &w) in open.iter().enumerate() {
                let (first, last) = first_last(
                    w,
                    if increasing {
                        (w >> 1 & !lasts) | (w & firsts) << (s - 1)
                    } else {
                        (w << 1 & !firsts) | (w & lasts) >> (s - 1)
                    },
                );
                starts.push(first);
                ends.push(last);
                let mut empty = !fill.apply(w) & firsts & lay.valid(wi);
                starts[wi] |= empty;
                ends[wi] |= empty << (s - 1);
                while empty != 0 {
                    driverless.push((wi * 64 + empty.trailing_zeros() as usize) / s);
                    empty &= empty - 1;
                }
            }
        }
        for e in ends.iter_mut() {
            *e = e.reverse_bits();
        }
        Form::Chain
    }

    fn compile_cols(&mut self) -> Form {
        let lay = self.lay;
        let rw = lay.row_words();
        self.rows.resize(lay.rows * rw, 0);
        for (r, image) in self.rows.chunks_mut(rw).enumerate() {
            lay.read_row(&self.open, r, image);
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
            .extend((0..lay.cols).filter(|&c| !test_bit(&seen, c)));
        if twice.iter().any(|&t| t != 0) {
            return Form::Carry;
        }
        self.rows.clear();
        Form::Fold
    }

    /// The wired-OR of the bit-plane `v`, ANDed with `gate` when given,
    /// into the zeroed plane `out`.
    fn wired_or(&self, v: &[u64], gate: Option<&[u64]>, out: &mut [u64], s: &mut Scratch) {
        let word = |wi: usize| v[wi] & gate.map_or(!0, |g| g[wi]);
        let lay = self.lay;
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
            Form::Rows => {
                let last = lay.valid(lay.row_words() - 1);
                match lay.row_words() {
                    2 => fill_rows(2, last, v, gate, out),
                    rw => fill_rows(rw, last, v, gate, out),
                }
            }
            Form::Lanes(width) => {
                let (a, pad) = lane_buffer(width, out.len(), &mut s.vals);
                let tops = &mut a[pad..pad + out.len()];
                match gate {
                    None => lane_tops(&self.tops, v.iter().copied(), tops),
                    Some(g) => lane_tops(&self.tops, v.iter().zip(g).map(|(&x, &y)| x & y), tops),
                }
                shift_sub(a, pad, 1, width - 1, out);
            }
            Form::Chain => {
                // Prefixes from each cluster's first bit, then each
                // cluster's total handed back down from its last bit.
                for (wi, o) in out.iter_mut().enumerate() {
                    *o = word(wi);
                }
                spread_up(lay, &self.starts, out);
                spread_down(lay, &self.ends, out);
                lay.trim(out);
            }
            Form::Fold => fold_cols(lay, v, gate, out, &mut s.line),
            Form::Carry => {
                let mut vals = std::mem::take(&mut s.vals);
                vals.clear();
                vals.extend((0..out.len()).map(word));
                carry_cols(lay, self.dir, &self.rows, &vals, out, s);
                s.vals = vals;
            }
        }
    }

    /// Broadcasts every bit-plane of `src` into the zeroed planes of `out`.
    /// The caller has checked that the pattern drives every line.
    fn broadcast(&self, src: &[u64], out: &mut [u64], s: &mut Scratch) {
        let nw = self.lay.words;
        let planes = src.chunks(nw).zip(out.chunks_mut(nw));
        match self.form {
            Form::Chain => {
                // Each head's value carried round its row to the end of its
                // cluster: up from the first bit going East, down from the
                // last going West.
                for (x, o) in planes {
                    for ((o, &x), &h) in o.iter_mut().zip(x).zip(&self.open) {
                        *o = x & h;
                    }
                    if self.dir.is_increasing() {
                        spread_up(self.lay, &self.starts, o);
                    } else {
                        spread_down(self.lay, &self.ends, o);
                    }
                    self.lay.trim(o);
                }
            }
            Form::Lanes(width) => {
                // Each lane's head is its top going West and its first bit
                // going East.
                let (up, down) = if self.dir.is_increasing() {
                    (width, 0)
                } else {
                    (1, width - 1)
                };
                let (a, pad) = lane_buffer(width, nw, &mut s.vals);
                for (x, o) in planes {
                    let heads = a[pad..pad + nw].iter_mut().zip(x).zip(&self.open);
                    for ((a, &x), &h) in heads {
                        *a = x & h;
                    }
                    shift_sub(a, pad, up, down, o);
                }
            }
            // Each cluster holds one Open PE, its head, so plane by plane the
            // broadcast is the wired-OR of `src & open`.
            Form::Slots(_) | Form::Rows | Form::Fold | Form::Carry => {
                for (x, o) in planes {
                    self.wired_or(x, Some(&self.open), o, s);
                }
            }
        }
    }
}

/// `buf` zeroed to a plane of `words` words with the zero words either side
/// that [`shift_sub`] needs for lanes of `width` bits, and that pad.
fn lane_buffer(width: usize, words: usize, buf: &mut Vec<u64>) -> (&mut [u64], usize) {
    let pad = width / 64 + 2;
    buf.clear();
    buf.resize(words + 2 * pad, 0);
    (buf, pad)
}

/// One word of a carry chain: adding `x | pass` and `carry` to `x`
/// generates a carry at every set bit and propagates it through every
/// `pass` position. Returns `x` with the carried positions set, the
/// carries into every position, and the carry out.
#[inline(always)]
fn carry_word(x: u64, pass: u64, carry: u64) -> (u64, u64, u64) {
    let y = x | pass;
    let (sum, c1) = x.overflowing_add(y);
    let (sum, c2) = sum.overflowing_add(carry);
    let carries = sum ^ x ^ y;
    (x | (carries & pass), carries, u64::from(c1 | c2))
}

/// Carries every set bit of `g` up its row, towards higher columns and
/// round the row's end, until the next bit of `starts`. Each row is a
/// cycle of `stride` bits, padding included, so padding may be set.
fn spread_up(lay: Layout, starts: &[u64], g: &mut [u64]) {
    if lay.stride >= 64 {
        match lay.row_words() {
            1 => up_rows(1, starts, g),
            2 => up_rows(2, starts, g),
            rw => up_rows(rw, starts, g),
        }
        return;
    }
    for (g, &b) in g.iter_mut().zip(starts) {
        *g = up_slots(lay.stride, b, *g);
    }
}

/// Hands the value at every bit of `ends` down its row, towards lower
/// columns and round the row's start, until the next bit of `ends`:
/// [`spread_up`] on bit-reversed rows. `ends` is given bit-reversed.
fn spread_down(lay: Layout, ends: &[u64], g: &mut [u64]) {
    if lay.stride >= 64 {
        match lay.row_words() {
            1 => down_rows(1, ends, g),
            2 => down_rows(2, ends, g),
            rw => down_rows(rw, ends, g),
        }
        return;
    }
    for (g, &e) in g.iter_mut().zip(ends) {
        *g = up_slots(lay.stride, e, g.reverse_bits() & e).reverse_bits();
    }
}

/// [`spread_up`] on rows of `rw` words: the carry out of a row's last
/// word re-enters at its first, up to the first word that holds a start
/// (past it nothing changes).
#[inline(always)]
fn up_rows(rw: usize, starts: &[u64], g: &mut [u64]) {
    for (g, b) in g.chunks_exact_mut(rw).zip(starts.chunks_exact(rw)) {
        let mut carry = 0;
        for (g, &b) in g.iter_mut().zip(b) {
            (*g, _, carry) = carry_word(*g, !b, carry);
        }
        for (g, &b) in g.iter_mut().zip(b) {
            if carry == 0 {
                break;
            }
            (*g, _, carry) = carry_word(*g, !b, carry);
            if b != 0 {
                break;
            }
        }
    }
}

/// [`spread_down`] on rows of `rw` words, from each row's last word down;
/// the carry out of its first word re-enters at its last.
#[inline(always)]
fn down_rows(rw: usize, ends: &[u64], g: &mut [u64]) {
    let word = |g: &mut u64, e: u64, carry: u64| {
        let (v, _, c) = carry_word(g.reverse_bits() & e, !e, carry);
        *g = v.reverse_bits();
        c
    };
    for (g, e) in g.chunks_exact_mut(rw).zip(ends.chunks_exact(rw)) {
        let mut carry = 0;
        for (g, &e) in g.iter_mut().zip(e).rev() {
            carry = word(g, e, carry);
        }
        for (g, &e) in g.iter_mut().zip(e).rev() {
            if carry == 0 {
                break;
            }
            carry = word(g, e, carry);
            if e != 0 {
                break;
            }
        }
    }
}

/// [`spread_up`] on one word of `width`-bit row slots (`width` below 64):
/// slot starts block the carry, then each slot's carry out of its top
/// re-enters at its first bit, unless a cluster starts there.
#[inline(always)]
fn up_slots(width: usize, starts: u64, x: u64) -> u64 {
    let firsts = lows(width);
    let pass = !(starts | firsts);
    let (v, carries, out) = carry_word(x, pass, 0);
    let wrap = ((carries & firsts) >> width | out << (64 - width)) & !starts;
    v | carry_word(wrap, pass, 0).0
}

/// Work buffers of the column kernels, reused across calls.
#[derive(Debug, Clone, Default)]
struct Scratch {
    vals: Vec<u64>,
    rows: Vec<u64>,
    line: Vec<u64>,
    spare: Vec<u64>,
}

/// The wired-OR of column buses holding at most one Open PE each, over the
/// bit-plane `v` ANDed with `gate` when given: every column is one
/// cluster, so every output row is the OR of all rows. Rows of up to 64
/// columns share words, so the words are ORed into one and its row slots
/// folded onto the first; wider rows OR their word ranges. The row image
/// is then copied into every row.
fn fold_cols(lay: Layout, v: &[u64], gate: Option<&[u64]>, out: &mut [u64], line: &mut Vec<u64>) {
    line.clear();
    line.resize(lay.row_words(), 0);
    match line.len() {
        1 => {
            let mut w = match gate {
                None => v.iter().fold(0, |a, &x| a | x),
                Some(g) => v.iter().zip(g).fold(0, |a, (&x, &y)| a | (x & y)),
            };
            let mut width = 64;
            while width > lay.stride {
                width /= 2;
                w |= w >> width;
            }
            line[0] = w & ones(lay.stride);
        }
        2 => or_rows(2, v, gate, line),
        rw => or_rows(rw, v, gate, line),
    }
    lay.tile_rows(line, out);
}

/// The wired-OR of column buses cut by the Open row images `open_rows`.
/// Row images of `v` are carried in movement order, restarting at each
/// row's Open bits, so each row holds the OR from its head down to itself;
/// then, against movement order, each cluster's last row (the one before
/// the next head) hands its total back up to the head. Each pass runs
/// twice round the line so that clusters wrapping past its end see their
/// other part; a driverless column keeps the OR of the whole line.
fn carry_cols(
    lay: Layout,
    dir: Direction,
    open_rows: &[u64],
    v: &[u64],
    out: &mut [u64],
    s: &mut Scratch,
) {
    let (rows, rw) = (lay.rows, lay.row_words());
    let at = |pos: usize| {
        if dir.is_increasing() {
            pos
        } else {
            rows - 1 - pos
        }
    };
    s.rows.clear();
    s.rows.resize(rows * rw, 0);
    for (r, image) in s.rows.chunks_mut(rw).enumerate() {
        lay.read_row(v, r, image);
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
                lay.or_row(out, r, &s.spare);
            }
        }
    }
}

/// The most-significant-bit-first comparator of two registers of
/// `nw`-word planes: walking down from the top plane, a PE is decided at
/// its highest differing bit, and `lt` (zeroed by the caller) gathers the
/// PEs at which that bit is clear in `a` and set in `b` — `a < b`. `tie`
/// holds the PEs still undecided; padding is zero in both operands, so it
/// stays tied and never enters `lt`.
fn less_than(nw: usize, a: &PackedInt, b: &PackedInt, lt: &mut [u64], tie: &mut [u64]) {
    tie.fill(!0);
    let planes = a.buf.words.chunks(nw).zip(b.buf.words.chunks(nw));
    for (x, y) in planes.rev() {
        for (((l, t), &p), &q) in lt.iter_mut().zip(tie.iter_mut()).zip(x).zip(y) {
            *l |= *t & !p & q;
            *t &= !(p ^ q);
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

/// A boolean mask plane packed into `u64` words, rows aligned so that no
/// row straddles a word (see the module docs): row `r` starts at bit
/// `r * stride`, where the stride is the row width rounded up to a power
/// of two up to 64, or to a multiple of 64.
///
/// Buffers are leased from the backend's `WordPool`, so steady-state
/// mask traffic allocates nothing. Padding bits (past a row's last column,
/// and past the last row) are always zero: every producing operation
/// maintains the invariant.
#[derive(Clone)]
pub struct PackedMask {
    dim: Dim,
    buf: Lease,
}

impl PackedMask {
    /// Whether the bit for flat PE index `i` is set.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        test_bit(&self.buf.words, Layout::of(self.dim).bit(i))
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
/// masks; every plane keeps the mask's zero padding.
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
        let at = Layout::of(self.dim).bit(i);
        (0..self.bits as usize).fold(0i64, |v, j| {
            v | (i64::from(test_bit(self.plane(j), at)) << j)
        })
    }

    fn plane(&self, j: usize) -> &[u64] {
        let nw = Layout::of(self.dim).words;
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
            buf: Lease::new(&self.pool, Layout::of(dim).words),
        }
    }

    fn alloc_int(&mut self, dim: Dim, bits: u32) -> PackedInt {
        PackedInt {
            dim,
            bits,
            buf: Lease::new(&self.pool, bits as usize * Layout::of(dim).words),
        }
    }

    /// A mask computed word by word from `f(word index)`, which must keep
    /// the padding zero.
    fn mask_from_words(&mut self, dim: Dim, f: impl Fn(usize) -> u64) -> PackedMask {
        let mut out = self.alloc_mask(dim);
        for (wi, w) in out.buf.words.iter_mut().enumerate() {
            *w = f(wi);
        }
        out
    }

    /// The index of the compiled form of the switch pattern `open` along
    /// `dir`, compiled on a miss. The most recent pattern is checked
    /// first: a scan's wired-ORs replay one pattern for all `h` bits.
    fn switch(&mut self, dim: Dim, dir: Direction, open: &[u64]) -> usize {
        self.clock += 1;
        let lay = Layout::of(dim);
        let same = |s: &Switch| s.dir == dir && s.lay == lay && s.open == open;
        let i = if self.switches.get(self.recent).is_some_and(same) {
            self.recent
        } else {
            match self.switches.iter().position(same) {
                Some(i) => i,
                None => return self.compile(lay, dir, open),
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
    fn compile(&mut self, lay: Layout, dir: Direction, open: &[u64]) -> usize {
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
            self.switches.push(Switch::new(lay, dir));
            self.switches.len() - 1
        });
        let sw = &mut self.switches[i];
        sw.compile(lay, dir, open);
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
        let lay = Layout::of(dim);
        let nw = lay.words;
        if by_row {
            for r in 0..dim.rows {
                let v = value(r) as u64;
                let bits = lay.row(r);
                for j in (0..h as usize).filter(|&j| (v >> j) & 1 == 1) {
                    set_range(&mut out.buf.words[j * nw..], bits.start, bits.end);
                }
            }
            return out;
        }
        let rw = lay.row_words();
        let mut images = vec![0u64; h as usize * rw];
        for c in 0..dim.cols {
            let v = value(c) as u64;
            for j in (0..h as usize).filter(|&j| (v >> j) & 1 == 1) {
                set_bit(&mut images[j * rw..], c);
            }
        }
        for (image, plane) in images.chunks_exact(rw).zip(out.buf.words.chunks_mut(nw)) {
            lay.tile_rows(image, plane);
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
        let lay = Layout::of(dim);
        let mut mask = self.alloc_mask(dim);
        let words = &mut mask.buf.words;
        for (r, row) in plane.as_slice().chunks(dim.cols).enumerate() {
            let at = lay.row(r).start;
            if lay.stride > 64 {
                pack(row, &mut words[at / 64..]);
            } else {
                words[at / 64] |= pack_word(row) << (at % 64);
            }
        }
        mask
    }

    fn mask_to_plane(&self, dim: Dim, mask: &PackedMask) -> Plane<bool> {
        let lay = Layout::of(dim);
        let bits = (0..dim.rows).flat_map(|r| lay.row(r));
        Plane::from_vec(dim, bits.map(|p| test_bit(mask.words(), p)).collect())
    }

    fn mask_filled(&mut self, dim: Dim, value: bool) -> PackedMask {
        let mut out = self.mask_from_words(dim, |_| if value { !0 } else { 0 });
        Layout::of(dim).trim(&mut out.buf.words);
        out
    }

    fn mask_count(&self, _dim: Dim, mask: &PackedMask) -> usize {
        mask.count()
    }

    fn mask_any_in(&self, dim: Dim, mask: &PackedMask, row: usize, cols: Range<usize>) -> bool {
        let base = Layout::of(dim).row(row).start;
        range_any(mask.words(), base + cols.start, base + cols.end)
    }

    fn mask_and(&mut self, dim: Dim, a: &PackedMask, b: &PackedMask) -> PackedMask {
        self.mask_from_words(dim, |wi| a.words()[wi] & b.words()[wi])
    }

    fn mask_or(&mut self, dim: Dim, a: &PackedMask, b: &PackedMask) -> PackedMask {
        self.mask_from_words(dim, |wi| a.words()[wi] | b.words()[wi])
    }

    fn mask_not(&mut self, dim: Dim, a: &PackedMask) -> PackedMask {
        let mut out = self.mask_from_words(dim, |wi| !a.words()[wi]);
        Layout::of(dim).trim(&mut out.buf.words);
        out
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
        let lay = Layout::of(dim);
        let (nw, bits) = (lay.words, h as usize);
        let (mut chunk, mut planes) = ([0i64; 64], [0u64; 64]);
        let (mut wi, mut end) = (0, 0);
        let mut flush = |chunk: &mut [i64; 64], wi: usize, end: usize| {
            // Padding inside row slots is never written, and the bits past
            // a word's last PE slice as zeros.
            chunk[end..].fill(0);
            slice_chunk(chunk, bits, &mut planes);
            for (j, &p) in planes[..bits].iter().enumerate() {
                out.buf.words[j * nw + wi] = p;
            }
        };
        for r in 0..dim.rows {
            for (c, at) in lay.row(r).enumerate() {
                if at / 64 != wi {
                    flush(&mut chunk, wi, end);
                    wi = at / 64;
                }
                chunk[at % 64] = value(r, c);
                end = at % 64 + 1;
            }
        }
        flush(&mut chunk, wi, end);
        out
    }

    fn int_by_row(&mut self, dim: Dim, h: u32, value: impl FnMut(usize) -> i64) -> PackedInt {
        self.int_by_line(dim, h, true, value)
    }

    fn int_by_col(&mut self, dim: Dim, h: u32, value: impl FnMut(usize) -> i64) -> PackedInt {
        self.int_by_line(dim, h, false, value)
    }

    fn int_to_plane(&self, dim: Dim, reg: &PackedInt) -> Plane<i64> {
        let lay = Layout::of(dim);
        let mut data = vec![0i64; dim.len()];
        for j in 0..reg.bits as usize {
            for_each_set_pe(lay, reg.plane(j), |i| data[i] |= 1 << j);
        }
        Plane::from_vec(dim, data)
    }

    fn int_row(&self, dim: Dim, reg: &PackedInt, row: usize, cols: Range<usize>) -> Vec<i64> {
        let start = Layout::of(dim).row(row).start + cols.start;
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
        let nw = Layout::of(dim).words;
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
            Layout::of(dim).trim(&mut out.buf.words[..nw]);
        }
        out
    }

    fn int_eq(&mut self, dim: Dim, a: &PackedInt, b: &PackedInt, equal: bool) -> PackedMask {
        let nw = Layout::of(dim).words;
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
            Layout::of(dim).trim(&mut out.buf.words);
        }
        out
    }

    fn int_lt(&mut self, dim: Dim, a: &PackedInt, b: &PackedInt) -> PackedMask {
        let nw = Layout::of(dim).words;
        let mut out = self.alloc_mask(dim);
        let mut tie = Lease::new(&self.pool, nw);
        less_than(nw, a, b, &mut out.buf.words, &mut tie.words);
        out
    }

    fn int_min2(&mut self, dim: Dim, a: &PackedInt, b: &PackedInt) -> PackedInt {
        debug_assert_eq!(a.bits, b.bits, "register width mismatch");
        let nw = Layout::of(dim).words;
        let (mut lt, mut tie) = (Lease::new(&self.pool, nw), Lease::new(&self.pool, nw));
        less_than(nw, a, b, &mut lt.words, &mut tie.words);
        // Every plane of a PE comes from `a` where `a < b`, else from `b`.
        let mut out = self.alloc_int(dim, a.bits);
        let planes = a.buf.words.chunks(nw).zip(b.buf.words.chunks(nw));
        for (o, (x, y)) in out.buf.words.chunks_mut(nw).zip(planes) {
            for (((o, &p), &q), &m) in o.iter_mut().zip(x).zip(y).zip(&lt.words) {
                *o = (p & m) | (q & !m);
            }
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
        let (m, nw) = (mask.words(), Layout::of(dim).words);
        for (d, s) in dst.buf.words.chunks_mut(nw).zip(src.buf.words.chunks(nw)) {
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
        sw.broadcast(&src.buf.words, &mut out.buf.words, &mut self.scratch);
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
        for_each_set_pe(Layout::of(dim), mask.words(), |i| d[i] = s[i]);
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
        let dim = Dim::new(5, 13); // 16-bit row slots: the fifth row opens a second word
        let plane = plane_of(dim, |i| i % 3 == 0 || i == 64);
        let mut be = PackedBackend::new();
        let mask = be.mask_from_plane(dim, &plane);
        assert_eq!(mask.count(), plane.count_true());
        assert_eq!(be.mask_to_plane(dim, &mask), plane);
    }

    #[test]
    fn filled_mask_leaves_the_padding_zero() {
        // Rows of 3 take 4-bit slots: three slots of 0b0111.
        let dim = Dim::new(3, 3);
        let mut be = PackedBackend::new();
        let mask = be.mask_filled(dim, true);
        assert_eq!(mask.count(), 9);
        assert_eq!(mask.words()[0], 0x777);
        let none = be.mask_filled(dim, false);
        let not = be.mask_not(dim, &none);
        assert_eq!(not.words()[0], 0x777, "negation keeps the padding zero");
    }

    #[test]
    fn no_row_straddles_a_word() {
        for cols in [
            1, 3, 12, 17, 24, 33, 63, 64, 65, 96, 100, 127, 128, 129, 1024,
        ] {
            for rows in [1, 3, 7, 64] {
                let lay = Layout::of(Dim::new(rows, cols));
                assert!(lay.stride >= cols, "{rows}x{cols}");
                assert!(lay.stride.is_power_of_two() || lay.stride.is_multiple_of(64));
                if cols.is_multiple_of(64) || 64 % cols == 0 {
                    assert_eq!(lay.stride, cols, "{rows}x{cols}: flat layout kept");
                }
                for r in 0..rows {
                    let bits = lay.row(r);
                    let (first, last) = (bits.start / 64, (bits.end - 1) / 64);
                    assert_eq!(last - first + 1, lay.row_words(), "{rows}x{cols} row {r}");
                    assert!(cols > 64 || first == last);
                }
                let valid: u32 = (0..lay.words).map(|wi| lay.valid(wi).count_ones()).sum();
                assert_eq!(valid as usize, rows * cols, "{rows}x{cols}");
            }
        }
    }

    #[test]
    fn lane_patterns_take_the_fill_forms() {
        // `(rows, lanes, lane width)`: a lane-batched machine's `COL == n - 1`
        // West and `COL == 0` East patterns fill their lanes whatever the
        // width; only lanes that straddle words need the wide-lane form.
        for (rows, lanes, width, slots) in [
            (4, 3, 12, true),
            (4, 3, 32, true),
            (2, 16, 64, true),
            (4, 3, 24, false),
            (3, 2, 96, false),
            (2, 2, 128, false),
        ] {
            let lay = Layout::of(Dim::new(rows, lanes * width));
            for (dir, head) in [(Direction::West, width - 1), (Direction::East, 0)] {
                let mut open = vec![0; lay.words];
                for r in 0..rows {
                    for l in 0..lanes {
                        set_bit(&mut open, lay.row(r).start + l * width + head);
                    }
                }
                let mut sw = Switch::new(lay, dir);
                sw.compile(lay, dir, &open);
                let at = format!("{lanes} lanes of {width}, {dir:?}");
                match sw.form {
                    Form::Slots(fill) => assert!(slots && fill.width as usize == width, "{at}"),
                    Form::Lanes(w) => assert!(!slots && w == width, "{at}"),
                    form => panic!("{at}: {form:?}"),
                }
                assert!(sw.driverless.is_empty(), "{at}");
            }
        }
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
    fn row_images_round_trip_in_every_layout() {
        for (rows, cols) in [(7, 3), (5, 13), (9, 32), (3, 64), (4, 96), (3, 129)] {
            let dim = Dim::new(rows, cols);
            let lay = Layout::of(dim);
            let mut be = PackedBackend::new();
            let plane = Plane::from_vec(dim, (0..dim.len()).map(|i| i % 7 < 3).collect());
            let mask = be.mask_from_plane(dim, &plane);
            let mut back = vec![0u64; lay.words];
            let mut image = vec![0u64; lay.row_words()];
            for r in 0..rows {
                lay.read_row(mask.words(), r, &mut image);
                for c in 0..cols {
                    assert_eq!(test_bit(&image, c), plane.as_slice()[r * cols + c]);
                }
                lay.or_row(&mut back, r, &image);
            }
            assert_eq!(back, mask.words(), "{rows}x{cols}");
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
        // Rows of 9 in 16-bit slots, four to a word: the last word is
        // partial and every slot carries padding.
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
        let dim = Dim::new(9, 31); // 32-bit row slots: four full words and a partial one
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
        let dim = Dim::new(5, 13); // rows in 16-bit slots: the flip keeps the padding zero
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
        let lay = Layout::of(dim);
        for (wi, &w) in got.plane(0).iter().enumerate() {
            assert_eq!(w & !lay.valid(wi), 0, "no padding bit set in word {wi}");
        }
    }
}
