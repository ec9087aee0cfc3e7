//! Differential suite: [`PackedBackend`] must be bit-identical to
//! [`ScalarBackend`] — same results *and* same step counts — over
//! arbitrary switch patterns, masks, registers and directions, with and
//! without fault injection. The backends share the issue side of the
//! machine, so any divergence here is an execution-side bug.

use ppa_machine::{
    bus, Dim, Direction, Executor, FaultMap, Machine, MachineError, PackedBackend, Plane,
    ScalarBackend, TransientFaults,
};
use proptest::prelude::*;

const DIRECTIONS: [Direction; 4] = [
    Direction::North,
    Direction::East,
    Direction::South,
    Direction::West,
];

fn direction() -> impl Strategy<Value = Direction> {
    prop_oneof![
        Just(Direction::North),
        Just(Direction::East),
        Just(Direction::South),
        Just(Direction::West),
    ]
}

fn bool_plane(rows: usize, cols: usize) -> impl Strategy<Value = Plane<bool>> {
    proptest::collection::vec(any::<bool>(), rows * cols)
        .prop_map(move |v| Plane::from_vec(ppa_machine::Dim::new(rows, cols), v))
}

/// A switch pattern whose density ranges from nearly empty (driverless
/// lines, long clusters that wrap around their line) to half Open.
fn sparse_plane(rows: usize, cols: usize) -> impl Strategy<Value = Plane<bool>> {
    (
        prop_oneof![Just(3u32), Just(15), Just(50)],
        proptest::collection::vec(0u32..100, rows * cols),
    )
        .prop_map(move |(percent, draws)| {
            let open = draws.into_iter().map(|d| d < percent).collect();
            Plane::from_vec(Dim::new(rows, cols), open)
        })
}

fn value_plane(rows: usize, cols: usize) -> impl Strategy<Value = Plane<i64>> {
    proptest::collection::vec(0i64..=1023, rows * cols)
        .prop_map(move |v| Plane::from_vec(ppa_machine::Dim::new(rows, cols), v))
}

// The first property runs one full bit-serial scan step sequence (enable,
// bit extraction, vote, wired-OR, knockout, head resolution) on both
// backends and asserts every intermediate mask, every result, every error,
// and the step report agree.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scan_primitives_are_bit_identical(
        // Non-square dims crossing the 64-bit word boundary are the
        // interesting packing cases, so sizes run past 8x8.
        args in (1usize..=9, 1usize..=11).prop_flat_map(|(r, c)| {
            (Just((r, c)), value_plane(r, c), bool_plane(r, c), bool_plane(r, c))
        }),
        dir in direction(),
        j in 0u32..10,
        keep_low in any::<bool>(),
    ) {
        let ((rows, cols), src, open, sel) = args;
        let mut s = Machine::<ScalarBackend>::new(rows, cols);
        let mut p = Machine::new_packed(rows, cols);

        let l_s = s.pack_mask(&open).unwrap();
        let l_p = p.pack_mask(&open).unwrap();
        let (sel_s, sel_p) = (s.pack_mask(&sel).unwrap(), p.pack_mask(&sel).unwrap());
        let vals = src.as_slice();
        let reg_s = s.load_int(10, |r, c| vals[r * cols + c]);
        let reg_p = p.load_int(10, |r, c| vals[r * cols + c]);

        let en_s = s.mask_copy(&sel_s).unwrap();
        let en_p = p.mask_copy(&sel_p).unwrap();
        prop_assert_eq!(s.unpack_mask(&en_s), p.unpack_mask(&en_p));

        let bit_s = s.int_bit(&reg_s, j).unwrap();
        let bit_p = p.int_bit(&reg_p, j).unwrap();
        prop_assert_eq!(s.unpack_mask(&bit_s), p.unpack_mask(&bit_p));

        let votes_s = s.mask_vote(&en_s, &bit_s, keep_low);
        let votes_p = p.mask_vote(&en_p, &bit_p, keep_low);
        prop_assert_eq!(s.unpack_mask(&votes_s), p.unpack_mask(&votes_p));

        let present_s = s.mask_bus_or(&votes_s, dir, &l_s).unwrap();
        let present_p = p.mask_bus_or(&votes_p, dir, &l_p).unwrap();
        prop_assert_eq!(s.unpack_mask(&present_s), p.unpack_mask(&present_p));

        let out_s = s.mask_knockout(&en_s, &present_s, &bit_s, keep_low);
        let out_p = p.mask_knockout(&en_p, &present_p, &bit_p, keep_low);
        prop_assert_eq!(s.unpack_mask(&out_s), p.unpack_mask(&out_p));
        prop_assert_eq!(s.mask_count(&out_s), p.mask_count(&out_p));

        // Head resolution: the Open mask may leave lines driverless, so
        // errors must agree exactly too.
        let head_s = s.int_broadcast(&reg_s, dir, &out_s);
        let head_p = p.int_broadcast(&reg_p, dir, &out_p);
        match (head_s, head_p) {
            (Ok(a), Ok(b)) => prop_assert_eq!(s.read_int(&a), p.read_int(&b)),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", a, b),
        }

        // Identical instruction streams must cost identical step reports.
        prop_assert_eq!(s.controller().report(), p.controller().report());
    }

    #[test]
    fn plane_level_bus_ops_are_bit_identical(
        args in (2usize..=9, 2usize..=9).prop_flat_map(|(r, c)| {
            (Just((r, c)), value_plane(r, c), bool_plane(r, c), bool_plane(r, c))
        }),
        dir in direction(),
    ) {
        let ((rows, cols), src, open, vals) = args;
        let mut s = Machine::<ScalarBackend>::new(rows, cols);
        let mut p = Machine::new_packed(rows, cols);

        match (s.broadcast(&src, dir, &open), p.broadcast(&src, dir, &open)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", a, b),
        }
        let or_s = s.bus_or(&vals, dir, &open).unwrap();
        let or_p = p.bus_or(&vals, dir, &open).unwrap();
        prop_assert_eq!(or_s, or_p);

        let sh_s = s.shift(&src, dir, -1).unwrap();
        let sh_p = p.shift(&src, dir, -1).unwrap();
        prop_assert_eq!(sh_s, sh_p);
        let shw_s = s.shift_wrapping(&src, dir).unwrap();
        let shw_p = p.shift_wrapping(&src, dir).unwrap();
        prop_assert_eq!(shw_s, shw_p);

        prop_assert_eq!(s.global_or(&vals).unwrap(), p.global_or(&vals).unwrap());
        prop_assert_eq!(s.controller().report(), p.controller().report());
    }

    #[test]
    fn fault_injection_bites_identically(
        args in (3usize..=8).prop_flat_map(|n| {
            (Just(n), value_plane(n, n), bool_plane(n, n), bool_plane(n, n))
        }),
        dir in direction(),
        k in 1usize..=4,
        seed in 0u64..1000,
    ) {
        let (n, src, open, vals) = args;
        let mut s = Machine::<ScalarBackend>::new(n, n);
        let mut p = Machine::new_packed(n, n);
        let fm = FaultMap::random(s.dim(), k, seed);
        s.attach_faults(fm.clone());
        p.attach_faults(fm);
        // Same per-transfer glitch probability, same RNG seed: the two
        // machines must sample the same transient sequence because the
        // backends issue the same bus instructions in the same order.
        s.attach_transient_faults(TransientFaults::new(0.2, seed ^ 0xdead));
        p.attach_transient_faults(TransientFaults::new(0.2, seed ^ 0xdead));

        for round in 0..3 {
            let d = if round % 2 == 0 { dir } else { dir.opposite() };
            match (s.broadcast(&src, d, &open), p.broadcast(&src, d, &open)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", a, b),
            }
            let or_s = s.bus_or(&vals, d, &open).unwrap();
            let or_p = p.bus_or(&vals, d, &open).unwrap();
            prop_assert_eq!(or_s, or_p);

            // The masked and register paths route through the same fault
            // model.
            let lm_s = s.pack_mask(&open).unwrap();
            let lm_p = p.pack_mask(&open).unwrap();
            let vm_s = s.pack_mask(&vals).unwrap();
            let vm_p = p.pack_mask(&vals).unwrap();
            let mo_s = s.mask_bus_or(&vm_s, d, &lm_s).unwrap();
            let mo_p = p.mask_bus_or(&vm_p, d, &lm_p).unwrap();
            prop_assert_eq!(s.unpack_mask(&mo_s), p.unpack_mask(&mo_p));
            let v = src.as_slice();
            let reg_s = s.load_int(10, |r, c| v[r * n + c]);
            let reg_p = p.load_int(10, |r, c| v[r * n + c]);
            match (s.int_broadcast(&reg_s, d, &lm_s), p.int_broadcast(&reg_p, d, &lm_p)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(s.read_int(&a), p.read_int(&b)),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", a, b),
            }
        }
        prop_assert_eq!(s.controller().report(), p.controller().report());
    }
}

// The packed backend's compiled broadcasts and packed coverage guardrail
// against the scalar bus reference. Dims run to 24 rows and 70 columns,
// so rows straddle 64-bit words; sparse patterns give wrapping clusters
// and driverless lines, whose `BusFault` line lists must agree exactly.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn direct_broadcasts_match_the_bus_reference(
        args in (1usize..=24, 1usize..=70).prop_flat_map(|(r, c)| {
            (Just((r, c)), sparse_plane(r, c))
        }),
    ) {
        let ((rows, cols), open) = args;
        let dim = Dim::new(rows, cols);
        // The identity plane: a wrong head shows up as a wrong value.
        let src = Plane::from_fn(dim, |c| dim.index(c) as i64);
        let mut packed = Machine::new_packed(rows, cols);
        let reg = packed.load_int(11, |r, c| (r * cols + c) as i64);
        for dir in DIRECTIONS {
            let want = bus::broadcast(dim, &src, dir, &open);
            prop_assert_eq!(&packed.broadcast(&src, dir, &open), &want, "{:?} plane", dir);
            let mask = packed.pack_mask(&open).unwrap();
            let got = packed.int_broadcast(&reg, dir, &mask).map(|r| packed.read_int(&r));
            prop_assert_eq!(&got, &want, "{:?} register", dir);
        }
    }

    #[test]
    fn coverage_guardrail_matches_the_bus_reference(
        args in (1usize..=24, 1usize..=70).prop_flat_map(|(r, c)| {
            (Just((r, c)), sparse_plane(r, c), sparse_plane(r, c))
        }),
        seed in 0u64..1000,
    ) {
        let ((rows, cols), open, sel) = args;
        let dim = Dim::new(rows, cols);
        let mut scalar = Machine::new(rows, cols);
        let mut packed = Machine::new_packed(rows, cols);
        // The guardrail reads the intended pattern: attached faults and a
        // certain transient glitch must not reach it.
        let faults = FaultMap::random(dim, 2, seed);
        scalar.attach_faults(faults.clone());
        packed.attach_faults(faults);
        packed.attach_transient_faults(TransientFaults::new(1.0, seed));
        for dir in DIRECTIONS {
            let want = bus::bus_or(dim, &sel, dir, &open).unwrap().all();
            prop_assert_eq!(covered(&mut scalar, &sel, dir, &open), want, "{:?} scalar", dir);
            prop_assert_eq!(covered(&mut packed, &sel, dir, &open), want, "{:?} packed", dir);
        }
        // Uncosted: no machine issued a single step.
        prop_assert_eq!(scalar.controller().total_steps(), 0);
        prop_assert_eq!(packed.controller().total_steps(), 0);
    }
}

fn covered<E: Executor>(
    m: &mut Machine<E>,
    sel: &Plane<bool>,
    dir: Direction,
    open: &Plane<bool>,
) -> bool {
    let sel = m.pack_mask(sel).unwrap();
    let open = m.pack_mask(open).unwrap();
    m.clusters_covered(&sel, dir, &open).unwrap()
}

/// Deterministic h-bit values: a splitmix64 stream masked to `h` bits.
fn h_bit_plane(dim: Dim, h: u32, seed: u64) -> Plane<i64> {
    let mut state = seed;
    Plane::from_fn(dim, |_| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) & ((1u64 << h) - 1)) as i64
    })
}

/// A plane loaded into an `h`-bit register.
fn load<E: Executor>(m: &mut Machine<E>, h: u32, p: &Plane<i64>) -> E::Int {
    let (cols, v) = (p.dim().cols, p.as_slice());
    m.load_int(h, |r, c| v[r * cols + c])
}

#[test]
fn register_loads_match_per_bit_extraction() {
    // 65, 279 and 300 PEs each end in a partial 64-bit word.
    for (rows, cols) in [(5, 13), (9, 31), (1, 300)] {
        let dim = Dim::new(rows, cols);
        for h in 1..=62u32 {
            let src = h_bit_plane(dim, h, u64::from(h) * 7919 + cols as u64);
            let mut scalar = Machine::new(rows, cols);
            let mut packed = Machine::new_packed(rows, cols);
            let (rs, rp) = (load(&mut scalar, h, &src), load(&mut packed, h, &src));
            assert_eq!(packed.read_int(&rp), src, "h={h} round trip");
            for j in (0..h).rev() {
                let want = scalar.int_bit(&rs, j).unwrap();
                let got = packed.int_bit(&rp, j).unwrap();
                assert_eq!(packed.unpack_mask(&got), want, "h={h} bit {j}");
            }
        }
    }
}

/// The shapes the register differential runs: rows straddling words,
/// word-aligned and unaligned squares, rows that divide a word, and
/// 2-lane layouts.
const SHAPES: [(usize, usize, usize); 7] = [
    (5, 13, 13),
    (9, 31, 31),
    (64, 64, 64),
    (96, 96, 96),
    (20, 40, 20),
    (12, 8, 8),
    (7, 32, 16),
];

const WIDTHS: [u32; 5] = [1, 2, 11, 31, 62];

/// Runs the same register program on a scalar and a packed machine and
/// asserts every value, every mask and the step report agree.
struct Pair {
    s: Machine<ScalarBackend>,
    p: Machine<PackedBackend>,
    h: u32,
}

impl Pair {
    fn new(rows: usize, cols: usize, h: u32) -> Self {
        Pair {
            s: Machine::new(rows, cols),
            p: Machine::new_packed(rows, cols),
            h,
        }
    }

    fn load(&mut self, v: &Plane<i64>) -> (Plane<i64>, <PackedBackend as Executor>::Int) {
        (load(&mut self.s, self.h, v), load(&mut self.p, self.h, v))
    }

    fn mask(&mut self, m: &Plane<bool>) -> (Plane<bool>, <PackedBackend as Executor>::Mask) {
        (self.s.pack_mask(m).unwrap(), self.p.pack_mask(m).unwrap())
    }

    fn same_int(&self, what: &str, r: &(Plane<i64>, <PackedBackend as Executor>::Int)) {
        assert_eq!(
            self.s.read_int(&r.0),
            self.p.read_int(&r.1),
            "{what} (h={})",
            self.h
        );
    }

    fn same_mask(&self, what: &str, m: &(Plane<bool>, <PackedBackend as Executor>::Mask)) {
        assert_eq!(m.0, self.p.unpack_mask(&m.1), "{what} (h={})", self.h);
    }
}

#[test]
fn register_opcodes_match_scalar() {
    for (rows, cols, lane_cols) in SHAPES {
        let dim = Dim::new(rows, cols);
        for h in WIDTHS {
            let max = (1i64 << h) - 1;
            let mut t = Pair::new(rows, cols, h);
            let a_plane = h_bit_plane(dim, h, 11 + h as u64);
            // Saturation: MAXINT and near-MAXINT operands on a stripe.
            let b_plane = Plane::from_fn(dim, |c| match (c.row + c.col) % 4 {
                0 => max,
                1 => (max - *a_plane.get(c)).min(max),
                _ => *a_plane.get(c) / 2 + 1,
            })
            .map_free(|&v| v.min(max));
            // Equal except for the top plane at a third of the PEs.
            let top = 1i64 << (h - 1);
            let c_plane = Plane::from_fn(dim, |c| {
                *a_plane.get(c) ^ if c.col % 3 == 0 { top } else { 0 }
            });
            let (a, b, c) = (t.load(&a_plane), t.load(&b_plane), t.load(&c_plane));

            let sum = (
                t.s.int_sat_add(&a.0, &b.0, h).unwrap(),
                t.p.int_sat_add(&a.1, &b.1, h).unwrap(),
            );
            t.same_int("sat_add", &sum);
            assert!(t.s.read_int(&sum.0).iter().all(|&v| (0..=max).contains(&v)));
            for equal in [true, false] {
                let m = (
                    t.s.int_eq(&a.0, &c.0, equal).unwrap(),
                    t.p.int_eq(&a.1, &c.1, equal).unwrap(),
                );
                t.same_mask("eq/ne on the top plane", &m);
                let m = (
                    t.s.int_eq(&a.0, &b.0, equal).unwrap(),
                    t.p.int_eq(&a.1, &b.1, equal).unwrap(),
                );
                t.same_mask("eq/ne", &m);
            }
            for j in 0..h {
                let m = (t.s.int_bit(&a.0, j).unwrap(), t.p.int_bit(&a.1, j).unwrap());
                t.same_mask("bit", &m);
            }

            // Immediates and index registers, where they fit the word.
            for v in [0, max, a_plane.as_slice()[0]] {
                let r = (t.s.int_imm(v, h), t.p.int_imm(v, h));
                t.same_int("imm", &r);
            }
            let lanes = cols / lane_cols;
            let lane_values: Vec<i64> = (0..lanes).map(|l| max - l as i64 % (max + 1)).collect();
            let r = (
                t.s.int_lane_imm(&lane_values, lane_cols, h),
                t.p.int_lane_imm(&lane_values, lane_cols, h),
            );
            t.same_int("lane imm", &r);
            if rows as i64 - 1 <= max {
                let r = (t.s.int_row_index(h), t.p.int_row_index(h));
                t.same_int("ROW", &r);
            }
            if lane_cols as i64 - 1 <= max {
                let r = (
                    t.s.int_col_index(lane_cols, h),
                    t.p.int_col_index(lane_cols, h),
                );
                t.same_int("COL", &r);
            }

            // Mask logic, copies, host reads and the global OR.
            let sel = t.mask(&Plane::from_fn(dim, |c| (c.row * 7 + c.col) % 5 < 2));
            let other = t.mask(&Plane::from_fn(dim, |c| c.col % 2 == 0));
            let and = (
                t.s.mask_and(&sel.0, &other.0).unwrap(),
                t.p.mask_and(&sel.1, &other.1).unwrap(),
            );
            t.same_mask("and", &and);
            let or = (
                t.s.mask_or(&sel.0, &other.0).unwrap(),
                t.p.mask_or(&sel.1, &other.1).unwrap(),
            );
            t.same_mask("or", &or);
            let not = (t.s.mask_not(&sel.0).unwrap(), t.p.mask_not(&sel.1).unwrap());
            t.same_mask("not", &not);
            let copy = (
                t.s.mask_copy(&not.0).unwrap(),
                t.p.mask_copy(&not.1).unwrap(),
            );
            t.same_mask("copy", &copy);
            assert_eq!(
                t.s.mask_global_or(&and.0).unwrap(),
                t.p.mask_global_or(&and.1).unwrap()
            );
            for row in [0, rows - 1] {
                for range in [0..cols, cols / 2..cols, 0..1] {
                    assert_eq!(
                        t.s.mask_any_in(&sel.0, row, range.clone()),
                        t.p.mask_any_in(&sel.1, row, range.clone())
                    );
                    assert_eq!(
                        t.s.read_int_row(&a.0, row, range.clone()),
                        t.p.read_int_row(&a.1, row, range)
                    );
                }
            }

            // Masked and unmasked writes.
            let mut d = (a.0.clone(), a.1.clone());
            t.s.int_assign(&mut d.0, &b.0, Some(&sel.0)).unwrap();
            t.p.int_assign(&mut d.1, &b.1, Some(&sel.1)).unwrap();
            t.same_int("masked assign", &d);
            t.s.int_assign(&mut d.0, &c.0, None).unwrap();
            t.p.int_assign(&mut d.1, &c.1, None).unwrap();
            t.same_int("assign", &d);

            // Broadcasts under the MCP switch patterns and a sparse one
            // with driverless lines, in every direction.
            let patterns = [
                Plane::from_fn(dim, |c| c.row == c.col % lane_cols),
                Plane::from_fn(dim, |c| c.col % lane_cols == lane_cols - 1),
                Plane::from_fn(dim, |c| c.row == rows / 2),
                Plane::from_fn(dim, |c| (c.row * 3 + c.col * 5) % 7 == 0),
                Plane::from_fn(dim, |c| (c.row * 13 + c.col * 29) % 97 == 0),
                // Dense: runs of one-PE clusters and fully Open rows.
                Plane::from_fn(dim, |c| c.col % 4 != 1 || c.row % 3 == 0),
            ];
            for open in &patterns {
                let open = t.mask(open);
                for dir in DIRECTIONS {
                    match (
                        t.s.int_broadcast(&a.0, dir, &open.0),
                        t.p.int_broadcast(&a.1, dir, &open.1),
                    ) {
                        (Ok(x), Ok(y)) => t.same_int(&format!("broadcast {dir:?}"), &(x, y)),
                        (Err(x), Err(y)) => assert_eq!(x, y, "{dir:?} (h={h})"),
                        (x, y) => panic!("{dir:?} (h={h}): {x:?} vs {y:?}"),
                    }
                }
            }
            assert_eq!(
                t.s.controller().report(),
                t.p.controller().report(),
                "{rows}x{cols} h={h}: per-class steps"
            );
        }
    }
}

/// The lines of a bus fault, sorted, or the broadcast values.
fn outcome(r: Result<Plane<i64>, MachineError>) -> String {
    match r {
        Ok(p) => format!("{:?}", p.as_slice()),
        Err(MachineError::BusFault { axis, mut lines }) => {
            lines.sort_unstable();
            format!("fault {axis:?} {lines:?}")
        }
        Err(e) => format!("{e}"),
    }
}

#[test]
fn register_broadcasts_route_faults_like_scalar() {
    for (rows, cols, lane_cols) in SHAPES {
        let dim = Dim::new(rows, cols);
        let src = h_bit_plane(dim, 11, cols as u64);
        let patterns = [
            Plane::from_fn(dim, |c| c.row == c.col % lane_cols),
            Plane::from_fn(dim, |c| c.col % lane_cols == lane_cols - 1),
            Plane::from_fn(dim, |c| (c.row * 3 + c.col * 5) % 7 == 0),
        ];
        for seed in 0..4u64 {
            let faults = FaultMap::random(dim, 1 + seed as usize, seed);
            // The reference: scalar plane broadcasts. Then scalar and packed
            // register broadcasts under the same fault models.
            let mut plane = Machine::new(rows, cols);
            let mut scalar = Machine::new(rows, cols);
            let mut packed = Machine::new_packed(rows, cols);
            for_each_fault_model(&mut plane, &faults, seed);
            for_each_fault_model(&mut scalar, &faults, seed);
            for_each_fault_model(&mut packed, &faults, seed);
            let rs = load(&mut scalar, 11, &src);
            let rp = load(&mut packed, 11, &src);
            for round in 0..6 {
                let open = &patterns[round % patterns.len()];
                let dir = DIRECTIONS[(round + seed as usize) % 4];
                let want = plane.broadcast(&src, dir, open);
                let (ms, mp) = (
                    scalar.pack_mask(open).unwrap(),
                    packed.pack_mask(open).unwrap(),
                );
                let got_s = scalar
                    .int_broadcast(&rs, dir, &ms)
                    .map(|r| scalar.read_int(&r));
                let got_p = packed
                    .int_broadcast(&rp, dir, &mp)
                    .map(|r| packed.read_int(&r));
                let want = outcome(want);
                assert_eq!(
                    outcome(got_s),
                    want,
                    "{rows}x{cols} seed {seed} round {round}"
                );
                assert_eq!(
                    outcome(got_p),
                    want,
                    "{rows}x{cols} seed {seed} round {round}"
                );
            }
            // The transient process was sampled once per transfer on every
            // machine: the flip and distortion tallies agree.
            let want = tallies(&mut plane);
            assert_eq!(want.0, 6, "p = 1.0 flips one switch per transfer");
            assert_eq!(tallies(&mut scalar), want);
            assert_eq!(tallies(&mut packed), want);
            assert_eq!(scalar.controller().report(), packed.controller().report());
        }
    }
}

/// The transient-flip and distorted-transfer counters of `m`.
fn tallies<E: Executor>(m: &mut Machine<E>) -> (u64, u64) {
    let metrics = m.controller_mut().take_metrics();
    (
        metrics.counter("faults.transient_flips"),
        metrics.counter("faults.distorted_transfers"),
    )
}

/// Attaches `faults` and a certain (p = 1.0) transient process, with
/// metrics on.
fn for_each_fault_model<E: Executor>(m: &mut Machine<E>, faults: &FaultMap, seed: u64) {
    m.controller_mut().enable_metrics();
    m.attach_faults(faults.clone());
    m.attach_transient_faults(TransientFaults::new(1.0, seed ^ 0x5eed));
}

/// The shapes the compiled bus kernels serve, with their lane width: rows
/// of one 8-, 16- or 32-bit slot, narrow rows straddling words (27, and
/// lanes of 12), whole-word rows, wide rows straddling words (96), rows of
/// two words, and lanes of 64 columns.
const BUS_SHAPES: [(usize, usize, usize); 10] = [
    (8, 8, 8),
    (16, 16, 16),
    (32, 32, 32),
    (27, 27, 27),
    (12, 24, 12),
    (64, 64, 64),
    (96, 96, 96),
    (128, 128, 128),
    (64, 128, 64),
    (64, 1024, 64),
];

#[test]
fn bus_kernels_match_the_bus_reference_at_served_shapes() {
    for (rows, cols, lane) in BUS_SHAPES {
        let dim = Dim::new(rows, cols);
        let noise = h_bit_plane(dim, 7, (rows * cols) as u64);
        let drawn = h_bit_plane(Dim::new(rows, 1), 16, cols as u64);
        let (r0, c0) = (rows / 3, cols / 2 + 1);
        let patterns = [
            (
                "one Open per row",
                Plane::from_fn(dim, |c| c.col == drawn.as_slice()[c.row] as usize % cols),
            ),
            (
                "lane ends",
                Plane::from_fn(dim, |c| c.col % lane == lane - 1),
            ),
            (
                "ROW == lane COL",
                Plane::from_fn(dim, |c| c.row == c.col % lane),
            ),
            ("all Open", Plane::filled(dim, true)),
            (
                "an empty row and column",
                Plane::from_fn(dim, |c| {
                    c.row != r0 && c.col != c0 && *noise.get(c) % 3 == 0
                }),
            ),
            ("sparse", Plane::from_fn(dim, |c| *noise.get(c) < 4)),
        ];
        let values = Plane::from_fn(dim, |c| *noise.get(c) % 19 == 0);
        let mut s = Machine::<ScalarBackend>::new(rows, cols);
        let mut p = Machine::new_packed(rows, cols);
        let (vs, vp) = (s.pack_mask(&values).unwrap(), p.pack_mask(&values).unwrap());
        let srcs: Vec<_> = [1u32, 11, 62]
            .into_iter()
            .map(|h| {
                let src = h_bit_plane(dim, h, u64::from(h) + cols as u64);
                let regs = (load(&mut s, h, &src), load(&mut p, h, &src));
                (h, src, regs)
            })
            .collect();
        for (name, open) in &patterns {
            let (os, op) = (s.pack_mask(open).unwrap(), p.pack_mask(open).unwrap());
            for dir in DIRECTIONS {
                let at = format!("{rows}x{cols}, {name}, {dir:?}");
                let want = bus::bus_or(dim, &values, dir, open).unwrap();
                s.mask_bus_or(&vs, dir, &os).unwrap();
                let got = p.mask_bus_or(&vp, dir, &op).unwrap();
                assert_eq!(p.unpack_mask(&got), want, "{at}: mask_bus_or");
                s.bus_or(&values, dir, open).unwrap();
                assert_eq!(p.bus_or(&values, dir, open).unwrap(), want, "{at}: bus_or");
                for (h, src, (rs, rp)) in &srcs {
                    let want = bus::broadcast(dim, src, dir, open);
                    let _ = s.int_broadcast(rs, dir, &os);
                    let got = p.int_broadcast(rp, dir, &op).map(|r| p.read_int(&r));
                    assert_eq!(got, want, "{at}: int_broadcast h={h}");
                }
                let src = &srcs[1].1;
                let _ = s.broadcast(src, dir, open);
                let got = p.broadcast(src, dir, open);
                assert_eq!(got, bus::broadcast(dim, src, dir, open), "{at}: broadcast");
            }
        }
        assert_eq!(
            s.controller().report(),
            p.controller().report(),
            "{rows}x{cols}: per-class steps"
        );
    }
}
