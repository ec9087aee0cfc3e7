//! Differential suite: [`PackedBackend`] must be bit-identical to
//! [`ScalarBackend`] — same results *and* same step counts — over
//! arbitrary switch patterns, masks and directions, with and without
//! fault injection. The backends share the issue side of the
//! machine, so any divergence here is an execution-side bug.

use ppa_machine::{
    bus, Coord, Dim, Direction, Executor, FaultMap, Machine, Plane, ScalarBackend, TransientFaults,
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

        let en_s = s.load_mask(&sel).unwrap();
        let en_p = p.load_mask(&sel).unwrap();
        prop_assert_eq!(s.unpack_mask(&en_s), p.unpack_mask(&en_p));

        let bit_s = s.mask_bit(&src, j).unwrap();
        let bit_p = p.mask_bit(&src, j).unwrap();
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
        let head_s = s.broadcast_open(&src, dir, &out_s);
        let head_p = p.broadcast_open(&src, dir, &out_p);
        match (head_s, head_p) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
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

            // The masked path routes through the same fault model.
            let lm_s = s.pack_mask(&open).unwrap();
            let lm_p = p.pack_mask(&open).unwrap();
            let vm_s = s.load_mask(&vals).unwrap();
            let vm_p = p.load_mask(&vals).unwrap();
            let mo_s = s.mask_bus_or(&vm_s, d, &lm_s).unwrap();
            let mo_p = p.mask_bus_or(&vm_p, d, &lm_p).unwrap();
            prop_assert_eq!(s.unpack_mask(&mo_s), p.unpack_mask(&mo_p));
        }
        prop_assert_eq!(s.controller().report(), p.controller().report());
    }
}

// The packed backend's plan-free broadcasts and packed coverage guardrail
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
        for dir in DIRECTIONS {
            let want = bus::broadcast(dim, &src, dir, &open);
            prop_assert_eq!(&packed.broadcast(&src, dir, &open), &want, "{:?} plane", dir);
            let mask = packed.pack_mask(&open).unwrap();
            prop_assert_eq!(&packed.broadcast_open(&src, dir, &mask), &want, "{:?} mask", dir);
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

/// Every bit `0..h` of `src` extracted on `m`, in `order`, must match the
/// scalar backend's per-bit extraction.
fn assert_bits_match<E: Executor>(m: &mut Machine<E>, src: &Plane<i64>, order: &[u32]) {
    let mut scalar = Machine::with_backend(m.dim(), ScalarBackend);
    for &j in order {
        let got = m.mask_bit(src, j).unwrap();
        let want = scalar.mask_bit(src, j).unwrap();
        assert_eq!(m.unpack_mask(&got), want, "{} bit {j}", E::NAME);
    }
}

#[test]
fn one_pass_bit_slices_match_per_bit_extraction() {
    // 65, 279 and 300 PEs each end in a partial 64-bit word.
    for (rows, cols) in [(5, 13), (9, 31), (1, 300)] {
        let dim = Dim::new(rows, cols);
        for h in 1..=62u32 {
            let src = h_bit_plane(dim, h, u64::from(h) * 7919 + cols as u64);
            // MSB first, as the scan runs: the first extraction slices
            // every bit. LSB first: every extraction re-slices deeper.
            let msb_first: Vec<u32> = (0..h).rev().collect();
            let lsb_first: Vec<u32> = (0..h).collect();
            for order in [&msb_first, &lsb_first] {
                assert_bits_match(&mut Machine::new_packed(rows, cols), &src, order);
            }
        }
    }
}

#[test]
fn slices_never_serve_a_plane_written_after_slicing() {
    let dim = Dim::new(9, 31);
    let scan: Vec<u32> = (0..8).rev().collect();
    let mut packed = Machine::new_packed(9, 31);
    let mut src = h_bit_plane(dim, 8, 3);
    assert_bits_match(&mut packed, &src, &scan);

    // A host-side write to the sliced plane.
    src.set(Coord::new(4, 7), 255);
    src.set(Coord::new(0, 0), 0);
    assert_bits_match(&mut packed, &src, &scan);
    let top = packed.mask_bit(&src, 7).unwrap();
    assert!(packed.unpack_mask(&top).get(Coord::new(4, 7)));

    // A costed in-place masked write, as the solver updates SOW.
    let other = h_bit_plane(dim, 8, 4);
    let mask = Plane::from_fn(dim, |c| (c.row + c.col) % 3 == 0);
    packed.assign_masked(&mut src, &other, &mask).unwrap();
    assert_bits_match(&mut packed, &src, &scan);
}
