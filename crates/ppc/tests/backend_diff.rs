//! Differential suite at the PPC level: the bit-serial `min` /
//! `selected_min` / `max` / `selected_max` collectives must produce the
//! same results, the same errors, and the same step reports on
//! [`PackedBackend`] as on the scalar backend, over arbitrary switch
//! patterns, selections, and word widths.

use ppa_machine::{bus, Dim, Direction, PackedBackend};
use ppa_ppc::{Parallel, Ppa, PpcError};
use proptest::prelude::*;

fn direction() -> impl Strategy<Value = Direction> {
    prop_oneof![
        Just(Direction::North),
        Just(Direction::East),
        Just(Direction::South),
        Just(Direction::West),
    ]
}

/// Ensures every line has at least one Open node so the collectives never
/// trip the all-lines-driven guardrail (that error path is exercised
/// separately below).
fn force_driver(dim: Dim, dir: Direction, open: &mut Parallel<bool>) {
    let axis = dir.axis();
    for line in 0..dim.lines(axis) {
        let mut any = false;
        for pos in 0..dim.line_len(axis) {
            let idx = dim.line_index(dir, line, pos);
            if open.as_slice()[idx] {
                any = true;
                break;
            }
        }
        if !any {
            let idx = dim.line_index(dir, line, 0);
            open.as_mut_slice()[idx] = true;
        }
    }
}

fn pair(n: usize, h: u32) -> (Ppa, Ppa<PackedBackend>) {
    (
        Ppa::square(n).with_word_bits(h),
        Ppa::<PackedBackend>::packed(n).with_word_bits(h),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn min_and_max_match_scalar(
        args in (3usize..=7).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0i64..=255, n * n),
                proptest::collection::vec(any::<bool>(), n * n),
            )
        }),
        dir in direction(),
        h in 4u32..=12,
    ) {
        let (n, vals, mask) = args;
        let dim = Dim::square(n);
        let (mut s, mut p) = pair(n, h);
        // Clamp the values into the h-bit range the scan assumes.
        let cap = (1i64 << h) - 1;
        let vals: Vec<i64> = vals.into_iter().map(|v| v.min(cap)).collect();
        let src = Parallel::from_vec(dim, vals);
        let mut open = Parallel::from_vec(dim, mask);
        force_driver(dim, dir, &mut open);

        let min_s = s.min(&src, dir, &open).unwrap();
        let min_p = p.min(&src, dir, &open).unwrap();
        prop_assert_eq!(&min_s, &min_p);

        let max_s = s.max(&src, dir, &open).unwrap();
        let max_p = p.max(&src, dir, &open).unwrap();
        prop_assert_eq!(&max_s, &max_p);

        // 2 x (4h + 4) steps on both machines, class by class.
        prop_assert_eq!(s.steps(), p.steps());
    }

    #[test]
    fn selected_extremes_match_scalar_including_errors(
        args in (3usize..=6).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0i64..=63, n * n),
                proptest::collection::vec(any::<bool>(), n * n),
                proptest::collection::vec(any::<bool>(), n * n),
            )
        }),
        dir in direction(),
        keep_low in any::<bool>(),
    ) {
        let (n, vals, mask, sel_bits) = args;
        let dim = Dim::square(n);
        let (mut s, mut p) = pair(n, 6);
        let src = Parallel::from_vec(dim, vals);
        let mut open = Parallel::from_vec(dim, mask);
        force_driver(dim, dir, &mut open);
        // The selection is NOT repaired: clusters whose selection is empty
        // must raise EmptySelection identically on both backends.
        let sel = Parallel::from_vec(dim, sel_bits);

        let (got_s, got_p) = if keep_low {
            (s.selected_min(&src, dir, &open, &sel), p.selected_min(&src, dir, &open, &sel))
        } else {
            (s.selected_max(&src, dir, &open, &sel), p.selected_max(&src, dir, &open, &sel))
        };
        match (got_s, got_p) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "divergent outcomes: {:?} vs {:?}", a, b),
        }
        prop_assert_eq!(s.steps(), p.steps());
    }

    #[test]
    fn selected_min_guardrail_matches_scalar_on_driverless_lines(
        args in (3usize..=9).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0i64..=63, n * n),
                proptest::collection::vec(0u32..100, n * n),
                proptest::collection::vec(0u32..100, n * n),
            )
        }),
        dir in direction(),
    ) {
        let (n, vals, open_draws, sel_draws) = args;
        let dim = Dim::square(n);
        let (mut s, mut p) = pair(n, 6);
        let src = Parallel::from_vec(dim, vals);
        // Sparse and unrepaired: some lines have no Open node (one
        // floating cluster for the guardrail, a BusFault for the resolve
        // broadcasts) and some clusters select nothing.
        let open = Parallel::from_vec(dim, open_draws.into_iter().map(|d| d < 12).collect());
        let sel = Parallel::from_vec(dim, sel_draws.into_iter().map(|d| d < 30).collect());

        let got_s = s.selected_min(&src, dir, &open, &sel);
        let got_p = p.selected_min(&src, dir, &open, &sel);
        if !bus::bus_or(dim, &sel, dir, &open).unwrap().all() {
            prop_assert_eq!(&got_s, &Err(PpcError::EmptySelection));
        }
        prop_assert_eq!(&got_p, &got_s);
        prop_assert_eq!(s.steps(), p.steps());
    }

    #[test]
    fn min_word_matches_scalar(
        args in (3usize..=6).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0i64..=100, n * n),
                proptest::collection::vec(any::<bool>(), n * n),
            )
        }),
        dir in direction(),
    ) {
        let (n, vals, mask) = args;
        let dim = Dim::square(n);
        let (mut s, mut p) = pair(n, 8);
        let src = Parallel::from_vec(dim, vals);
        let mut open = Parallel::from_vec(dim, mask);
        force_driver(dim, dir, &mut open);

        let a = s.min_word(&src, dir, &open).unwrap();
        let b = p.min_word(&src, dir, &open).unwrap();
        prop_assert_eq!(a, b);
        prop_assert_eq!(s.steps(), p.steps());
    }
}

/// Which of the four scans a case runs.
#[derive(Debug, Clone, Copy)]
enum Scan {
    Min,
    Max,
    SelectedMin,
    SelectedMax,
}

const SCANS: [Scan; 4] = [Scan::Min, Scan::Max, Scan::SelectedMin, Scan::SelectedMax];

/// The plane entry point of `scan`.
fn plane_scan<E: ppa_machine::Executor>(
    ppa: &mut Ppa<E>,
    scan: Scan,
    src: &Parallel<i64>,
    dir: Direction,
    l: &Parallel<bool>,
    sel: &Parallel<bool>,
) -> Result<Parallel<i64>, PpcError> {
    match scan {
        Scan::Min => ppa.min(src, dir, l),
        Scan::Max => ppa.max(src, dir, l),
        Scan::SelectedMin => ppa.selected_min(src, dir, l, sel),
        Scan::SelectedMax => ppa.selected_max(src, dir, l, sel),
    }
}

/// The register entry point of `scan`: load, scan, read.
fn register_scan<E: ppa_machine::Executor>(
    ppa: &mut Ppa<E>,
    scan: Scan,
    src: &Parallel<i64>,
    dir: Direction,
    l: &Parallel<bool>,
    sel: &Parallel<bool>,
) -> Result<Parallel<i64>, PpcError> {
    let src = ppa.load(src)?;
    let sel = ppa.machine_mut().pack_mask(sel)?;
    let l = ppa.machine_mut().pack_mask(l)?;
    let out = match scan {
        Scan::Min => ppa.int_min(&src, dir, &l),
        Scan::Max => ppa.int_max(&src, dir, &l),
        Scan::SelectedMin => ppa.int_selected_min(&src, dir, &l, &sel),
        Scan::SelectedMax => ppa.int_selected_max(&src, dir, &l, &sel),
    }?;
    Ok(ppa.read(&out))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn register_scans_match_their_plane_entry_points_and_scalar(
        args in (3usize..=7).prop_flat_map(|n| {
            (
                Just(n),
                proptest::collection::vec(0i64..=4095, n * n),
                proptest::collection::vec(0u32..100, n * n),
                proptest::collection::vec(0u32..100, n * n),
            )
        }),
        dir in direction(),
        h in prop_oneof![Just(1u32), Just(2), Just(6), Just(12)],
        overflow in any::<bool>(),
    ) {
        let (n, vals, open_draws, sel_draws) = args;
        let dim = Dim::square(n);
        let cap = (1i64 << h) - 1;
        // One value past MAXINT when `overflow`: every entry point must
        // report it as ValueOutOfRange.
        let vals: Vec<i64> = vals
            .into_iter()
            .enumerate()
            .map(|(i, v)| if overflow && i == n { cap + 1 } else { v.min(cap) })
            .collect();
        let src = Parallel::from_vec(dim, vals);
        let mut open = Parallel::from_vec(dim, open_draws.into_iter().map(|d| d < 25).collect());
        force_driver(dim, dir, &mut open);
        // Unrepaired selection: some clusters may select nothing.
        let sel = Parallel::from_vec(dim, sel_draws.into_iter().map(|d| d < 40).collect());
        for scan in SCANS {
            let (mut s, mut p) = pair(n, h);
            let (mut sr, mut pr) = pair(n, h);
            let want = plane_scan(&mut s, scan, &src, dir, &open, &sel);
            if overflow {
                prop_assert_eq!(&want, &Err(PpcError::ValueOutOfRange(cap + 1)));
            } else if matches!(scan, Scan::SelectedMin | Scan::SelectedMax)
                && !bus::bus_or(dim, &sel, dir, &open).unwrap().all()
            {
                prop_assert_eq!(&want, &Err(PpcError::EmptySelection));
            }
            prop_assert_eq!(&plane_scan(&mut p, scan, &src, dir, &open, &sel), &want, "{:?}", scan);
            prop_assert_eq!(&register_scan(&mut sr, scan, &src, dir, &open, &sel), &want, "{:?}", scan);
            prop_assert_eq!(&register_scan(&mut pr, scan, &src, dir, &open, &sel), &want, "{:?}", scan);
            // One scan, one step report, whichever entry point and backend.
            prop_assert_eq!(s.steps(), p.steps());
            prop_assert_eq!(s.steps(), sr.steps());
            prop_assert_eq!(s.steps(), pr.steps());
        }
    }
}
