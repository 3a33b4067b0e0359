//! Property-based tests for the integer linear algebra kernel.

use lego_linalg::{delinearize, hermite_normal_form, linearize, solve, AffineMap, IMat};
use proptest::prelude::*;

fn small_mat(max_rows: usize, max_cols: usize) -> impl Strategy<Value = IMat> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-6i64..=6, r * c)
            .prop_map(move |data| IMat::from_flat(r, c, data))
    })
}

proptest! {
    #[test]
    fn hnf_defining_property(a in small_mat(4, 5)) {
        let hnf = hermite_normal_form(&a);
        // A·U = H
        prop_assert_eq!(&(&a * &hnf.u), &hnf.h);
        // Echelon: zero right of every pivot, zero columns after the rank.
        for &(r, c) in &hnf.pivots {
            prop_assert!(hnf.h[(r, c)] > 0);
            for j in c + 1..a.cols() {
                prop_assert_eq!(hnf.h[(r, j)], 0);
            }
        }
        for j in hnf.pivots.len()..a.cols() {
            prop_assert!(hnf.h.col(j).iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn nullspace_vectors_annihilate(a in small_mat(4, 5)) {
        for v in solve(&a, &vec![0; a.rows()]).unwrap().basis {
            prop_assert!(a.mul_vec(&v).iter().all(|&x| x == 0));
        }
    }

    #[test]
    fn solve_recovers_planted_solution(
        a in small_mat(4, 4),
        x in proptest::collection::vec(-5i64..=5, 4),
    ) {
        // Plant a solution: b = A·x always has at least one integer solution.
        let x = &x[..a.cols()];
        let b = a.mul_vec(x);
        let sol = solve(&a, &b).expect("planted system must be solvable");
        prop_assert_eq!(a.mul_vec(&sol.particular), b.clone());
        // Any basis shift stays a solution.
        for v in &sol.basis {
            let shifted: Vec<i64> =
                sol.particular.iter().zip(v).map(|(p, d)| p + d).collect();
            prop_assert_eq!(a.mul_vec(&shifted), b.clone());
        }
    }

    #[test]
    fn solve_none_means_truly_unsolvable_small(
        a in small_mat(2, 2),
        b in proptest::collection::vec(-8i64..=8, 2),
    ) {
        let b = &b[..a.rows()];
        if solve(&a, b).is_none() {
            // Exhaustive check over a box: no integer solution hides there.
            let n = a.cols();
            let bound = 40i64;
            let mut x = vec![-bound; n];
            loop {
                prop_assert_ne!(a.mul_vec(&x), b.to_vec());
                let mut k = 0;
                loop {
                    x[k] += 1;
                    if x[k] <= bound {
                        break;
                    }
                    x[k] = -bound;
                    k += 1;
                    if k == n {
                        return Ok(());
                    }
                }
            }
        }
    }

    #[test]
    fn linearize_bijective(sizes in proptest::collection::vec(1i64..=5, 1..5)) {
        let total: i64 = sizes.iter().product();
        let mut seen = std::collections::HashSet::new();
        for t in 0..total {
            let idx = delinearize(t, &sizes);
            prop_assert!(seen.insert(idx.clone()));
            prop_assert_eq!(linearize(&idx, &sizes), t);
        }
    }

    #[test]
    fn affine_compose_associative(
        a in small_mat(3, 3),
        b in small_mat(3, 3),
        x in proptest::collection::vec(-4i64..=4, 3),
    ) {
        // Restrict to square 3x3 so all compositions are defined.
        let fa = AffineMap::new(
            IMat::from_flat(3, 3, (0..9).map(|i| a[(i / 3 % a.rows(), i % 3 % a.cols())]).collect()),
            vec![1, -2, 3],
        );
        let fb = AffineMap::new(
            IMat::from_flat(3, 3, (0..9).map(|i| b[(i / 3 % b.rows(), i % 3 % b.cols())]).collect()),
            vec![0, 4, -1],
        );
        let lhs = fa.compose(&fb).apply(&x);
        let rhs = fa.apply(&fb.apply(&x));
        prop_assert_eq!(lhs, rhs);
    }
}
