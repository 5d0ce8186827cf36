//! Matrix arithmetic: matmul (plus the transposed variants backward passes
//! need), elementwise kernels, and row-wise reductions.

use crate::{Matrix, Result};

/// `C = A * B` (`m x k` times `k x n`).
///
/// Blocked i-k-j loop: the inner loop is a contiguous AXPY over a row of `B`,
/// which the compiler auto-vectorizes. This is the single hottest kernel in
/// the workspace (every GNN layer is one or two of these), so it avoids all
/// per-entry bounds checks by iterating slices.
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(crate::TensorError::ShapeMismatch {
            lhs: a.shape(),
            rhs: b.shape(),
            op: "matmul",
        });
    }
    let (m, _k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = b.row(p);
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_ip * b_v;
            }
        }
    }
    Ok(c)
}

/// `C = A^T * B` (`k x m`^T times `k x n` -> `m x n`).
///
/// Used by weight gradients: `dW = H^T * dOut`.
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(crate::TensorError::ShapeMismatch {
            lhs: a.shape(),
            rhs: b.shape(),
            op: "matmul_at_b",
        });
    }
    let m = a.cols();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for p in 0..a.rows() {
        let a_row = a.row(p);
        let b_row = b.row(p);
        for (i, &a_pi) in a_row.iter().enumerate() {
            if a_pi == 0.0 {
                continue;
            }
            let c_row = c.row_mut(i);
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                *c_v += a_pi * b_v;
            }
        }
    }
    Ok(c)
}

/// `C = A * B^T` (`m x k` times `n x k`^T -> `m x n`).
///
/// Used by input gradients: `dH = dOut * W^T`.
///
/// `B` is transposed once, then each output row is built as AXPYs over the
/// rows of `B^T` in increasing `p`, so every entry is summed in the same
/// order as the dot product `Σ_p a[i][p] * b[j][p]` starting from `0.0`:
/// the result is bit-identical to that loop, yet the inner loop runs over
/// contiguous output columns and vectorizes. Unlike [`matmul`] no zero entry
/// of `A` is skipped, so a NaN or infinity in `B` reaches every output it
/// touches, exactly as in the dot product.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(crate::TensorError::ShapeMismatch {
            lhs: a.shape(),
            rhs: b.shape(),
            op: "matmul_a_bt",
        });
    }
    let bt = b.transpose();
    let mut c = Matrix::zeros(a.rows(), b.rows());
    for i in 0..a.rows() {
        let c_row = c.row_mut(i);
        for (p, &a_ip) in a.row(i).iter().enumerate() {
            for (c_v, &b_v) in c_row.iter_mut().zip(bt.row(p)) {
                *c_v += a_ip * b_v;
            }
        }
    }
    Ok(c)
}

/// `A += B`.
pub fn add_assign(a: &mut Matrix, b: &Matrix) -> Result<()> {
    a.check_same_shape(b, "add_assign")?;
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += y;
    }
    Ok(())
}

/// `A += alpha * B` (matrix AXPY).
pub fn axpy(a: &mut Matrix, alpha: f32, b: &Matrix) -> Result<()> {
    a.check_same_shape(b, "axpy")?;
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += alpha * y;
    }
    Ok(())
}

/// `A -= B`.
pub fn sub_assign(a: &mut Matrix, b: &Matrix) -> Result<()> {
    a.check_same_shape(b, "sub_assign")?;
    for (x, &y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x -= y;
    }
    Ok(())
}

/// Elementwise product `A ⊙ B` into a new matrix.
pub fn hadamard(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    a.check_same_shape(b, "hadamard")?;
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| x * y)
        .collect();
    Ok(Matrix::from_vec(a.rows(), a.cols(), data))
}

/// `A *= alpha`.
pub fn scale(a: &mut Matrix, alpha: f32) {
    a.as_mut_slice().iter_mut().for_each(|x| *x *= alpha);
}

/// Add a row vector `bias` (len = cols) to every row of `a`.
pub fn add_bias(a: &mut Matrix, bias: &[f32]) {
    assert_eq!(a.cols(), bias.len(), "add_bias: dim mismatch");
    for r in 0..a.rows() {
        for (x, &b) in a.row_mut(r).iter_mut().zip(bias) {
            *x += b;
        }
    }
}

/// Column-wise sum of `a` (the bias gradient): returns a vector of len cols.
pub fn column_sums(a: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0; a.cols()];
    for r in 0..a.rows() {
        for (o, &v) in out.iter_mut().zip(a.row(r)) {
            *o += v;
        }
    }
    out
}

/// Horizontally concatenate `[a | b]` row by row.
///
/// GraphSAGE's update is `W * concat(h_v, mean_agg)`; this builds the concat.
pub fn hconcat(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(crate::TensorError::ShapeMismatch {
            lhs: a.shape(),
            rhs: b.shape(),
            op: "hconcat",
        });
    }
    let cols = a.cols() + b.cols();
    let mut out = Matrix::zeros(a.rows(), cols);
    for r in 0..a.rows() {
        let dst = out.row_mut(r);
        dst[..a.cols()].copy_from_slice(a.row(r));
        dst[a.cols()..].copy_from_slice(b.row(r));
    }
    Ok(out)
}

/// Split a matrix column-wise at `at`: inverse of [`hconcat`].
pub fn hsplit(m: &Matrix, at: usize) -> (Matrix, Matrix) {
    assert!(at <= m.cols(), "hsplit: split point beyond columns");
    let mut left = Matrix::zeros(m.rows(), at);
    let mut right = Matrix::zeros(m.rows(), m.cols() - at);
    for r in 0..m.rows() {
        let src = m.row(r);
        left.row_mut(r).copy_from_slice(&src[..at]);
        right.row_mut(r).copy_from_slice(&src[at..]);
    }
    (left, right)
}

/// Per-row L2 norms.
pub fn row_norms(m: &Matrix) -> Vec<f32> {
    (0..m.rows())
        .map(|r| m.row(r).iter().map(|&x| x * x).sum::<f32>().sqrt())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small_known() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.5 - 2.0);
        let b = Matrix::from_fn(4, 2, |r, c| (r + c) as f32 * 1.5 + 1.0);
        let atb = matmul_at_b(&a, &b).unwrap();
        let expect = matmul(&a.transpose(), &b).unwrap();
        assert_eq!(atb, expect);

        let c = Matrix::from_fn(5, 3, |r, c| (r * 2 + c) as f32 - 3.0);
        let abt = matmul_a_bt(&a, &c).unwrap();
        let expect = matmul(&a, &c.transpose()).unwrap();
        assert_eq!(abt, expect);
    }

    /// The dot-product form `matmul_a_bt` had before it became AXPYs over
    /// `B^T`; kept only as the bit-exact reference for the kernel.
    fn matmul_a_bt_dot_reference(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.rows(), |i, j| {
            let mut acc = 0.0;
            for (&x, &y) in a.row(i).iter().zip(b.row(j)) {
                acc += x * y;
            }
            acc
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matmul_a_bt_is_bit_identical_to_the_dot_product_loop() {
        let mut rng = crate::Rng::new(0x5eed);
        for case in 0..200 {
            // Widths past a few SIMD lanes, so vector bodies and tails both run.
            let m = 1 + rng.below(9);
            let k = rng.below(40);
            let n = 1 + rng.below(40);
            // Mixed magnitudes so the summation order shows in the low bits.
            let mut a = Matrix::from_fn(m, k, |_, _| {
                rng.normal() * 10f32.powi(rng.below(7) as i32 - 3)
            });
            let b = Matrix::from_fn(n, k, |_, _| match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.normal() * 10f32.powi(rng.below(7) as i32 - 3),
            });
            // ReLU-masked gradients: whole zero rows and scattered ±0.0.
            for i in 0..m {
                let zero_row = rng.bernoulli(0.3);
                for x in a.row_mut(i) {
                    if zero_row || rng.bernoulli(0.2) {
                        *x = if rng.bernoulli(0.5) { 0.0 } else { -0.0 };
                    }
                }
            }
            let got = matmul_a_bt(&a, &b).unwrap();
            let want = matmul_a_bt_dot_reference(&a, &b);
            assert_eq!(
                bits(&got),
                bits(&want),
                "case {case}: {m}x{k} * ({n}x{k})^T"
            );
        }
    }

    #[test]
    fn matmul_a_bt_propagates_nan_and_inf_through_zero_entries() {
        // A zero in `A` must still multiply a non-finite `B` entry: 0 * inf
        // and 0 * NaN are NaN, as in the dot product.
        let a = m(2, 2, &[0.0, 1.0, -0.0, 0.0]);
        let b = m(
            3,
            2,
            &[f32::INFINITY, 2.0, f32::NAN, 1.0, 3.0, f32::NEG_INFINITY],
        );
        let got = matmul_a_bt(&a, &b).unwrap();
        assert_eq!(bits(&got), bits(&matmul_a_bt_dot_reference(&a, &b)));
        assert!(got.as_slice().iter().all(|x| x.is_nan() || x.is_infinite()));
    }

    #[test]
    fn add_sub_axpy_roundtrip() {
        let mut a = m(1, 3, &[1.0, 2.0, 3.0]);
        let b = m(1, 3, &[10.0, 20.0, 30.0]);
        add_assign(&mut a, &b).unwrap();
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0]);
        sub_assign(&mut a, &b).unwrap();
        assert_eq!(a.as_slice(), &[1.0, 2.0, 3.0]);
        axpy(&mut a, 0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[6.0, 12.0, 18.0]);
    }

    #[test]
    fn hadamard_multiplies_entrywise() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(
            hadamard(&a, &b).unwrap().as_slice(),
            &[5.0, 12.0, 21.0, 32.0]
        );
    }

    #[test]
    fn bias_add_and_column_sums() {
        let mut a = Matrix::zeros(3, 2);
        add_bias(&mut a, &[1.0, -1.0]);
        assert_eq!(a.row(2), &[1.0, -1.0]);
        let sums = column_sums(&a);
        assert_eq!(sums, vec![3.0, -3.0]);
    }

    #[test]
    fn hconcat_hsplit_inverse() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(3, 4, |r, c| (r * c) as f32);
        let cat = hconcat(&a, &b).unwrap();
        assert_eq!(cat.shape(), (3, 6));
        let (l, r) = hsplit(&cat, 2);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    fn row_norms_match_manual() {
        let a = m(2, 2, &[3.0, 4.0, 0.0, 2.0]);
        let n = row_norms(&a);
        assert!((n[0] - 5.0).abs() < 1e-6);
        assert!((n[1] - 2.0).abs() < 1e-6);
    }
}
