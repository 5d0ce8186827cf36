//! Activation functions and their derivatives.
//!
//! Each activation comes as a forward map plus a `*_backward` that consumes
//! the *forward output* (or input where required) and the upstream gradient,
//! matching the explicit-backward layer style used in `fgnn-nn`.

use crate::Matrix;

/// ReLU forward: `max(0, x)` elementwise, in place.
pub fn relu_inplace(m: &mut Matrix) {
    m.map_inplace(|x| if x > 0.0 { x } else { 0.0 });
}

/// ReLU backward: zero the upstream gradient wherever the forward *output*
/// was zero. `grad` is modified in place.
pub fn relu_backward_inplace(grad: &mut Matrix, fwd_out: &Matrix) {
    debug_assert_eq!(grad.shape(), fwd_out.shape());
    for (g, &y) in grad.as_mut_slice().iter_mut().zip(fwd_out.as_slice()) {
        if y <= 0.0 {
            *g = 0.0;
        }
    }
}

/// LeakyReLU derivative evaluated at the forward *input*.
pub fn leaky_relu_grad(x: f32, alpha: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_zeroes_negatives() {
        let mut m = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]);
        relu_inplace(&mut m);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let fwd = Matrix::from_vec(1, 3, vec![0.0, 1.0, 0.0]);
        let mut g = Matrix::from_vec(1, 3, vec![5.0, 5.0, 5.0]);
        relu_backward_inplace(&mut g, &fwd);
        assert_eq!(g.as_slice(), &[0.0, 5.0, 0.0]);
    }

    #[test]
    fn leaky_relu_grad_scales_negatives() {
        assert_eq!(leaky_relu_grad(-1.0, 0.1), 0.1);
        assert_eq!(leaky_relu_grad(1.0, 0.1), 1.0);
    }
}
