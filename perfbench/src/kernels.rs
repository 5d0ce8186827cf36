//! Tensor-kernel replay on the shapes of a traced mini-batch.
//!
//! Each kernel a layer runs is timed alone on seeded random operands of
//! the exact shapes (and, for aggregation, the exact pruned block) the
//! traced step used. Times are summed over the model's layers, so each
//! `tensor.*.ms` is that kernel's time per step.

use crate::catalog::Values;
use crate::stats::median;
use fgnn_graph::block::MiniBatch;
use fgnn_nn::layer::{
    mean_agg_neighbors, mean_agg_neighbors_backward, mean_agg_with_self,
    mean_agg_with_self_backward,
};
use fgnn_nn::model::Arch;
use fgnn_tensor::{ops, Matrix, Rng};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per kernel and layer; the median is kept.
const REPS: usize = 5;

fn time_ms(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

#[derive(Default)]
struct Tally {
    ms: f64,
    work: f64,
}

impl Tally {
    fn add(&mut self, ms: f64, work: f64) {
        self.ms += ms;
        self.work += work;
    }

    /// Work per second in units of 1e9 (GFLOP/s or GB/s).
    fn rate(&self) -> f64 {
        if self.ms > 0.0 {
            self.work / (self.ms * 1e-3) / 1e9
        } else {
            0.0
        }
    }
}

/// Replay the kernels of `mb` for a `dims`-shaped `arch` model into `out`.
pub fn replay(mb: &MiniBatch, dims: &[usize], arch: Arch, out: &mut Values) {
    let mut rng = Rng::new(0x7E45_0E0E);
    let mut tallies: Vec<Tally> = KEYS.iter().map(|_| Tally::default()).collect();
    for (l, block) in mb.blocks.iter().enumerate() {
        let (n_dst, n_src, edges) = (block.num_dst(), block.num_src(), block.num_edges());
        let (d_in, d_out) = (dims[l], dims[l + 1]);
        // SAGE transforms `[self | mean]`, GCN the aggregate alone.
        let k = if arch == Arch::Sage { 2 * d_in } else { d_in };
        let h_src = rng.normal_matrix(n_src, d_in, 1.0);
        let x = rng.normal_matrix(n_dst, k, 1.0);
        let w = rng.normal_matrix(k, d_out, 1.0);
        let dz = rng.normal_matrix(n_dst, d_out, 1.0);
        let d_agg = rng.normal_matrix(n_dst, d_in, 1.0);
        let mm_flops = 2.0 * (n_dst * k * d_out) as f64;
        // Bytes read and written by one aggregation pass.
        let agg_bytes = 4.0 * ((edges + 2 * n_dst) * d_in) as f64;

        let ms = time_ms(|| {
            black_box(ops::matmul(black_box(&x), black_box(&w)).expect("shapes"));
        });
        tallies[0].add(ms, mm_flops);
        let ms = time_ms(|| {
            black_box(ops::matmul_at_b(black_box(&x), black_box(&dz)).expect("shapes"));
        });
        tallies[1].add(ms, mm_flops);
        let ms = time_ms(|| {
            black_box(ops::matmul_a_bt(black_box(&dz), black_box(&w)).expect("shapes"));
        });
        tallies[2].add(ms, mm_flops);
        let ms = time_ms(|| {
            black_box(if arch == Arch::Sage {
                mean_agg_neighbors(block, black_box(&h_src))
            } else {
                mean_agg_with_self(block, black_box(&h_src))
            });
        });
        tallies[3].add(ms, agg_bytes);
        let ms = time_ms(|| {
            let mut d_src = Matrix::zeros(n_src, d_in);
            if arch == Arch::Sage {
                mean_agg_neighbors_backward(block, black_box(&d_agg), &mut d_src);
            } else {
                mean_agg_with_self_backward(block, black_box(&d_agg), &mut d_src);
            }
            black_box(d_src);
        });
        tallies[4].add(ms, agg_bytes);
        let rows: Vec<usize> = (0..n_dst).collect();
        let ms = time_ms(|| {
            black_box(black_box(&h_src).gather_rows(&rows));
        });
        tallies[5].add(ms, 8.0 * (n_dst * d_in) as f64);
    }
    for (&(ms_key, rate_key), t) in KEYS.iter().zip(&tallies) {
        out.insert(ms_key, t.ms);
        out.insert(rate_key, t.rate());
    }
}

/// Metric keys in the order the replay tallies them.
const KEYS: [(&str, &str); 6] = [
    ("tensor.matmul.ms", "tensor.matmul.gflops"),
    ("tensor.matmul_at_b.ms", "tensor.matmul_at_b.gflops"),
    ("tensor.matmul_a_bt.ms", "tensor.matmul_a_bt.gflops"),
    ("tensor.mean_agg.ms", "tensor.mean_agg.gbps"),
    ("tensor.mean_agg_bwd.ms", "tensor.mean_agg_bwd.gbps"),
    ("tensor.gather_rows.ms", "tensor.gather_rows.gbps"),
];
