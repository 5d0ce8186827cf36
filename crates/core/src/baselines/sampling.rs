//! The "broader sampling methods" of §2.3: layer-wise (FastGCN-family)
//! and graph-wise (GraphSAINT-family) training.
//!
//! Both bound the per-batch footprint without a cache, at the cost of
//! biased/sparser aggregations — the accuracy-vs-footprint tradeoff the
//! paper contrasts FreshGNN against (see `exp_ext_sampling_families`).

use crate::checkpoint::{Checkpoint, CheckpointError, TrainerState};
use crate::obs::Obs;
use crate::pipeline::{BatchOutput, Engine, EpochStats, EvalHarness, PipelineCtx, StallPolicy};
use crate::trainer::layer_dims;
use fgnn_graph::block::{Block, MiniBatch};
use fgnn_graph::partition::induced_subgraph;
use fgnn_graph::sample::{layer_wise_sample, random_walk_nodes, split_batches};
use fgnn_graph::{Csr, Csr2, Dataset, NodeId};
use fgnn_memsim::fault::{FaultPlan, FaultState, RetryPolicy};
use fgnn_memsim::presets::Machine;
use fgnn_memsim::stage::{StageKind, StageTimings};
use fgnn_memsim::topology::Node;
use fgnn_memsim::TrafficCounters;
use fgnn_nn::loss::softmax_cross_entropy;
use fgnn_nn::model::{Arch, Model};
use fgnn_nn::Optimizer;
use fgnn_tensor::{Matrix, Rng};
use std::collections::HashSet;

/// Which sampling family to train with.
#[derive(Clone, Debug)]
pub enum SamplingKind {
    /// Layer-wise: a fixed node budget per layer (FastGCN-style).
    LayerWise {
        /// Sampled sources per layer (input→output order).
        layer_sizes: Vec<usize>,
    },
    /// Graph-wise: random-walk subgraphs trained full-graph style
    /// (GraphSAINT-style).
    GraphWise {
        /// Walk roots per batch.
        roots: usize,
        /// Steps per walk.
        walk_length: usize,
    },
}

/// Trainer for the §2.3 sampling families.
pub struct SamplingBaselineTrainer {
    /// The GNN under training.
    pub model: Model,
    /// Sampling family and its parameters.
    pub kind: SamplingKind,
    /// Traffic ledger.
    pub counters: TrafficCounters,
    /// Cumulative per-stage attribution of `counters` (not checkpointed).
    pub timings: StageTimings,
    /// Observability state: sim-clock spans plus metrics, fed by the
    /// pipeline engine (not checkpointed).
    pub obs: Obs,
    batch_size: usize,
    machine: Machine,
    dims: Vec<usize>,
    train_set: HashSet<NodeId>,
    epoch: u32,
    rng: Rng,
    faults: FaultState,
}

impl SamplingBaselineTrainer {
    /// Build a trainer; model depth follows `num_layers`.
    // Mirrors the baseline's natural knobs, as in `ClusterGcnTrainer::new`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ds: &Dataset,
        arch: Arch,
        hidden: usize,
        num_layers: usize,
        batch_size: usize,
        kind: SamplingKind,
        machine: Machine,
        seed: u64,
    ) -> Self {
        let mut rng = Rng::new(seed);
        let dims = layer_dims(ds.spec.feature_dim, hidden, num_layers, ds.spec.num_classes);
        if let SamplingKind::LayerWise { layer_sizes } = &kind {
            assert_eq!(layer_sizes.len(), num_layers, "one budget per layer");
        }
        SamplingBaselineTrainer {
            model: Model::new(arch, &dims, &mut rng),
            kind,
            counters: TrafficCounters::new(),
            timings: StageTimings::new(),
            obs: Obs::new(),
            batch_size,
            machine,
            dims,
            train_set: ds.train_nodes.iter().copied().collect(),
            epoch: 0,
            rng,
            faults: FaultState::none(),
        }
    }

    /// Inject interconnect faults (same contract as
    /// [`crate::Trainer::inject_faults`]).
    pub fn inject_faults(&mut self, plan: FaultPlan, policy: RetryPolicy) {
        self.faults.inject(plan, policy);
    }

    /// Completed epochs so far.
    pub fn epochs(&self) -> u32 {
        self.epoch
    }

    /// Capture the full trainable state (lossless: no cross-epoch caches).
    pub fn checkpoint(&mut self, opt: &dyn Optimizer) -> Checkpoint {
        self.state().checkpoint(opt)
    }

    /// Restore from a checkpoint. Returns `Ok(false)`: nothing degrades.
    pub fn restore(
        &mut self,
        ckpt: &Checkpoint,
        opt: &mut dyn Optimizer,
    ) -> Result<bool, CheckpointError> {
        self.state().restore(ckpt, opt)
    }

    /// The checkpointed part of the trainer, split-borrowed.
    fn state(&mut self) -> TrainerState<'_> {
        TrainerState {
            arch: self.model.arch,
            dims: &self.dims,
            params: self.model.params_mut(),
            rng: &mut self.rng,
            epoch: &mut self.epoch,
            iter: None,
            counters: &mut self.counters,
            static_cache: None,
            cache: None,
        }
    }

    /// Train one epoch through the pipeline engine. Layer-wise iterates
    /// train-node batches; graph-wise draws one random-walk subgraph per
    /// batch slot. Both run `Sample → Load → Forward → Backward →
    /// OptimStep`; neither has a `Prune` or `CacheUpdate` stage.
    pub fn train_epoch(&mut self, ds: &Dataset, opt: &mut dyn Optimizer) -> EpochStats {
        let topo = self.machine.topology.clone();
        let mut shuffle_rng = self.rng.fork();
        let batches = split_batches(&ds.train_nodes, self.batch_size, Some(&mut shuffle_rng));

        let mut stages = SamplingStages {
            model: &mut self.model,
            kind: &self.kind,
            rng: &mut self.rng,
            dims: &self.dims,
            train_set: &self.train_set,
            machine: &self.machine,
            ds,
        };
        let result = Engine::run_epoch(
            &topo,
            &mut self.faults,
            &mut self.counters,
            &mut self.obs,
            StallPolicy::Free,
            batches.iter().map(Ok::<_, std::convert::Infallible>),
            |ctx, counters, seeds| stages.train_batch(ctx, counters, seeds, opt),
        );
        let stats = result.unwrap();
        self.epoch += 1;
        self.timings.merge(&stats.timings);
        stats
    }

    /// Shared accuracy protocol (plain neighbor sampling).
    pub fn evaluate(&mut self, ds: &Dataset, nodes: &[NodeId], fanouts: &[usize]) -> f64 {
        let mut rng = self.rng.fork();
        EvalHarness::accuracy(&self.model, ds, nodes, fanouts, 256, &mut rng)
    }
}

/// Disjoint borrows of [`SamplingBaselineTrainer`] fields for the per-batch
/// step.
struct SamplingStages<'s, 'd> {
    model: &'s mut Model,
    kind: &'s SamplingKind,
    rng: &'s mut Rng,
    dims: &'s [usize],
    train_set: &'s HashSet<NodeId>,
    machine: &'s Machine,
    ds: &'d Dataset,
}

impl<'t> SamplingStages<'_, '_> {
    fn train_batch(
        &mut self,
        ctx: &mut PipelineCtx<'t>,
        counters: &mut TrafficCounters,
        seeds: &[NodeId],
        opt: &mut dyn Optimizer,
    ) -> Option<BatchOutput> {
        match self.kind {
            SamplingKind::LayerWise { layer_sizes } => {
                let sizes = layer_sizes.clone();
                self.train_layer_wise(ctx, counters, seeds, &sizes, opt)
            }
            SamplingKind::GraphWise { roots, walk_length } => {
                let (r, w) = (*roots, *walk_length);
                self.train_graph_wise(ctx, counters, r, w, opt)
            }
        }
    }

    fn train_layer_wise(
        &mut self,
        ctx: &mut PipelineCtx<'t>,
        counters: &mut TrafficCounters,
        seeds: &[NodeId],
        layer_sizes: &[usize],
        opt: &mut dyn Optimizer,
    ) -> Option<BatchOutput> {
        let ds = self.ds;
        let mb = ctx.stage(StageKind::Sample, counters, |_engine, _c| {
            let mut rng = self.rng.fork();
            layer_wise_sample(&ds.graph, seeds, layer_sizes, &mut rng)
        });
        let h0 = ctx.stage(StageKind::Load, counters, |engine, c| {
            let ids: Vec<usize> = mb.input_nodes().iter().map(|&g| g as usize).collect();
            let h0 = ds.features.gather_rows(&ids);
            engine.one_sided_read(
                Node::Host,
                Node::Gpu(0),
                (ids.len() * ds.spec.feature_row_bytes()) as u64,
                c,
            );
            h0
        });
        let labels: Vec<u16> = seeds.iter().map(|&s| ds.labels[s as usize]).collect();
        let loss = self.step(ctx, counters, &mb, h0, &labels, None, opt);
        Some(BatchOutput::loss_only(loss))
    }

    fn train_graph_wise(
        &mut self,
        ctx: &mut PipelineCtx<'t>,
        counters: &mut TrafficCounters,
        roots: usize,
        walk_length: usize,
        opt: &mut dyn Optimizer,
    ) -> Option<BatchOutput> {
        let ds = self.ds;
        let sampled = ctx.stage(StageKind::Sample, counters, |_engine, _c| {
            let mut rng = self.rng.fork();
            let root_nodes: Vec<NodeId> = (0..roots)
                .map(|_| ds.train_nodes[rng.below(ds.train_nodes.len())])
                .collect();
            let nodes = random_walk_nodes(&ds.graph, &root_nodes, walk_length, &mut rng);
            let train_local: Vec<usize> = nodes
                .iter()
                .enumerate()
                .filter(|(_, g)| self.train_set.contains(g))
                .map(|(i, _)| i)
                .collect();
            if train_local.is_empty() {
                return None;
            }
            let (sub, map) = induced_subgraph(&ds.graph, &nodes);
            let mb = full_subgraph_minibatch(&sub, &map, self.dims.len() - 1);
            Some((nodes, train_local, mb))
        });
        let (nodes, train_local, mb) = sampled?;
        let h0 = ctx.stage(StageKind::Load, counters, |engine, c| {
            let ids: Vec<usize> = nodes.iter().map(|&g| g as usize).collect();
            let h0 = ds.features.gather_rows(&ids);
            engine.one_sided_read(
                Node::Host,
                Node::Gpu(0),
                (nodes.len() * ds.spec.feature_row_bytes()) as u64,
                c,
            );
            h0
        });
        let labels: Vec<u16> = train_local
            .iter()
            .map(|&i| ds.labels[nodes[i] as usize])
            .collect();
        let loss = self.step(ctx, counters, &mb, h0, &labels, Some(&train_local), opt);
        Some(BatchOutput::loss_only(loss))
    }

    /// Shared forward/backward/step. `loss_rows` restricts the loss to a
    /// subset of output rows (graph-wise); `None` = all rows are seeds.
    // Stage plumbing (ctx + counters) pushes this over clippy's arg limit;
    // bundling the rest into a struct would add noise for two call sites.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        ctx: &mut PipelineCtx<'t>,
        counters: &mut TrafficCounters,
        mb: &MiniBatch,
        h0: Matrix,
        labels: &[u16],
        loss_rows: Option<&[usize]>,
        opt: &mut dyn Optimizer,
    ) -> f32 {
        let trace = ctx.stage(StageKind::Forward, counters, |_engine, _c| {
            self.model.forward(mb, h0)
        });
        let loss = ctx.stage(StageKind::Backward, counters, |_engine, _c| {
            let logits = trace.h.last().unwrap();
            let (loss, d_top) = match loss_rows {
                None => softmax_cross_entropy(logits, labels),
                Some(rows) => {
                    let sel = logits.gather_rows(rows);
                    let (loss, d_sel) = softmax_cross_entropy(&sel, labels);
                    let mut d = Matrix::zeros(logits.rows(), logits.cols());
                    d.scatter_add_rows(rows, &d_sel);
                    (loss, d)
                }
            };
            self.model.zero_grad();
            self.model.backward(mb, &trace, d_top);
            loss
        });
        ctx.stage(StageKind::OptimStep, counters, |_engine, _c| {
            let mut params = self.model.params_mut();
            opt.step(&mut params);
        });

        let flops = 3.0
            * (0..self.dims.len() - 1)
                .map(|l| {
                    fgnn_memsim::presets::dense_flops(
                        mb.blocks[l].num_dst(),
                        self.dims[l],
                        self.dims[l + 1],
                    ) + fgnn_memsim::presets::aggregation_flops(
                        mb.blocks[l].num_edges(),
                        self.dims[l],
                    )
                })
                .sum::<f64>();
        ctx.stage(StageKind::Backward, counters, |_engine, c| {
            c.compute_seconds += self.machine.gpu.compute_seconds(flops);
        });
        loss
    }
}

/// An L-layer mini-batch covering the whole subgraph at every layer
/// (shared by ClusterGCN and GraphSAINT-style training).
pub fn full_subgraph_minibatch(sub: &Csr, map: &[NodeId], num_layers: usize) -> MiniBatch {
    let n = sub.num_nodes();
    let lists: Vec<Vec<NodeId>> = (0..n as NodeId)
        .map(|v| sub.neighbors(v).to_vec())
        .collect();
    let block = Block {
        dst_global: map.to_vec(),
        src_global: map.to_vec(),
        adj: Csr2::from_neighbor_lists(&lists),
    };
    MiniBatch {
        blocks: vec![block; num_layers],
        seeds: map.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_graph::datasets::arxiv_spec;
    use fgnn_nn::Adam;

    fn tiny() -> Dataset {
        Dataset::materialize(arxiv_spec(0.0).with_dim(12), 13)
    }

    #[test]
    fn layer_wise_trains_and_bounds_traffic() {
        let ds = tiny();
        let mut t = SamplingBaselineTrainer::new(
            &ds,
            Arch::Gcn,
            16,
            2,
            64,
            SamplingKind::LayerWise {
                layer_sizes: vec![64, 64],
            },
            Machine::single_a100(),
            1,
        );
        let mut opt = Adam::new(0.01);
        let first = t.train_epoch(&ds, &mut opt).mean_loss;
        let mut last = first;
        for _ in 0..8 {
            last = t.train_epoch(&ds, &mut opt).mean_loss;
        }
        assert!(last < first, "loss {first} -> {last}");
        // Footprint bound: per batch at most seeds + Σ layer budgets rows.
        let batches = ds.train_nodes.len().div_ceil(64);
        let max_rows = (64 + 64 + 64) * batches * 9;
        assert!(
            t.counters.host_to_gpu_bytes <= (max_rows * ds.spec.feature_row_bytes()) as u64,
            "traffic {} exceeds layer-wise bound",
            t.counters.host_to_gpu_bytes
        );
    }

    #[test]
    fn graph_wise_trains() {
        let ds = tiny();
        let mut t = SamplingBaselineTrainer::new(
            &ds,
            Arch::Sage,
            16,
            2,
            64,
            SamplingKind::GraphWise {
                roots: 16,
                walk_length: 4,
            },
            Machine::single_a100(),
            2,
        );
        let mut opt = Adam::new(0.01);
        let first = t.train_epoch(&ds, &mut opt).mean_loss;
        let mut last = first;
        for _ in 0..8 {
            last = t.train_epoch(&ds, &mut opt).mean_loss;
        }
        assert!(last < first, "loss {first} -> {last}");
        assert!(t.counters.host_to_gpu_bytes > 0);
    }

    #[test]
    fn both_families_reach_above_random_accuracy() {
        let ds = tiny();
        for kind in [
            SamplingKind::LayerWise {
                layer_sizes: vec![96, 96],
            },
            SamplingKind::GraphWise {
                roots: 24,
                walk_length: 4,
            },
        ] {
            // Fresh optimizer per family (Adam state is per-model).
            let mut opt = Adam::new(0.01);
            let mut t = SamplingBaselineTrainer::new(
                &ds,
                Arch::Gcn,
                16,
                2,
                64,
                kind.clone(),
                Machine::single_a100(),
                3,
            );
            for _ in 0..20 {
                t.train_epoch(&ds, &mut opt);
            }
            // Layer-wise aggregation is genuinely weak (the paper's point);
            // require clearly-above-random (1/64 ≈ 1.6%), not parity.
            let acc = t.evaluate(&ds, &ds.test_nodes, &[4, 4]);
            assert!(acc > 0.04, "{kind:?}: accuracy {acc}");
        }
    }
}
