//! ClusterGCN (Chiang et al., KDD'19).
//!
//! The graph is partitioned once; each training step merges `q` random
//! partitions, takes the *induced* subgraph (cross-partition edges are
//! dropped — the approximation responsible for its accuracy loss on large
//! sparse-label graphs, Table 3) and runs full-graph-style training on it:
//! every node of the subgraph is present at every layer.

use crate::baselines::sampling::full_subgraph_minibatch;
use crate::checkpoint::{Checkpoint, CheckpointError, TrainerState};
use crate::obs::Obs;
use crate::pipeline::{BatchOutput, Engine, EpochStats, EvalHarness, PipelineCtx, StallPolicy};
use crate::trainer::layer_dims;
use fgnn_graph::partition::{induced_subgraph, partition_ldg};
use fgnn_graph::{Dataset, NodeId};
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

/// ClusterGCN trainer.
pub struct ClusterGcnTrainer {
    /// The GNN under training.
    pub model: Model,
    clusters: Vec<Vec<NodeId>>,
    /// Clusters merged per batch (the paper's `q`).
    pub clusters_per_batch: usize,
    /// Traffic ledger.
    pub counters: TrafficCounters,
    /// Cumulative per-stage attribution of `counters` (not checkpointed).
    pub timings: StageTimings,
    /// Observability state: sim-clock spans plus metrics, fed by the
    /// pipeline engine (not checkpointed).
    pub obs: Obs,
    machine: Machine,
    dims: Vec<usize>,
    train_set: HashSet<NodeId>,
    epoch: u32,
    rng: Rng,
    faults: FaultState,
}

impl ClusterGcnTrainer {
    /// Partition `ds` into `num_parts` and build the trainer.
    // The parameter list mirrors the baseline's natural knobs; a builder
    // would add noise for a single call site.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ds: &Dataset,
        arch: Arch,
        hidden: usize,
        num_layers: usize,
        num_parts: usize,
        clusters_per_batch: usize,
        machine: Machine,
        seed: u64,
    ) -> Self {
        let mut rng = Rng::new(seed);
        let dims = layer_dims(ds.spec.feature_dim, hidden, num_layers, ds.spec.num_classes);
        let model = Model::new(arch, &dims, &mut rng);
        let parts = partition_ldg(&ds.graph, num_parts, &mut rng);
        let clusters = parts
            .clusters()
            .into_iter()
            .filter(|c| !c.is_empty())
            .collect();
        ClusterGcnTrainer {
            model,
            clusters,
            clusters_per_batch: clusters_per_batch.max(1),
            counters: TrafficCounters::new(),
            timings: StageTimings::new(),
            obs: Obs::new(),
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

    /// Capture the full trainable state. ClusterGCN keeps no history or
    /// cache, so a checkpoint is lossless.
    pub fn checkpoint(&mut self, opt: &dyn Optimizer) -> Checkpoint {
        self.state().checkpoint(opt)
    }

    /// Restore from a checkpoint. Returns `Ok(false)`: nothing degrades —
    /// the trainer has no cross-epoch caches.
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

    /// Train one epoch through the pipeline engine: shuffle clusters, merge
    /// groups of `q`, train each. The induced-subgraph construction is
    /// ClusterGCN's `Sample` stage; it has no `Prune`/`CacheUpdate`.
    pub fn train_epoch(&mut self, ds: &Dataset, opt: &mut dyn Optimizer) -> EpochStats {
        let mut order: Vec<usize> = (0..self.clusters.len()).collect();
        let mut shuffle_rng = self.rng.fork();
        shuffle_rng.shuffle(&mut order);
        let groups: Vec<Vec<NodeId>> = order
            .chunks(self.clusters_per_batch)
            .map(|group| {
                let mut nodes: Vec<NodeId> = group
                    .iter()
                    .flat_map(|&ci| self.clusters[ci].iter().copied())
                    .collect();
                nodes.sort_unstable();
                nodes
            })
            .collect();

        let topo = self.machine.topology.clone();
        let mut stages = ClusterGcnStages {
            model: &mut self.model,
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
            groups.into_iter().map(Ok::<_, std::convert::Infallible>),
            |ctx, counters, nodes| stages.train_subgraph(ctx, counters, &nodes, opt),
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

/// Disjoint borrows of [`ClusterGcnTrainer`] fields for the per-group step.
struct ClusterGcnStages<'s, 'd> {
    model: &'s mut Model,
    dims: &'s [usize],
    train_set: &'s HashSet<NodeId>,
    machine: &'s Machine,
    ds: &'d Dataset,
}

impl<'t> ClusterGcnStages<'_, '_> {
    fn train_subgraph(
        &mut self,
        ctx: &mut PipelineCtx<'t>,
        counters: &mut TrafficCounters,
        nodes: &[NodeId],
        opt: &mut dyn Optimizer,
    ) -> Option<BatchOutput> {
        let ds = self.ds;
        let train_local: Vec<usize> = nodes
            .iter()
            .enumerate()
            .filter(|(_, g)| self.train_set.contains(g))
            .map(|(i, _)| i)
            .collect();
        if train_local.is_empty() {
            return None;
        }

        let mb = ctx.stage(StageKind::Sample, counters, |_engine, _c| {
            let (sub, map) = induced_subgraph(&ds.graph, nodes);
            full_subgraph_minibatch(&sub, &map, self.dims.len() - 1)
        });

        // Load the subgraph's features (every node, every epoch — the
        // ClusterGCN traffic profile).
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

        let trace = ctx.stage(StageKind::Forward, counters, |_engine, _c| {
            self.model.forward(&mb, h0)
        });

        let loss = ctx.stage(StageKind::Backward, counters, |_engine, _c| {
            let logits = trace.h.last().unwrap();
            let sel_logits = logits.gather_rows(&train_local);
            let labels: Vec<u16> = train_local
                .iter()
                .map(|&i| ds.labels[nodes[i] as usize])
                .collect();
            let (loss, d_sel) = softmax_cross_entropy(&sel_logits, &labels);
            let mut d_top = Matrix::zeros(nodes.len(), self.dims[self.dims.len() - 1]);
            d_top.scatter_add_rows(&train_local, &d_sel);

            self.model.zero_grad();
            self.model.backward(&mb, &trace, d_top);
            loss
        });

        ctx.stage(StageKind::OptimStep, counters, |_engine, _c| {
            let mut params = self.model.params_mut();
            opt.step(&mut params);
        });

        let edges = mb.total_edges();
        let flops = 3.0
            * (fgnn_memsim::presets::aggregation_flops(edges, self.dims[0])
                + (0..self.dims.len() - 1)
                    .map(|l| {
                        fgnn_memsim::presets::dense_flops(
                            nodes.len(),
                            if self.model.arch == Arch::Sage {
                                2 * self.dims[l]
                            } else {
                                self.dims[l]
                            },
                            self.dims[l + 1],
                        )
                    })
                    .sum::<f64>());
        ctx.stage(StageKind::Backward, counters, |_engine, c| {
            c.compute_seconds += self.machine.gpu.compute_seconds(flops);
        });
        Some(BatchOutput::loss_only(loss))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_graph::datasets::arxiv_spec;
    use fgnn_nn::Adam;

    fn tiny() -> Dataset {
        Dataset::materialize(arxiv_spec(0.0).with_dim(12), 9)
    }

    #[test]
    fn cluster_gcn_trains() {
        let ds = tiny();
        let mut t = ClusterGcnTrainer::new(&ds, Arch::Gcn, 16, 2, 8, 2, Machine::single_a100(), 1);
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
    fn subgraph_minibatch_is_valid_and_square() {
        let ds = tiny();
        let nodes: Vec<NodeId> = (0..20).collect();
        let (sub, map) = induced_subgraph(&ds.graph, &nodes);
        let mb = full_subgraph_minibatch(&sub, &map, 3);
        mb.validate().unwrap();
        assert_eq!(mb.blocks.len(), 3);
        assert_eq!(mb.blocks[0].num_dst(), mb.blocks[0].num_src());
    }

    #[test]
    fn accuracy_above_random_after_training() {
        let ds = tiny();
        let mut t = ClusterGcnTrainer::new(&ds, Arch::Gcn, 16, 2, 6, 2, Machine::single_a100(), 2);
        let mut opt = Adam::new(0.01);
        for _ in 0..15 {
            t.train_epoch(&ds, &mut opt);
        }
        let acc = t.evaluate(&ds, &ds.test_nodes, &[4, 4]);
        assert!(acc > 0.08, "accuracy {acc}");
    }
}
