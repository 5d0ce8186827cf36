//! GNNAutoScale (GAS) and the GraphFM feature-momentum variant.
//!
//! GAS trains on graph-partition batches. For a cluster `C`, every layer
//! aggregates over the *full* in-edges of `C`; representations of
//! out-of-cluster (boundary) neighbors come from a **full-size history**
//! `h̄^{(l)} ∈ R^{n×d}` per layer — `O(Lnd)` storage, the limitation
//! FreshGNN's bounded cache removes. After computing layer `l` for the
//! cluster, the fresh rows are *pushed* into the history; boundary rows
//! are *pulled* from it (both transfers are charged to the interconnect,
//! since the paper keeps histories off-GPU for large graphs).
//!
//! There is no admission control and no staleness bound: this is exactly
//! the `p_grad = 1, t_stale = ∞` corner of FreshGNN's design space
//! (§4.1), and its estimation error grows unchecked (Fig 1).
//!
//! With `momentum = Some(β)` the history update becomes
//! `h̄ ← (1−β)·h̄ + β·h_fresh` — the feature-momentum idea of **GraphFM**.
//! (GraphFM-OB also corrects boundary estimates in-batch; we reproduce the
//! momentum mechanism, which drives its accuracy behaviour at scale.)

use crate::checkpoint::{Checkpoint, CheckpointError, TrainerState};
use crate::obs::Obs;
use crate::pipeline::{BatchOutput, Engine, EpochStats, EvalHarness, PipelineCtx, StallPolicy};
use crate::trainer::layer_dims;
use fgnn_graph::partition::{partition_ldg, Partitioning};
use fgnn_graph::{Block, Csr2, Dataset, NodeId};
use fgnn_memsim::fault::{FaultPlan, FaultState, RetryPolicy};
use fgnn_memsim::presets::Machine;
use fgnn_memsim::stage::{StageKind, StageTimings};
use fgnn_memsim::topology::Node;
use fgnn_memsim::TrafficCounters;
use fgnn_nn::loss::softmax_cross_entropy;
use fgnn_nn::model::{Arch, Model};
use fgnn_nn::Optimizer;
use fgnn_tensor::{Matrix, Rng};

/// GAS / GraphFM configuration.
#[derive(Clone, Debug)]
pub struct GasConfig {
    /// Number of graph partitions (METIS in the paper; LDG here).
    pub num_parts: usize,
    /// Cap on in-neighbors per node (memory guard; GAS uses full
    /// neighborhoods — the default `usize::MAX` keeps that).
    pub max_neighbors: usize,
    /// `Some(β)` switches to GraphFM-style momentum history updates.
    pub momentum: Option<f32>,
}

impl Default for GasConfig {
    fn default() -> Self {
        GasConfig {
            num_parts: 16,
            max_neighbors: usize::MAX,
            momentum: None,
        }
    }
}

/// GAS trainer state.
pub struct GasTrainer {
    /// The GNN under training.
    pub model: Model,
    /// Full-size per-level histories (`levels 1..L`), the `O(Lnd)` store.
    history: Vec<Matrix>,
    clusters: Vec<Vec<NodeId>>,
    /// Per-cluster precomputed blocks (dst = cluster, src = cluster ∪
    /// boundary, full in-edges).
    blocks: Vec<Block>,
    cfg: GasConfig,
    /// Traffic ledger (history pulls/pushes + feature loads).
    pub counters: TrafficCounters,
    /// Cumulative per-stage attribution of `counters` (not checkpointed).
    pub timings: StageTimings,
    /// Observability state: sim-clock spans plus metrics, fed by the
    /// pipeline engine (not checkpointed).
    pub obs: Obs,
    machine: Machine,
    dims: Vec<usize>,
    epoch: u32,
    rng: Rng,
    faults: FaultState,
}

impl GasTrainer {
    /// Build GAS over `ds` with an `arch` model of `hidden` width.
    pub fn new(
        ds: &Dataset,
        arch: Arch,
        hidden: usize,
        num_layers: usize,
        machine: Machine,
        cfg: GasConfig,
        seed: u64,
    ) -> Self {
        let mut rng = Rng::new(seed);
        let dims = layer_dims(ds.spec.feature_dim, hidden, num_layers, ds.spec.num_classes);
        let model = Model::new(arch, &dims, &mut rng);

        let parts: Partitioning = partition_ldg(&ds.graph, cfg.num_parts, &mut rng);
        let clusters: Vec<Vec<NodeId>> = parts
            .clusters()
            .into_iter()
            .filter(|c| !c.is_empty())
            .collect();
        let blocks = clusters
            .iter()
            .map(|c| build_cluster_block(ds, c, cfg.max_neighbors))
            .collect();

        // Full-size history per level 1..L (the top level history is kept
        // too, as GAS does, though only interior levels are read).
        let history = dims[1..]
            .iter()
            .map(|&d| Matrix::zeros(ds.num_nodes(), d))
            .collect();

        GasTrainer {
            model,
            history,
            clusters,
            blocks,
            cfg,
            counters: TrafficCounters::new(),
            timings: StageTimings::new(),
            obs: Obs::new(),
            machine,
            dims,
            epoch: 0,
            rng,
            faults: FaultState::none(),
        }
    }

    /// Inject interconnect faults: every subsequent epoch's transfers are
    /// subjected to `plan` under `policy` (same contract as
    /// [`crate::Trainer::inject_faults`]).
    pub fn inject_faults(&mut self, plan: FaultPlan, policy: RetryPolicy) {
        self.faults.inject(plan, policy);
    }

    /// Completed epochs so far.
    pub fn epochs(&self) -> u32 {
        self.epoch
    }

    /// Capture the trainable state — model parameters, optimizer moments,
    /// RNG, epoch cursor, traffic ledger. The `O(Lnd)` history is *not*
    /// captured (it is exactly the storage GAS's design cannot bound, the
    /// paper's point); [`GasTrainer::restore`] therefore always resumes
    /// with zeroed histories and reports the degradation, mirroring the
    /// main trainer's cold-cache semantics.
    pub fn checkpoint(&mut self, opt: &dyn Optimizer) -> Checkpoint {
        self.state().checkpoint(opt)
    }

    /// Restore from a checkpoint taken by an identically-configured GAS
    /// trainer. Always returns `Ok(true)`: core state is exact but the
    /// histories restart cold (see [`GasTrainer::checkpoint`]).
    pub fn restore(
        &mut self,
        ckpt: &Checkpoint,
        opt: &mut dyn Optimizer,
    ) -> Result<bool, CheckpointError> {
        self.state().restore(ckpt, opt)?;
        for h in &mut self.history {
            h.as_mut_slice().iter_mut().for_each(|x| *x = 0.0);
        }
        Ok(true)
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

    /// The paper's OOM criterion: GAS must hold `O(Lnd)` history. Returns
    /// the history bytes for a *paper-scale* node count so experiments can
    /// report OOM exactly where Table 3 does.
    pub fn history_bytes_at_scale(&self, num_nodes: usize) -> u64 {
        self.dims[1..]
            .iter()
            .map(|&d| num_nodes as u64 * d as u64 * 4)
            .sum()
    }

    /// Resident history bytes at the current (scaled) size.
    pub fn history_bytes(&self) -> u64 {
        self.history
            .iter()
            .map(|m| (m.rows() * m.cols() * 4) as u64)
            .sum()
    }

    /// Train one epoch (= one pass over all clusters, shuffled) through the
    /// pipeline engine. GAS skips the `Sample`/`Prune`/`CacheUpdate` stages:
    /// its work units are precomputed cluster blocks and its "cache" (the
    /// history) is written inside `Forward`, which is exactly the design
    /// difference the per-stage ledger makes visible.
    pub fn train_epoch(&mut self, ds: &Dataset, opt: &mut dyn Optimizer) -> EpochStats {
        let mut order: Vec<usize> = (0..self.clusters.len()).collect();
        let mut shuffle_rng = self.rng.fork();
        shuffle_rng.shuffle(&mut order);

        let topo = self.machine.topology.clone();
        let mut stages = GasStages {
            model: &mut self.model,
            history: &mut self.history,
            clusters: &self.clusters,
            blocks: &self.blocks,
            cfg: &self.cfg,
            dims: &self.dims,
            machine: &self.machine,
            ds,
        };
        let result = Engine::run_epoch(
            &topo,
            &mut self.faults,
            &mut self.counters,
            &mut self.obs,
            StallPolicy::Free,
            order.into_iter().map(Ok::<_, std::convert::Infallible>),
            |ctx, counters, ci| stages.train_cluster(ctx, counters, ci, opt),
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

/// Disjoint borrows of [`GasTrainer`] fields used by the per-cluster step,
/// leaving `fault_plan`/`counters` free for [`Engine::run_epoch`].
struct GasStages<'s, 'd> {
    model: &'s mut Model,
    history: &'s mut Vec<Matrix>,
    clusters: &'s [Vec<NodeId>],
    blocks: &'s [Block],
    cfg: &'s GasConfig,
    dims: &'s [usize],
    machine: &'s Machine,
    ds: &'d Dataset,
}

impl<'t> GasStages<'_, '_> {
    fn train_cluster(
        &mut self,
        ctx: &mut PipelineCtx<'t>,
        counters: &mut TrafficCounters,
        ci: usize,
        opt: &mut dyn Optimizer,
    ) -> Option<BatchOutput> {
        let ds = self.ds;
        let cluster = &self.clusters[ci];
        let block = &self.blocks[ci];
        let n_cluster = cluster.len();
        let n_src = block.num_src();
        let row_bytes = ds.spec.feature_row_bytes() as u64;

        // Labels exist for train nodes inside the cluster.
        let train_local: Vec<usize> = cluster
            .iter()
            .enumerate()
            .filter(|(_, &g)| ds.train_nodes.binary_search(&g).is_ok())
            .map(|(i, _)| i)
            .collect();
        // (train_nodes is unsorted; fall back to a set lookup.)
        let train_local = if train_local.is_empty() {
            let set: std::collections::HashSet<NodeId> = ds.train_nodes.iter().copied().collect();
            cluster
                .iter()
                .enumerate()
                .filter(|(_, g)| set.contains(g))
                .map(|(i, _)| i)
                .collect()
        } else {
            train_local
        };
        if train_local.is_empty() {
            return None;
        }

        // Level-0 inputs: raw features of cluster + boundary (charged).
        let mut h_src = ctx.stage(StageKind::Load, counters, |engine, c| {
            let ids: Vec<usize> = block.src_global.iter().map(|&g| g as usize).collect();
            let h = ds.features.gather_rows(&ids);
            engine.one_sided_read(Node::Host, Node::Gpu(0), n_src as u64 * row_bytes, c);
            h
        });

        // Forward through all layers on the same block. History pushes and
        // boundary pulls are charged here: in GAS they are inseparable from
        // the forward pass.
        let num_layers = self.model.layers.len();
        let mut traces = Vec::with_capacity(num_layers);
        let mut h_srcs = Vec::with_capacity(num_layers);
        ctx.stage(StageKind::Forward, counters, |engine, c| {
            for l in 0..num_layers {
                let (h_dst, layer_ctx) = self.model.layers[l].forward(block, &h_src);
                // Push fresh cluster rows into history[l] (charged).
                push_rows(&mut self.history[l], cluster, &h_dst, self.cfg.momentum);
                let level_bytes = (n_cluster * self.dims[l + 1] * 4) as u64;
                engine.one_sided_read(Node::Gpu(0), Node::Host, level_bytes, c);

                h_srcs.push(h_src.clone());
                traces.push(layer_ctx);

                if l + 1 < num_layers {
                    // Next layer's src: fresh cluster rows + history boundary.
                    let boundary = &block.src_global[n_cluster..];
                    let mut next = Matrix::zeros(n_src, self.dims[l + 1]);
                    next.as_mut_slice()[..n_cluster * self.dims[l + 1]]
                        .copy_from_slice(h_dst.as_slice());
                    for (o, &g) in boundary.iter().enumerate() {
                        next.row_mut(n_cluster + o)
                            .copy_from_slice(self.history[l].row(g as usize));
                    }
                    // Pull boundary history (charged).
                    let pull = (boundary.len() * self.dims[l + 1] * 4) as u64;
                    engine.one_sided_read(Node::Host, Node::Gpu(0), pull, c);
                    h_src = next;
                } else {
                    h_src = h_dst;
                }
            }
        });
        let logits = &h_src; // output of the last layer (cluster rows)

        // Loss over train nodes in the cluster, then backward with boundary
        // rows detached (they are history constants).
        let loss = ctx.stage(StageKind::Backward, counters, |_engine, _c| {
            let sel: Vec<usize> = train_local.clone();
            let sel_logits = logits.gather_rows(&sel);
            let labels: Vec<u16> = sel
                .iter()
                .map(|&i| ds.labels[cluster[i] as usize])
                .collect();
            let (loss, d_sel) = softmax_cross_entropy(&sel_logits, &labels);

            // Scatter loss gradient back to cluster rows.
            let mut d = Matrix::zeros(n_cluster, self.dims[num_layers]);
            d.scatter_add_rows(&sel, &d_sel);

            self.model.zero_grad();
            for l in (0..num_layers).rev() {
                let d_src = self.model.layers[l].backward(block, &traces[l], &h_srcs[l], &d);
                // Boundary rows are history constants: truncate to cluster rows.
                d = Matrix::from_vec(
                    n_cluster,
                    self.dims[l],
                    d_src.as_slice()[..n_cluster * self.dims[l]].to_vec(),
                );
            }
            loss
        });

        ctx.stage(StageKind::OptimStep, counters, |_engine, _c| {
            let mut params = self.model.params_mut();
            opt.step(&mut params);
        });

        // Simulated compute, attributed to the backward/forward pass.
        let flops = 3.0
            * (0..num_layers)
                .map(|l| {
                    fgnn_memsim::presets::aggregation_flops(block.num_edges(), self.dims[l])
                        + fgnn_memsim::presets::dense_flops(
                            n_cluster,
                            if self.model.arch == Arch::Sage {
                                2 * self.dims[l]
                            } else {
                                self.dims[l]
                            },
                            self.dims[l + 1],
                        )
                })
                .sum::<f64>();
        ctx.stage(StageKind::Backward, counters, |_engine, c| {
            c.compute_seconds += self.machine.gpu.compute_seconds(flops);
        });

        Some(BatchOutput::loss_only(loss))
    }
}

/// Build a GAS cluster block: dst = cluster, src = cluster ∪ boundary,
/// adjacency = (capped) full in-edges of the cluster.
fn build_cluster_block(ds: &Dataset, cluster: &[NodeId], max_neighbors: usize) -> Block {
    let mut local_of = std::collections::HashMap::with_capacity(cluster.len() * 2);
    for (i, &g) in cluster.iter().enumerate() {
        local_of.insert(g, i as NodeId);
    }
    let mut src_global = cluster.to_vec();
    let mut lists = Vec::with_capacity(cluster.len());
    for &v in cluster {
        let nbrs = ds.graph.neighbors(v);
        let take = nbrs.len().min(max_neighbors);
        let mut local = Vec::with_capacity(take);
        for &u in &nbrs[..take] {
            let lu = *local_of.entry(u).or_insert_with(|| {
                src_global.push(u);
                (src_global.len() - 1) as NodeId
            });
            local.push(lu);
        }
        lists.push(local);
    }
    Block {
        dst_global: cluster.to_vec(),
        src_global,
        adj: Csr2::from_neighbor_lists(&lists),
    }
}

/// History push: overwrite (GAS) or momentum-blend (GraphFM).
fn push_rows(history: &mut Matrix, nodes: &[NodeId], fresh: &Matrix, momentum: Option<f32>) {
    match momentum {
        None => {
            for (i, &g) in nodes.iter().enumerate() {
                history.set_row(g as usize, fresh.row(i));
            }
        }
        Some(beta) => {
            for (i, &g) in nodes.iter().enumerate() {
                let dst = history.row_mut(g as usize);
                for (h, &f) in dst.iter_mut().zip(fresh.row(i)) {
                    *h = (1.0 - beta) * *h + beta * f;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_graph::datasets::arxiv_spec;
    use fgnn_nn::Adam;

    fn tiny() -> Dataset {
        Dataset::materialize(arxiv_spec(0.0).with_dim(12), 7)
    }

    fn gas(ds: &Dataset, momentum: Option<f32>) -> GasTrainer {
        GasTrainer::new(
            ds,
            Arch::Gcn,
            16,
            2,
            Machine::single_a100(),
            GasConfig {
                num_parts: 8,
                max_neighbors: 32,
                momentum,
            },
            1,
        )
    }

    #[test]
    fn gas_trains_and_reduces_loss() {
        let ds = tiny();
        let mut t = gas(&ds, None);
        let mut opt = Adam::new(0.01);
        let first = t.train_epoch(&ds, &mut opt).mean_loss;
        let mut last = first;
        for _ in 0..8 {
            last = t.train_epoch(&ds, &mut opt).mean_loss;
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn gas_history_is_o_lnd() {
        let ds = tiny();
        let t = gas(&ds, None);
        // 2 layers: history levels of dims 16 and 64 (classes).
        let expect = (ds.num_nodes() * (16 + 64) * 4) as u64;
        assert_eq!(t.history_bytes(), expect);
        // Paper-scale accounting for the OOM rows of Table 3/Fig 10.
        let at_mag = t.history_bytes_at_scale(244_200_000);
        assert!(
            at_mag > 70_000_000_000,
            "MAG240M history would need {at_mag} bytes"
        );
    }

    #[test]
    fn gas_moves_history_traffic() {
        let ds = tiny();
        let mut t = gas(&ds, None);
        let mut opt = Adam::new(0.01);
        t.train_epoch(&ds, &mut opt);
        assert!(t.counters.host_to_gpu_bytes > 0);
        assert!(t.counters.gpu_to_gpu_bytes == 0);
    }

    #[test]
    fn graphfm_momentum_blends_history() {
        let ds = tiny();
        let mut t = gas(&ds, Some(0.5));
        let mut opt = Adam::new(0.01);
        t.train_epoch(&ds, &mut opt);
        // History must be nonzero after one epoch.
        assert!(t.history[0].frobenius_norm() > 0.0);
    }

    #[test]
    fn gas_accuracy_beats_random_on_tiny_task() {
        let ds = tiny();
        let mut t = gas(&ds, None);
        let mut opt = Adam::new(0.01);
        for _ in 0..15 {
            t.train_epoch(&ds, &mut opt);
        }
        let acc = t.evaluate(&ds, &ds.test_nodes, &[4, 4]);
        assert!(acc > 0.08, "accuracy {acc}");
    }
}
