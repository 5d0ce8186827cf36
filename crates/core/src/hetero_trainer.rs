// Index-based loops below intentionally walk several parallel arrays in
// lockstep; iterator zips would obscure the math. Clippy disagrees.
#![allow(clippy::needless_range_loop)]

//! Heterogeneous-graph extension (§7.6): R-GraphSAGE with the historical
//! embedding cache on the target node type.
//!
//! The cache machinery carries over unchanged: the labeled (paper) type's
//! per-level embeddings are cached under the same `p_grad`/`t_stale`
//! policy; a cached paper destination has every incoming relation pruned
//! and its typed subtree dies, skipping the corresponding author/
//! institution expansions and feature loads. (Caching the unlabeled types
//! too would be a straightforward extension; the paper's experiment only
//! needs the target type, where gradient feedback exists every iteration.)

use crate::cache::{CachePolicy, HistoricalCache, PolicyInput};
use crate::checkpoint::{Checkpoint, CheckpointError, TrainerState};
use crate::config::FreshGnnConfig;
use crate::obs::Obs;
use crate::pipeline::{
    BatchOutput, Engine, EngineState, EpochStats, EvalHarness, PipelineCtx, StallPolicy,
};
use crate::resilience::{NumericFault, NumericGuard, Recoverable};
use crate::runtime::RuntimeConfig;
use crate::sampler::SampleError;
use crate::trainer::layer_dims;
use fgnn_graph::hetero::{HeteroDataset, HeteroMiniBatch, HeteroSampler};
use fgnn_graph::sample::split_batches;
use fgnn_graph::NodeId;
use fgnn_memsim::fault::{BreakerPolicy, BreakerState, FaultPlan, FaultState, RetryPolicy};
use fgnn_memsim::presets::Machine;
use fgnn_memsim::stage::{StageKind, StageTimings};
use fgnn_memsim::topology::Node;
use fgnn_memsim::TrafficCounters;
use fgnn_nn::loss::softmax_cross_entropy;
use fgnn_nn::model::Arch;
use fgnn_nn::rsage::RSageModel;
use fgnn_nn::Optimizer;
use fgnn_tensor::{Matrix, Rng};
use std::collections::BTreeSet;

/// R-GraphSAGE trainer over a [`HeteroDataset`].
pub struct HeteroTrainer {
    /// The relational model under training.
    pub model: RSageModel,
    /// Historical cache on the target type's levels.
    pub cache: HistoricalCache,
    /// Cache policy built from `cfg.policy` (DESIGN.md §11).
    policy: Box<dyn CachePolicy>,
    /// Dedicated side-stream RNG for randomized policies. Deliberately
    /// *not* forked from the main RNG: the historical hetero trainer never
    /// consumed randomness in its cache update, and forking per batch
    /// would shift the batch schedule pinned by the equivalence goldens.
    policy_rng: Rng,
    /// Hyper-parameters (fanouts/batch size/p_grad/t_stale reused).
    pub cfg: FreshGnnConfig,
    /// Traffic ledger.
    pub counters: TrafficCounters,
    /// Cumulative per-stage attribution of `counters` (not checkpointed).
    pub timings: StageTimings,
    /// Observability state: sim-clock spans plus metrics, fed by the
    /// pipeline engine (not checkpointed).
    pub obs: Obs,
    machine: Machine,
    sampler: HeteroSampler,
    /// `(src_type, dst_type)` per relation, in the graph's relation order.
    rel_types: Vec<(usize, usize)>,
    dims: Vec<usize>,
    iter: u32,
    epoch: u32,
    rng: Rng,
    faults: FaultState,
    /// Iterations whose reported loss is forced to NaN (chaos-test hook).
    nan_iters: BTreeSet<u32>,
    /// Seeded adversarial scheduling on the async runtime (`None` in
    /// production; the schedule-fuzzing suite turns it on).
    runtime_chaos: Option<crate::runtime::ChaosPolicy>,
    /// Set by a degraded restore; consumed into the next epoch's stats.
    degraded_resume: bool,
}

impl HeteroTrainer {
    /// Build a trainer for `ds` with `hidden` units per hidden layer.
    pub fn new(
        ds: &HeteroDataset,
        hidden: usize,
        machine: Machine,
        cfg: FreshGnnConfig,
        seed: u64,
    ) -> Self {
        cfg.validate().expect("invalid config");
        let mut rng = Rng::new(seed);
        let in_dim = ds.features[ds.target_type].cols();
        let dims = layer_dims(in_dim, hidden, cfg.num_layers(), ds.num_classes);
        let model = RSageModel::new(&ds.graph, ds.target_type, &dims, &mut rng);
        let policy = cfg.build_policy();
        let mut cache = HistoricalCache::new(
            ds.graph.node_counts[ds.target_type],
            &dims[1..],
            cfg.t_stale,
            cfg.cache_capacity,
            cfg.cache_top_layer,
            cfg.cache_enabled(),
        );
        if policy.wants_history() {
            cache.enable_history();
        }
        HeteroTrainer {
            model,
            cache,
            policy,
            policy_rng: Rng::new(seed ^ 0x0000_504F_4C49_4359), // "POLICY" side stream
            counters: TrafficCounters::new(),
            timings: StageTimings::new(),
            obs: Obs::new(),
            machine,
            sampler: HeteroSampler::new(&ds.graph),
            rel_types: ds
                .graph
                .relations
                .iter()
                .map(|r| (r.src_type, r.dst_type))
                .collect(),
            dims,
            cfg,
            iter: 0,
            epoch: 0,
            rng,
            faults: FaultState::none(),
            nan_iters: BTreeSet::new(),
            runtime_chaos: None,
            degraded_resume: false,
        }
    }

    /// Inject interconnect faults (same contract as
    /// [`crate::Trainer::inject_faults`]).
    pub fn inject_faults(&mut self, plan: FaultPlan, policy: RetryPolicy) {
        self.faults.inject(plan, policy);
    }

    /// Arm the interconnect circuit breaker (same contract as
    /// [`crate::Trainer::enable_breaker`]).
    pub fn enable_breaker(&mut self, policy: BreakerPolicy) {
        self.faults.arm_breaker(policy);
    }

    /// Force the loss reported at the given iterations to NaN (chaos-test
    /// hook, same contract as [`crate::Trainer::inject_nan_at`]).
    pub fn inject_nan_at(&mut self, iters: impl IntoIterator<Item = u32>) {
        self.nan_iters.extend(iters);
    }

    /// The checkpointed part of the trainer, split-borrowed.
    fn state(&mut self) -> TrainerState<'_> {
        TrainerState {
            arch: Arch::Sage,
            dims: &self.dims,
            params: self.model.params_mut(),
            rng: &mut self.rng,
            epoch: &mut self.epoch,
            iter: Some(&mut self.iter),
            counters: &mut self.counters,
            static_cache: None,
            cache: Some(&mut self.cache),
        }
    }

    /// Train one epoch over the target-type training nodes through the
    /// pipeline engine (full FreshGNN stage set, typed).
    pub fn train_epoch(&mut self, ds: &HeteroDataset, opt: &mut dyn Optimizer) -> EpochStats {
        self.run_sync_epoch(ds, opt, None).0
    }

    /// The synchronous epoch driver. With a `guard`, every batch loss is
    /// fed through it (after any [`HeteroTrainer::inject_nan_at`]
    /// override); once it trips, the remaining batches are skipped and the
    /// fault is returned with the partial stats.
    fn run_sync_epoch(
        &mut self,
        ds: &HeteroDataset,
        opt: &mut dyn Optimizer,
        mut guard: Option<&mut NumericGuard>,
    ) -> (EpochStats, Option<NumericFault>) {
        let mut shuffle_rng = self.rng.fork();
        let batches = split_batches(&ds.train_nodes, self.cfg.batch_size, Some(&mut shuffle_rng));
        let mut nan_iters = std::mem::take(&mut self.nan_iters);
        let mut fault: Option<NumericFault> = None;
        let result = self.with_stages(ds, |stages, e| {
            Engine::run_epoch(
                e.topo,
                e.faults,
                e.counters,
                e.obs,
                StallPolicy::Free,
                batches.iter().map(Ok::<_, std::convert::Infallible>),
                |ctx, counters, seeds| {
                    if fault.is_some() {
                        return None;
                    }
                    let it = *stages.iter;
                    let mut out = stages.train_batch(ctx, counters, seeds, opt);
                    let Some(guard) = guard.as_deref_mut() else {
                        return Some(out);
                    };
                    if nan_iters.remove(&it) {
                        out.loss = f32::NAN;
                    }
                    fault = guard.observe(it, out.loss);
                    fault.is_none().then_some(out)
                },
            )
        });
        // Unconsumed injections stay armed for later iterations.
        self.nan_iters = nan_iters;
        let mut stats = result.unwrap();
        self.finish_epoch(&mut stats);
        (stats, fault)
    }

    /// Post-epoch bookkeeping shared by the sync and async paths.
    fn finish_epoch(&mut self, stats: &mut EpochStats) {
        self.epoch += 1;
        self.timings.merge(&stats.timings);
        stats.cache_degraded = std::mem::take(&mut self.degraded_resume);
    }

    /// Split the trainer into its stage set and the state the pipeline
    /// engine drives, and run `f` over them.
    fn with_stages<R>(
        &mut self,
        ds: &HeteroDataset,
        f: impl FnOnce(&mut HeteroStages<'_, '_>, EngineState<'_>) -> R,
    ) -> R {
        let mut stages = HeteroStages {
            model: &mut self.model,
            cache: &mut self.cache,
            policy: &*self.policy,
            policy_rng: &mut self.policy_rng,
            sampler: &mut self.sampler,
            rng: &mut self.rng,
            iter: &mut self.iter,
            cfg: &self.cfg,
            rel_types: &self.rel_types,
            dims: &self.dims,
            machine: &self.machine,
            ds,
        };
        f(
            &mut stages,
            EngineState {
                topo: &self.machine.topology,
                faults: &mut self.faults,
                counters: &mut self.counters,
                obs: &mut self.obs,
            },
        )
    }

    /// Enable (or disable with `None`) seeded adversarial scheduling on
    /// [`HeteroTrainer::train_epoch_async`]'s runtime (same contract as
    /// [`crate::Trainer::set_sampler_chaos`]: the schedule scrambles, the
    /// numbers never do).
    pub fn set_runtime_chaos(&mut self, chaos: Option<crate::runtime::ChaosPolicy>) {
        self.runtime_chaos = chaos;
    }

    /// Train one epoch with **cross-batch prestage overlap**: typed
    /// sampling for every mini-batch is scheduled on the in-tree
    /// work-stealing runtime ([`Engine::run_epoch_overlapped`]) while this
    /// thread prunes/loads/trains, so sampling for future batches runs
    /// under the current batch's GPU stages. Only consumer queue stalls
    /// are charged as `Sample` time.
    ///
    /// Deterministic: each batch's sampling RNG derives from
    /// `(batch_seed, index)` alone and results commit in index order, so
    /// losses, counters and every `Exact` metric are byte-identical at any
    /// `num_threads` (note the stream differs from [`Self::train_epoch`],
    /// which draws per-batch RNGs sequentially from the trainer stream).
    ///
    /// Errors mirror [`crate::Trainer::train_epoch_async`]: a batch whose
    /// sampling task panicked on every attempt surfaces as
    /// [`SampleError::BatchPanicked`], dead workers as
    /// [`SampleError::WorkersLost`]; progress made before the failure is
    /// kept.
    pub fn train_epoch_async(
        &mut self,
        ds: &HeteroDataset,
        opt: &mut dyn Optimizer,
        num_threads: usize,
        queue_capacity: usize,
    ) -> Result<EpochStats, SampleError> {
        let mut shuffle_rng = self.rng.fork();
        let batches = split_batches(&ds.train_nodes, self.cfg.batch_size, Some(&mut shuffle_rng));
        let batch_seed = self.rng.fork().next_u64();

        let graph = std::sync::Arc::new(ds.graph.clone());
        let runtime_cfg = RuntimeConfig {
            workers: num_threads.max(1),
            queue_capacity: queue_capacity.max(1),
            max_retries: self.cfg.sampler_retries,
            chaos: self.runtime_chaos,
            ..RuntimeConfig::default()
        };
        let target = ds.target_type;
        let fanouts = self.cfg.fanouts.clone();
        let init_graph = std::sync::Arc::clone(&graph);
        let result = self.with_stages(ds, |stages, e| {
            Engine::run_epoch_overlapped::<_, _, _, SampleError>(
                e.topo,
                e.faults,
                e.counters,
                e.obs,
                &runtime_cfg,
                batches,
                move || HeteroSampler::new(&init_graph),
                move |sampler: &mut HeteroSampler, i, seeds: &Vec<NodeId>, _attempt| {
                    // Per-batch RNG, recreated per attempt => schedule- and
                    // retry-independent output (same discipline as
                    // `AsyncSampler`).
                    let mut rng = Rng::new(batch_seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
                    let mb = sampler.sample(&graph, target, seeds, &fanouts, &mut rng);
                    (seeds.clone(), mb)
                },
                |ctx, counters, (seeds, mb)| {
                    Some(stages.train_sampled(ctx, counters, &seeds, mb, opt))
                },
            )
        });
        let mut stats = result?;
        self.finish_epoch(&mut stats);
        Ok(stats)
    }

    /// Evaluate accuracy on target-type `nodes` with plain (uncached)
    /// sampling.
    pub fn evaluate(&mut self, ds: &HeteroDataset, nodes: &[NodeId], batch_size: usize) -> f64 {
        let mut rng = self.rng.fork();
        EvalHarness::accuracy_hetero(
            &self.model,
            ds,
            nodes,
            &self.cfg.fanouts,
            batch_size,
            &mut rng,
        )
    }
}

/// Checkpoints carry the historical-cache snapshot. The arch slot records
/// [`Arch::Sage`]: R-GraphSAGE is the relational form of SAGE and has no
/// own `Arch` variant.
impl Recoverable for HeteroTrainer {
    type Dataset = HeteroDataset;

    fn checkpoint(&mut self, opt: &dyn Optimizer) -> Checkpoint {
        self.state().checkpoint(opt)
    }

    fn restore(
        &mut self,
        ckpt: &Checkpoint,
        opt: &mut dyn Optimizer,
    ) -> Result<bool, CheckpointError> {
        self.degraded_resume = self.state().restore(ckpt, opt)?;
        Ok(self.degraded_resume)
    }

    fn train_epoch_guarded(
        &mut self,
        ds: &HeteroDataset,
        opt: &mut dyn Optimizer,
        guard: &mut NumericGuard,
    ) -> (EpochStats, Option<NumericFault>) {
        self.run_sync_epoch(ds, opt, Some(guard))
    }

    fn iterations(&self) -> u32 {
        self.iter
    }

    fn epochs(&self) -> u32 {
        self.epoch
    }

    fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    fn breaker_open(&self) -> bool {
        self.faults.breaker_state() == Some(BreakerState::Open)
    }
}

/// Disjoint borrows of [`HeteroTrainer`] fields for the per-batch step.
struct HeteroStages<'s, 'd> {
    model: &'s mut RSageModel,
    cache: &'s mut HistoricalCache,
    policy: &'s dyn CachePolicy,
    policy_rng: &'s mut Rng,
    sampler: &'s mut HeteroSampler,
    rng: &'s mut Rng,
    iter: &'s mut u32,
    cfg: &'s FreshGnnConfig,
    rel_types: &'s [(usize, usize)],
    dims: &'s [usize],
    machine: &'s Machine,
    ds: &'d HeteroDataset,
}

impl<'t> HeteroStages<'_, '_> {
    fn train_batch(
        &mut self,
        ctx: &mut PipelineCtx<'t>,
        counters: &mut TrafficCounters,
        seeds: &[NodeId],
        opt: &mut dyn Optimizer,
    ) -> BatchOutput {
        let ds = self.ds;
        let target = ds.target_type;
        let mb = ctx.stage(StageKind::Sample, counters, |_engine, _c| {
            let mut sample_rng = self.rng.fork();
            self.sampler
                .sample(&ds.graph, target, seeds, &self.cfg.fanouts, &mut sample_rng)
        });
        self.train_sampled(ctx, counters, seeds, mb, opt)
    }

    /// Run a pre-sampled batch through prune → load → forward → backward →
    /// cache-update → optim-step. The async path prestages the `Sample`
    /// stage on the work-stealing runtime and enters here; the sync path
    /// samples inline first.
    fn train_sampled(
        &mut self,
        ctx: &mut PipelineCtx<'t>,
        counters: &mut TrafficCounters,
        seeds: &[NodeId],
        mut mb: HeteroMiniBatch,
        opt: &mut dyn Optimizer,
    ) -> BatchOutput {
        let ds = self.ds;
        let target = ds.target_type;
        let now = *self.iter;

        // Degraded mode: breaker open — bypass the ring cache for this
        // batch (see `FreshGnnStages::train_sampled`).
        let degraded = ctx.breaker_open();
        self.cache.set_bypass(degraded);

        // Cache-aware typed pruning (top-down reachability).
        let outcome = ctx.stage(StageKind::Prune, counters, |_engine, _c| {
            prune_hetero_with(
                &mut mb,
                self.rel_types,
                self.cache,
                target,
                now,
                self.policy,
            )
        });

        // Load per-type input features for surviving src nodes.
        let n_types = ds.graph.node_counts.len();
        let h0 = ctx.stage(StageKind::Load, counters, |engine, c| {
            let mut h0 = Vec::with_capacity(n_types);
            let mut wire_bytes = 0u64;
            let mut saved_bytes = 0u64;
            for t in 0..n_types {
                let row_bytes = (ds.features[t].cols() * 4) as u64;
                let srcs = &mb.blocks[0].src[t];
                let mut m = Matrix::zeros(srcs.len(), ds.features[t].cols());
                for (i, &g) in srcs.iter().enumerate() {
                    if outcome.needed_input[t][i] {
                        m.row_mut(i).copy_from_slice(ds.features[t].row(g as usize));
                        wire_bytes += row_bytes;
                    } else {
                        saved_bytes += row_bytes;
                    }
                }
                h0.push(m);
            }
            if wire_bytes > 0 {
                engine.one_sided_read(Node::Host, Node::Gpu(0), wire_bytes, c);
            }
            c.cache_hit_bytes += saved_bytes;
            h0
        });

        // Forward with cache overrides on the target type (the policy
        // post-processes each read; plain copy under the baseline).
        let trace = ctx.stage(StageKind::Forward, counters, |_engine, _c| {
            let cache = &*self.cache;
            let policy = self.policy;
            let cached = &outcome.cached;
            self.model.forward_with(&mb, h0, |level, h| {
                let b = level - 1;
                if b < cached.len() {
                    for &(local, slot) in &cached[b] {
                        cache.read_into(
                            level,
                            slot,
                            now,
                            policy,
                            h[target].row_mut(local as usize),
                        );
                    }
                }
            })
        });

        let num_levels = self.dims.len() - 1;
        let (loss, policy_inputs) = ctx.stage(StageKind::Backward, counters, |_engine, _c| {
            let logits = self.model.logits(&trace);
            let labels: Vec<u16> = seeds.iter().map(|&s| ds.labels[s as usize]).collect();
            let (loss, d_logits) = softmax_cross_entropy(logits, &labels);

            self.model.zero_grad();
            let mut policy_inputs: Vec<Vec<PolicyInput>> = vec![Vec::new(); num_levels + 1];
            {
                let cache_enabled = self.cfg.cache_enabled();
                let inputs = &mut policy_inputs;
                self.model.backward_with(&mb, &trace, d_logits, |level, d| {
                    if !cache_enabled || level == num_levels {
                        return; // top level = seeds, never cached
                    }
                    let b = level - 1;
                    let block = &mb.blocks[b];
                    let mut is_cached = vec![false; block.dst[target].len()];
                    for &(local, _) in &outcome.cached[b] {
                        is_cached[local as usize] = true;
                    }
                    for v in 0..block.dst[target].len() {
                        if !(outcome.computed[b][v] || is_cached[v]) {
                            continue;
                        }
                        let row = d[target].row(v);
                        let norm = row.iter().map(|&x| x * x).sum::<f32>().sqrt();
                        inputs[level].push(PolicyInput {
                            node: block.dst[target][v],
                            local: v as u32,
                            grad_norm: norm,
                            was_cached: is_cached[v],
                        });
                    }
                    for &(local, _) in &outcome.cached[b] {
                        d[target]
                            .row_mut(local as usize)
                            .iter_mut()
                            .for_each(|x| *x = 0.0);
                    }
                });
            }
            (loss, policy_inputs)
        });

        ctx.stage(StageKind::CacheUpdate, counters, |_engine, _c| {
            for level in 1..num_levels {
                if policy_inputs[level].is_empty() {
                    continue;
                }
                let verdicts =
                    self.policy
                        .verdicts(&policy_inputs[level], self.cfg.p_grad, self.policy_rng);
                self.cache
                    .apply_verdicts(level, &verdicts, &trace.h[level][target], now);
            }
        });

        ctx.stage(StageKind::OptimStep, counters, |_engine, _c| {
            let mut params = self.model.params_mut();
            opt.step(&mut params);
        });

        // Simulated compute from live relation edges, attributed to the
        // forward/backward pass (charged after opt.step exactly as the
        // pre-pipeline loop did, to keep f64 accumulation order).
        let mut flops = 0.0;
        for (b, block) in mb.blocks.iter().enumerate() {
            let edges: usize = block.num_edges();
            flops += fgnn_memsim::presets::aggregation_flops(edges, self.dims[b]);
            let n_dst: usize = block.dst.iter().map(Vec::len).sum();
            flops += fgnn_memsim::presets::dense_flops(n_dst, self.dims[b], self.dims[b + 1]);
        }
        ctx.stage(StageKind::Backward, counters, |_engine, c| {
            c.compute_seconds += self.machine.gpu.compute_seconds(3.0 * flops);
        });

        self.cache.set_bypass(false);
        *self.iter += 1;
        BatchOutput::loss_only(loss).with_degraded(degraded)
    }
}

/// Typed pruning outcome.
pub struct HeteroPruneOutcome {
    /// Per block: `(local target-type dst index, slot)` cache reads.
    pub cached: Vec<Vec<(u32, u32)>>,
    /// Per block: whether each target-type dst is computed.
    pub computed: Vec<Vec<bool>>,
    /// Per type: which input src nodes need feature loads.
    pub needed_input: Vec<Vec<bool>>,
}

/// Top-down typed reachability pruning — the heterogeneous analogue of
/// [`crate::prune::prune_with_cache_policy`]. `rel_types[r]` gives
/// relation `r`'s `(src_type, dst_type)`. Cache probes route through
/// `policy` ([`HistoricalCache::lookup_with`]), so a refresh schedule can
/// decline live hits and force in-place refreshes.
pub fn prune_hetero_with(
    mb: &mut HeteroMiniBatch,
    rel_types: &[(usize, usize)],
    cache: &mut HistoricalCache,
    target: usize,
    now: u32,
    policy: &dyn CachePolicy,
) -> HeteroPruneOutcome {
    let num_blocks = mb.blocks.len();
    let n_types = mb.blocks[0].dst.len();
    let mut cached: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_blocks];
    let mut computed: Vec<Vec<bool>> = mb
        .blocks
        .iter()
        .map(|b| vec![false; b.dst[target].len()])
        .collect();

    // Top block: only target-type seeds are needed.
    let mut needed: Vec<Vec<bool>> = (0..n_types)
        .map(|t| vec![t == target; mb.blocks[num_blocks - 1].dst[t].len()])
        .collect();

    for b in (0..num_blocks).rev() {
        let level = b + 1;
        let is_top = b + 1 == num_blocks;
        let mut needed_below: Vec<Vec<bool>> = (0..n_types)
            .map(|t| vec![false; mb.blocks[b].src[t].len()])
            .collect();

        // Target-type cache check.
        let n_target_dst = mb.blocks[b].dst[target].len();
        let mut is_cached = vec![false; n_target_dst];
        for v in 0..n_target_dst {
            if !needed[target][v] {
                continue;
            }
            let node = mb.blocks[b].dst[target][v];
            if !is_top {
                if let Some(slot) = cache.lookup_with(level, node, now, policy) {
                    cached[b].push((v as u32, slot));
                    is_cached[v] = true;
                    continue;
                }
            }
            computed[b][v] = true;
        }

        // Per relation: prune dead/cached rows, expand live ones.
        for (r, &(src_t, dst_t)) in rel_types.iter().enumerate() {
            for v in 0..mb.blocks[b].rel_adj[r].num_nodes() {
                let live = needed[dst_t].get(v).copied().unwrap_or(false)
                    && !(dst_t == target && is_cached[v]);
                if !live {
                    mb.blocks[b].rel_adj[r].prune(v);
                    continue;
                }
                for &u in mb.blocks[b].rel_adj[r].neighbors(v) {
                    needed_below[src_t][u as usize] = true;
                }
            }
        }

        // Self terms: every live destination needs its own lower row.
        for t in 0..n_types {
            for v in 0..mb.blocks[b].dst[t].len() {
                let live = needed[t][v] && !(t == target && is_cached[v]);
                if live {
                    needed_below[t][v] = true;
                }
            }
        }

        if b == 0 {
            return HeteroPruneOutcome {
                cached,
                computed,
                needed_input: needed_below,
            };
        }
        needed = needed_below;
    }
    unreachable!("loop returns at b == 0")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::GradientPolicy;
    use fgnn_graph::hetero::mag_hetero;
    use fgnn_nn::Adam;

    fn tiny() -> HeteroDataset {
        mag_hetero(400, 4, 8, 3)
    }

    fn config(p_grad: f32, t_stale: u32) -> FreshGnnConfig {
        FreshGnnConfig {
            p_grad,
            t_stale,
            fanouts: vec![3, 3],
            batch_size: 32,
            ..Default::default()
        }
    }

    #[test]
    fn hetero_training_reduces_loss() {
        let ds = tiny();
        let mut t = HeteroTrainer::new(&ds, 16, Machine::single_a100(), config(0.9, 50), 1);
        let mut opt = Adam::new(0.01);
        let first = t.train_epoch(&ds, &mut opt).mean_loss;
        let mut last = first;
        for _ in 0..6 {
            last = t.train_epoch(&ds, &mut opt).mean_loss;
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn hetero_cache_serves_hits_and_saves_traffic() {
        let ds = tiny();
        let machine = Machine::single_a100();
        let mut cached = HeteroTrainer::new(&ds, 16, machine.clone(), config(0.95, 100), 2);
        let mut plain = HeteroTrainer::new(&ds, 16, machine, config(0.0, 0), 2);
        let mut o1 = Adam::new(0.01);
        let mut o2 = Adam::new(0.01);
        for _ in 0..4 {
            cached.train_epoch(&ds, &mut o1);
            plain.train_epoch(&ds, &mut o2);
        }
        assert!(cached.cache.stats().hits > 0);
        assert!(
            cached.counters.host_to_gpu_bytes < plain.counters.host_to_gpu_bytes,
            "cached {} vs plain {}",
            cached.counters.host_to_gpu_bytes,
            plain.counters.host_to_gpu_bytes
        );
    }

    #[test]
    fn hetero_async_epochs_are_worker_count_invariant() {
        let ds = tiny();
        let run = |workers: usize, chaos: Option<crate::runtime::ChaosPolicy>| {
            let mut t = HeteroTrainer::new(&ds, 16, Machine::single_a100(), config(0.9, 50), 3);
            t.set_runtime_chaos(chaos);
            let mut opt = Adam::new(0.01);
            let mut losses = Vec::new();
            for _ in 0..3 {
                let stats = t.train_epoch_async(&ds, &mut opt, workers, 4).unwrap();
                losses.push(stats.mean_loss.to_bits());
            }
            (losses, t.counters.host_to_gpu_bytes, t.cache.stats().hits)
        };
        let reference = run(1, None);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers, None), reference, "workers={workers}");
        }
        // Adversarial schedules scramble who samples what when — never
        // the committed stream.
        let chaos = crate::runtime::ChaosPolicy::aggressive(11);
        assert_eq!(run(4, Some(chaos)), reference, "chaos");
    }

    #[test]
    fn hetero_async_training_reduces_loss() {
        let ds = tiny();
        let mut t = HeteroTrainer::new(&ds, 16, Machine::single_a100(), config(0.9, 50), 1);
        let mut opt = Adam::new(0.01);
        let first = t.train_epoch_async(&ds, &mut opt, 2, 4).unwrap().mean_loss;
        let mut last = first;
        for _ in 0..6 {
            last = t.train_epoch_async(&ds, &mut opt, 2, 4).unwrap().mean_loss;
        }
        assert!(last < first, "loss {first} -> {last}");
        assert_eq!(t.epochs(), 7);
    }

    #[test]
    fn hetero_accuracy_above_random() {
        let ds = tiny();
        let mut t = HeteroTrainer::new(&ds, 16, Machine::single_a100(), config(0.9, 50), 4);
        let mut opt = Adam::new(0.01);
        for _ in 0..10 {
            t.train_epoch(&ds, &mut opt);
        }
        let acc = t.evaluate(&ds, &ds.test_nodes, 128);
        assert!(acc > 0.3, "4-class accuracy {acc}");
    }

    #[test]
    fn prune_hetero_with_empty_cache_keeps_everything_reachable() {
        let ds = tiny();
        let mut sampler = HeteroSampler::new(&ds.graph);
        let mut rng = Rng::new(5);
        let seeds: Vec<NodeId> = ds.train_nodes[..8].to_vec();
        let mut mb = sampler.sample(&ds.graph, 0, &seeds, &[3, 3], &mut rng);
        let edges_before = mb.blocks.iter().map(|b| b.num_edges()).sum::<usize>();
        let rel_types: Vec<(usize, usize)> = ds
            .graph
            .relations
            .iter()
            .map(|r| (r.src_type, r.dst_type))
            .collect();
        let mut cache = HistoricalCache::new(400, &[16, 4], 50, 8, false, true);
        let out = prune_hetero_with(&mut mb, &rel_types, &mut cache, 0, 0, &GradientPolicy);
        assert!(out.cached.iter().all(Vec::is_empty));
        // All target dst computed.
        assert!(out.computed.last().unwrap().iter().all(|&c| c));
        let edges_after = mb.blocks.iter().map(|b| b.num_edges()).sum::<usize>();
        assert_eq!(edges_before, edges_after, "nothing pruned without hits");
        // All target inputs needed.
        assert!(out.needed_input[0].iter().all(|&n| n));
    }

    #[test]
    fn hetero_prune_with_hit_saves_typed_inputs() {
        use crate::cache::{PolicyInput, Verdict};
        let ds = tiny();
        let mut sampler = HeteroSampler::new(&ds.graph);
        let mut rng = Rng::new(7);
        let seeds: Vec<NodeId> = ds.train_nodes[..8].to_vec();
        let rel_types: Vec<(usize, usize)> = ds
            .graph
            .relations
            .iter()
            .map(|r| (r.src_type, r.dst_type))
            .collect();

        // Baseline pruning with an empty cache.
        let mut mb_plain = sampler.sample(&ds.graph, 0, &seeds, &[3, 3], &mut rng);
        let mut empty = HistoricalCache::new(
            ds.graph.node_counts[0],
            &[16, ds.num_classes],
            50,
            8,
            false,
            true,
        );
        let base = prune_hetero_with(&mut mb_plain, &rel_types, &mut empty, 0, 0, &GradientPolicy);
        let base_needed: usize = base
            .needed_input
            .iter()
            .map(|t| t.iter().filter(|&&b| b).count())
            .sum();

        // Cache every level-1 paper destination, same batch stream.
        let mut sampler2 = HeteroSampler::new(&ds.graph);
        let mut rng2 = Rng::new(7);
        let mut mb = sampler2.sample(&ds.graph, 0, &seeds, &[3, 3], &mut rng2);
        let mut cache = HistoricalCache::new(
            ds.graph.node_counts[0],
            &[16, ds.num_classes],
            50,
            64,
            false,
            true,
        );
        let h = Matrix::zeros(1, 16);
        for &node in &mb.blocks[0].dst[0] {
            cache.apply_verdicts(
                1,
                &[(
                    PolicyInput {
                        node,
                        local: 0,
                        grad_norm: 0.0,
                        was_cached: false,
                    },
                    Verdict::Admit,
                )],
                &h,
                0,
            );
        }
        let out = prune_hetero_with(&mut mb, &rel_types, &mut cache, 0, 1, &GradientPolicy);
        assert!(!out.cached[0].is_empty(), "level-1 hits expected");
        let needed: usize = out
            .needed_input
            .iter()
            .map(|t| t.iter().filter(|&&b| b).count())
            .sum();
        assert!(
            needed < base_needed,
            "typed subtree pruning must cut inputs: {needed} vs {base_needed}"
        );
    }
}
