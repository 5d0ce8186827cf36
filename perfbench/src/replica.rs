//! Traced replica of Algorithm 1, built only from the library's public
//! functions.
//!
//! It makes the same calls as `Trainer::train_epoch` (or
//! `train_epoch_async`) in the same order on the same RNG forks, so its
//! losses and byte counters are bit-identical to the trainer's; the run
//! checks this before it reports any per-layer number. Each call into a
//! layer is wrapped in a span of the benchmark's own [`Recorder`].

use crate::spans::Recorder;
use crate::workloads::{TrainSpec, ASYNC_QUEUE};
use fgnn_graph::block::MiniBatch;
use fgnn_graph::sample::{split_batches, NeighborSampler};
use fgnn_graph::Dataset;
use fgnn_memsim::presets::Machine;
use fgnn_memsim::topology::Node;
use fgnn_memsim::{TrafficCounters, TransferEngine};
use fgnn_nn::loss::softmax_cross_entropy;
use fgnn_nn::model::Model;
use fgnn_nn::{Adam, Optimizer};
use fgnn_tensor::Rng;
use freshgnn::cache::{CachePolicy, PolicyInput, StaticFeatureCache};
use freshgnn::loader::FeatureLoader;
use freshgnn::prune::prune_with_cache_policy;
use freshgnn::runtime::RuntimeConfig;
use freshgnn::sampler::{AsyncSampler, SampleError};
use freshgnn::trainer::batch_flops;
use freshgnn::HistoricalCache;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FWD: [&str; 3] = ["nn.l0.fwd", "nn.l1.fwd", "nn.l2.fwd"];
const BWD: [&str; 3] = ["nn.l0.bwd", "nn.l1.bwd", "nn.l2.bwd"];

/// Counts taken at the layer boundaries of one step.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepProbe {
    /// Edges in the sampled mini-batch, before pruning.
    pub sampled_edges: u64,
    /// Input nodes the sampler produced.
    pub sampled_inputs: u64,
    /// Input nodes whose features the pruned batch still needs.
    pub needed_inputs: u64,
    /// Simulated transfer seconds the load charged.
    pub transfer_s: f64,
    /// Transfer operations the load issued.
    pub transfers: u64,
}

/// One replica epoch, in the units `Trainer`'s `EpochStats` reports.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaEpoch {
    /// Mean mini-batch loss, accumulated as the pipeline engine does.
    pub loss: f64,
    /// Wire bytes of the epoch's ledger delta.
    pub wire_bytes: u64,
    /// Host wall seconds.
    pub wall_s: f64,
}

/// The replica's state: the same fields `Trainer` keeps.
pub struct Replica<'d> {
    ds: &'d Dataset,
    spec: TrainSpec,
    model: Model,
    cache: HistoricalCache,
    policy: Box<dyn CachePolicy>,
    static_cache: StaticFeatureCache,
    sampler: NeighborSampler,
    dims: Vec<usize>,
    iter: u32,
    rng: Rng,
    opt: Adam,
    machine: Machine,
    counters: TrafficCounters,
    /// Spans of every step so far.
    pub rec: Recorder,
    /// Next step id.
    pub step: u64,
    /// Fixed wall time added inside the benchmark's `loader` wrapper (the
    /// attribution self-test); zero in measured runs.
    pub loader_delay: Duration,
    /// Per-step boundary counts, indexed by step id.
    pub probes: Vec<StepProbe>,
    /// Work-stealing steals of the async sampler, summed over epochs.
    pub steals: u64,
    /// Sampler task retries, summed over epochs.
    pub retries: u64,
    /// The last pruned mini-batch (its shapes drive the kernel replay).
    pub last_batch: Option<MiniBatch>,
}

impl<'d> Replica<'d> {
    /// Mirror `Trainer::new(ds, arch, hidden, Machine::single_a100(), cfg,
    /// seed)` plus the workload's `Adam`.
    pub fn new(ds: &'d Dataset, spec: TrainSpec, seed: u64) -> Self {
        let cfg = &spec.cfg;
        let mut rng = Rng::new(seed);
        let mut dims = vec![ds.spec.feature_dim];
        dims.extend(std::iter::repeat_n(spec.hidden, cfg.num_layers() - 1));
        dims.push(ds.spec.num_classes);
        assert!(
            dims.len() - 1 <= FWD.len(),
            "replica traces at most 3 layers"
        );
        let model = Model::new(spec.arch, &dims, &mut rng);
        let policy = cfg.build_policy();
        let mut cache = HistoricalCache::new(
            ds.num_nodes(),
            &dims[1..],
            cfg.t_stale,
            cfg.cache_capacity,
            cfg.cache_top_layer,
            cfg.cache_enabled(),
        );
        if policy.wants_history() {
            cache.enable_history();
        }
        let static_cache = if cfg.feature_cache_rows > 0 {
            StaticFeatureCache::by_degree(&ds.graph, cfg.feature_cache_rows)
        } else {
            StaticFeatureCache::disabled(ds.num_nodes())
        };
        Replica {
            ds,
            opt: Adam::new(spec.lr),
            spec,
            model,
            cache,
            policy,
            static_cache,
            sampler: NeighborSampler::new(ds.num_nodes()),
            dims,
            iter: 0,
            rng,
            machine: Machine::single_a100(),
            counters: TrafficCounters::new(),
            rec: Recorder::default(),
            step: 0,
            loader_delay: Duration::ZERO,
            probes: Vec::new(),
            steals: 0,
            retries: 0,
            last_batch: None,
        }
    }

    /// Layer dimensions `[in, hidden.., out]`.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Cache statistics so far.
    pub fn cache_stats(&self) -> freshgnn::cache::CacheStats {
        self.cache.stats()
    }

    /// One epoch: shuffle, split, and run every batch.
    pub fn epoch(&mut self) -> Result<ReplicaEpoch, SampleError> {
        let t0 = Instant::now();
        let ds = self.ds;
        let batches = {
            let mut shuffle_rng = self.rng.fork();
            split_batches(
                &ds.train_nodes,
                self.spec.cfg.batch_size,
                Some(&mut shuffle_rng),
            )
        };
        let before = self.counters.clone();
        let topo = self.machine.topology.clone();
        let mut engine = TransferEngine::new(&topo);
        let mut total_loss = 0.0f64;
        let mut count = 0usize;
        let result = match self.spec.async_workers {
            None => {
                let loader = self.loader();
                for seeds in &batches {
                    self.rec.set_step(self.step);
                    let root = self.rec.begin("step");
                    let sp = self.rec.begin("graph.sample");
                    let mut sample_rng = self.rng.fork();
                    let fanouts = &self.spec.cfg.fanouts;
                    let mb = self
                        .sampler
                        .sample(&ds.graph, seeds, fanouts, &mut sample_rng);
                    self.rec.end(sp);
                    total_loss += self.train_sampled(mb, &loader, &mut engine) as f64;
                    self.rec.end(root);
                    count += 1;
                    self.step += 1;
                }
                self.static_cache = loader.into_static_cache();
                Ok(())
            }
            Some(workers) => {
                let batch_seed = self.rng.fork().next_u64();
                let runtime_cfg = RuntimeConfig {
                    workers: workers.max(1),
                    queue_capacity: ASYNC_QUEUE,
                    max_retries: self.spec.cfg.sampler_retries,
                    chaos: None,
                    ..RuntimeConfig::default()
                };
                let mut stream = AsyncSampler::spawn_with_config(
                    Arc::new(ds.graph.clone()),
                    batches,
                    self.spec.cfg.fanouts.clone(),
                    &runtime_cfg,
                    batch_seed,
                    None,
                );
                let loader = self.loader();
                let result = loop {
                    self.rec.set_step(self.step);
                    let sp = self.rec.begin("runtime.wait");
                    let item = stream.next();
                    self.rec.end(sp);
                    match item {
                        None => break Ok(()),
                        Some(Err(e)) => break Err(e),
                        Some(Ok(mb)) => {
                            let root = self.rec.begin("step");
                            total_loss += self.train_sampled(mb, &loader, &mut engine) as f64;
                            self.rec.end(root);
                            count += 1;
                            self.step += 1;
                        }
                    }
                };
                self.static_cache = loader.into_static_cache();
                let report = stream.obs_report();
                self.steals += report.steals;
                self.retries += report.resample_retries;
                result
            }
        };
        result?;
        let mut delta = self.counters.clone();
        delta.subtract(&before);
        Ok(ReplicaEpoch {
            loss: total_loss / count.max(1) as f64,
            wire_bytes: delta.wire_bytes(),
            wall_s: t0.elapsed().as_secs_f64(),
        })
    }

    /// Lend the static feature cache to an epoch's loader.
    fn loader(&mut self) -> FeatureLoader<'d> {
        let ds = self.ds;
        FeatureLoader::new(
            &ds.features,
            ds.spec.feature_row_bytes(),
            std::mem::replace(&mut self.static_cache, StaticFeatureCache::disabled(0)),
            self.spec.cfg.load_mode,
        )
    }

    /// Steps 2–7 of Algorithm 1 on a sampled batch; returns its loss.
    fn train_sampled(
        &mut self,
        mut mb: MiniBatch,
        loader: &FeatureLoader,
        engine: &mut TransferEngine,
    ) -> f32 {
        let ds = self.ds;
        let cfg = &self.spec.cfg;
        let now = self.iter;
        let mut probe = StepProbe {
            sampled_edges: mb.total_edges() as u64,
            sampled_inputs: mb.input_nodes().len() as u64,
            ..StepProbe::default()
        };
        self.cache.set_bypass(false);

        let sp = self.rec.begin("prune");
        let outcome = prune_with_cache_policy(&mut mb, &mut self.cache, now, &*self.policy);
        self.rec.end(sp);

        let (t_before, n_before) = (self.counters.transfer_seconds, self.counters.num_transfers);
        let sp = self.rec.begin("loader");
        if !self.loader_delay.is_zero() {
            std::thread::sleep(self.loader_delay);
        }
        let h0 = loader.load(
            mb.input_nodes(),
            Some(&outcome.needed_input),
            engine,
            Node::Host,
            Node::Gpu(0),
            &mut self.counters,
        );
        let skipped = (mb.input_nodes().len() - outcome.num_inputs_needed()) as u64;
        self.counters.cache_hit_bytes += skipped * ds.spec.feature_row_bytes() as u64;
        self.rec.end(sp);
        probe.needed_inputs = outcome.num_inputs_needed() as u64;
        probe.transfer_s = self.counters.transfer_seconds - t_before;
        probe.transfers = self.counters.num_transfers - n_before;

        // Forward, layer by layer, overriding cache-read rows in between.
        let num_levels = self.dims.len() - 1;
        let mut h = Vec::with_capacity(num_levels + 1);
        let mut ctx = Vec::with_capacity(num_levels);
        h.push(h0);
        for (l, layer) in self.model.layers.iter().enumerate() {
            let sp = self.rec.begin(FWD[l]);
            let (mut out, c) = layer.forward(&mb.blocks[l], &h[l]);
            self.rec.end(sp);
            if l < outcome.cached.len() {
                let sp = self.rec.begin("cache.read");
                for &(local, slot) in &outcome.cached[l] {
                    self.cache.read_into(
                        l + 1,
                        slot,
                        now,
                        &*self.policy,
                        out.row_mut(local as usize),
                    );
                }
                self.rec.end(sp);
            }
            h.push(out);
            ctx.push(c);
        }

        let sp = self.rec.begin("nn.loss");
        let logits = h.last().expect("at least one layer");
        let labels: Vec<u16> = mb.seeds.iter().map(|&s| ds.labels[s as usize]).collect();
        let (loss, d_top) = softmax_cross_entropy(logits, &labels);
        self.model.zero_grad();
        self.rec.end(sp);

        // Backward with the trainer's hook: harvest per-node gradient norms
        // for the policy, then detach cache-read rows.
        let mut policy_inputs: Vec<Vec<PolicyInput>> = vec![Vec::new(); num_levels + 1];
        let mut d = d_top;
        for l in (0..num_levels).rev() {
            let level = l + 1;
            if cfg.cache_enabled() && (level != num_levels || cfg.cache_top_layer) {
                let sp = self.rec.begin("cache.update");
                let block = &mb.blocks[l];
                let mut is_cached = vec![false; block.num_dst()];
                for &(local, _) in &outcome.cached[l] {
                    is_cached[local as usize] = true;
                }
                for (v, &was_cached) in is_cached.iter().enumerate() {
                    if !(outcome.computed[l][v] || was_cached) {
                        continue;
                    }
                    let norm = d.row(v).iter().map(|&x| x * x).sum::<f32>().sqrt();
                    policy_inputs[level].push(PolicyInput {
                        node: block.dst_global[v],
                        local: v as u32,
                        grad_norm: norm,
                        was_cached,
                    });
                }
                for &(local, _) in &outcome.cached[l] {
                    d.row_mut(local as usize).iter_mut().for_each(|x| *x = 0.0);
                }
                self.rec.end(sp);
            }
            let sp = self.rec.begin(BWD[l]);
            d = self.model.layers[l].backward(&mb.blocks[l], &ctx[l], &h[l], &d);
            self.rec.end(sp);
        }

        // Cache update; the fork is unconditional, as in the trainer.
        let sp = self.rec.begin("cache.update");
        let mut policy_rng = self.rng.fork();
        for level in 1..=num_levels {
            if policy_inputs[level].is_empty() {
                continue;
            }
            let verdicts = self
                .policy
                .verdicts(&policy_inputs[level], cfg.p_grad, &mut policy_rng);
            self.cache.apply_verdicts(level, &verdicts, &h[level], now);
        }
        self.rec.end(sp);

        let sp = self.rec.begin("nn.optim");
        let mut params = self.model.params_mut();
        self.opt.step(&mut params);
        self.rec.end(sp);

        // Modelled GPU compute, charged after the optimizer step as the
        // trainer does (f64 accumulation order matters for bit-equality).
        let flops = batch_flops(&mb, &outcome, &self.dims, self.model.arch);
        self.counters.compute_seconds += self.machine.gpu.compute_seconds(flops);
        self.cache.set_bypass(false);
        self.iter += 1;
        self.probes.push(probe);
        self.last_batch = Some(mb);
        loss
    }
}
