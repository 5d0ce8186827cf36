//! The staged training pipeline engine.
//!
//! Algorithm 1 is one iteration shape — **sample → prune → load → forward
//! → backward → cache-update → optimizer-step** — and every training loop
//! in this crate (the FreshGNN [`crate::Trainer`], the hetero trainer, the
//! GAS/ClusterGCN/sampling baselines, and the multi-GPU profiles built on
//! top of them) is an instance of it with some stages specialized or
//! absent. This module is the single implementation of that shape:
//!
//! * [`Engine::run_epoch`] owns the epoch skeleton every trainer used to
//!   duplicate: build the [`TransferEngine`] from the trainer's optional
//!   [`FaultPlan`](fgnn_memsim::fault::FaultPlan) (threading the plan's
//!   RNG stream back out afterwards so a run is one deterministic fault
//!   schedule), drive the unit stream,
//!   accumulate losses in the exact `total += loss as f64` order, and
//!   assemble the [`EpochStats`] — counter delta, per-stage
//!   [`StageTimings`], mean loss.
//! * [`PipelineCtx`] is handed to the per-batch step function; its
//!   [`PipelineCtx::stage`] scopes are how trainers declare *which* stage
//!   the enclosed work belongs to. A scope snapshots the traffic ledger,
//!   runs the stage body (with access to the epoch's transfer engine),
//!   and attributes the ledger delta plus the measured wall time to the
//!   [`StageKind`]. `Sample` and `Prune` scopes additionally charge their
//!   wall time to the ledger's measured `sample_seconds` /
//!   `prune_seconds`, exactly as the hand-rolled `Instant` code did.
//!
//! Because scopes only *observe* the ledger, porting a trainer onto the
//! engine is behavior-preserving by construction: the same operations run
//! in the same order on the same RNG streams, so losses, byte counters and
//! simulated seconds are bit-for-bit identical to the pre-pipeline loops
//! (`tests/pipeline_equivalence.rs` pins this against captured goldens).
//! Stage scopes need not be contiguous: a trainer that charges its
//! simulated compute time after the optimizer step (the seed ordering,
//! which f64 accumulation order makes significant) simply opens a second
//! `Backward` scope there.

pub mod eval;

pub use eval::EvalHarness;

use crate::obs::{MetricClass, Obs};
use crate::runtime::{OrderedCommit, Pool, RuntimeConfig, RuntimeObsReport, TaskError};
use fgnn_memsim::fault::FaultState;
use fgnn_memsim::stage::{StageKind, StageTimings, NUM_STAGES};
use fgnn_memsim::topology::Topology;
use fgnn_memsim::{TrafficCounters, TransferEngine};
use std::time::Instant;

/// Statistics of one training epoch, produced by [`Engine::run_epoch`].
#[derive(Clone, Debug)]
pub struct EpochStats {
    /// Mean mini-batch loss.
    pub mean_loss: f64,
    /// Number of mini-batches that contributed a loss.
    pub batches: usize,
    /// Traffic/time ledger accumulated during this epoch.
    pub counters: TrafficCounters,
    /// Per-stage attribution of `counters` plus measured stage wall time.
    pub timings: StageTimings,
    /// Destination nodes served from the cache this epoch.
    pub cache_reads: u64,
    /// Destination nodes computed fresh this epoch.
    pub computed_nodes: u64,
    /// Whether this epoch started from a degraded resume (the checkpoint's
    /// historical-cache segment was missing or corrupt, so the cache began
    /// the epoch cold).
    pub cache_degraded: bool,
    /// Batches that ran in degraded mode (circuit breaker open, ring cache
    /// bypassed, raw features fetched).
    pub degraded_batches: u64,
}

/// What one pipeline iteration produced, reported back to the engine.
#[derive(Clone, Copy, Debug)]
pub struct BatchOutput {
    /// Mini-batch loss.
    pub loss: f32,
    /// Destination nodes served from the cache.
    pub cache_reads: u64,
    /// Destination nodes computed fresh.
    pub computed_nodes: u64,
    /// Whether this batch ran in degraded mode (breaker open, cache
    /// bypassed).
    pub degraded: bool,
}

impl BatchOutput {
    /// A batch that only has a loss to report (cache-less trainers).
    pub fn loss_only(loss: f32) -> Self {
        BatchOutput {
            loss,
            cache_reads: 0,
            computed_nodes: 0,
            degraded: false,
        }
    }

    /// Mark this batch as having run in degraded mode.
    pub fn with_degraded(mut self, degraded: bool) -> Self {
        self.degraded = degraded;
        self
    }
}

/// How the engine accounts the time spent pulling the next unit from the
/// stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallPolicy {
    /// The stream is an in-memory schedule; pulling is free (synchronous
    /// trainers, which time their `Sample` stage inside the step).
    Free,
    /// The stream is fed by the asynchronous sampler; time the consumer
    /// spends *stalled* waiting on the queue is charged as `Sample` time
    /// (§5: with enough workers, sampling fully overlaps training).
    ChargeSample,
}

/// Per-epoch pipeline context handed to the step function: the transfer
/// engine (with this epoch's fault plan armed), the per-stage ledger, and
/// the trainer's observability state (taken for the epoch, restored when
/// the epoch ends).
pub struct PipelineCtx<'t> {
    transfer: TransferEngine<'t>,
    timings: StageTimings,
    obs: Obs,
    /// Exact sim-clock nanoseconds advanced inside each stage's scopes —
    /// by construction these sum to the epoch span's duration.
    stage_exact_ns: [u64; NUM_STAGES],
}

impl<'t> PipelineCtx<'t> {
    /// Run one pipeline stage: `body` gets the epoch's transfer engine and
    /// the trainer's traffic ledger; the ledger delta it causes and its
    /// wall time are attributed to `kind`. [`StageKind::Sample`] and
    /// [`StageKind::Prune`] scopes also charge their wall time to the
    /// ledger's measured `sample_seconds` / `prune_seconds` fields.
    ///
    /// Each scope also emits a stage [`crate::obs::Span`]: the sim clock
    /// advances by the scope's *exact* ledger delta (transfer + retry +
    /// compute seconds — never the measured sample/prune wall time), so
    /// span timestamps are bit-reproducible across runs.
    pub fn stage<R>(
        &mut self,
        kind: StageKind,
        counters: &mut TrafficCounters,
        body: impl FnOnce(&mut TransferEngine<'t>, &mut TrafficCounters) -> R,
    ) -> R {
        let before = counters.clone();
        let t0 = Instant::now();
        let out = body(&mut self.transfer, counters);
        let wall = t0.elapsed().as_secs_f64();
        match kind {
            StageKind::Sample => counters.sample_seconds += wall,
            StageKind::Prune => counters.prune_seconds += wall,
            _ => {}
        }
        let mut delta = counters.clone();
        delta.subtract(&before);
        self.timings.record(kind, wall, &delta);
        self.timings.extend_span(&before, counters);
        let exact = delta.transfer_seconds + delta.retry_seconds + delta.compute_seconds;
        self.obs
            .tracer
            .begin(kind.name(), "stage", self.obs.clock.now_ns());
        self.stage_exact_ns[kind.index()] += self.obs.clock.advance_secs(exact);
        self.obs.tracer.end_with(
            self.obs.clock.now_ns(),
            vec![("wire_bytes", delta.wire_bytes())],
        );
        out
    }

    /// Whether the epoch's transfer engine has an open circuit breaker.
    /// Trainers consult this at the top of each batch to decide whether to
    /// run the batch in degraded mode (bypass the ring cache, fetch raw
    /// features).
    pub fn breaker_open(&self) -> bool {
        self.transfer.breaker_open()
    }
}

/// The trainer-owned state [`Engine::run_epoch`] drives besides the stage
/// set: the topology transfers route over, the fault plan, the traffic
/// ledger and the observability state. Trainers split it off next to their
/// stage set.
pub(crate) struct EngineState<'a> {
    pub topo: &'a Topology,
    pub faults: &'a mut FaultState,
    pub counters: &'a mut TrafficCounters,
    pub obs: &'a mut Obs,
}

/// The epoch driver shared by every trainer.
pub struct Engine;

impl Engine {
    /// Run one epoch: pull units (mini-batch seeds, sampled batches,
    /// cluster indices, …) from `units` and run `step` on each inside a
    /// [`PipelineCtx`].
    ///
    /// * `faults` lends its plan and breaker to the epoch's
    ///   [`TransferEngine`]; both are restored (the plan with its advanced
    ///   RNG stream, the breaker with its trip state) before returning —
    ///   even on error — so fault schedules and breaker behavior stay
    ///   deterministic across epochs.
    /// * A `step` returning `None` contributes neither loss nor count
    ///   (e.g. a cluster without training nodes).
    /// * A unit yielding `Err` aborts the epoch and returns the error;
    ///   progress already made (parameter updates, counters, cache
    ///   admissions) is kept, mirroring the async sampler contract.
    ///
    /// The returned [`EpochStats`] carries the epoch's counter delta and
    /// [`StageTimings`]; `cache_degraded` is left `false` for the caller
    /// to fill in.
    ///
    /// `obs` is taken for the duration of the epoch and restored — with
    /// the epoch/batch/stage span tree appended and the per-stage and
    /// per-link metrics flushed — before returning, even on error.
    #[allow(clippy::too_many_arguments)]
    pub fn run_epoch<'t, U, E>(
        topo: &'t Topology,
        faults: &mut FaultState,
        counters: &mut TrafficCounters,
        obs: &mut Obs,
        stall_policy: StallPolicy,
        mut units: impl Iterator<Item = Result<U, E>>,
        mut step: impl FnMut(&mut PipelineCtx<'t>, &mut TrafficCounters, U) -> Option<BatchOutput>,
    ) -> Result<EpochStats, E> {
        let before = counters.clone();
        let mut transfer = match faults.plan.take() {
            Some(plan) => TransferEngine::with_faults(topo, plan, faults.policy),
            None => TransferEngine::new(topo),
        };
        transfer.set_breaker(faults.breaker.take());
        let mut ctx = PipelineCtx {
            transfer,
            timings: StageTimings::new(),
            obs: std::mem::take(obs),
            stage_exact_ns: [0; NUM_STAGES],
        };
        ctx.obs
            .tracer
            .begin("epoch", "pipeline", ctx.obs.clock.now_ns());

        let mut total_loss = 0.0f64;
        let mut batches = 0usize;
        let mut cache_reads = 0u64;
        let mut computed_nodes = 0u64;
        let mut degraded_batches = 0u64;
        let mut failure: Option<E> = None;
        loop {
            let t0 = Instant::now();
            let Some(item) = units.next() else { break };
            if stall_policy == StallPolicy::ChargeSample {
                // Only the consumer's queue stall counts as sampling time.
                let stall = t0.elapsed().as_secs_f64();
                let stall_before = counters.clone();
                counters.sample_seconds += stall;
                let mut delta = counters.clone();
                delta.subtract(&stall_before);
                ctx.timings.record(StageKind::Sample, stall, &delta);
                ctx.timings.extend_span(&stall_before, counters);
                // Measured time never advances the sim clock: the stall
                // leaves a zero-duration sample span under the epoch.
                let now = ctx.obs.clock.now_ns();
                ctx.obs.tracer.begin(StageKind::Sample.name(), "stage", now);
                ctx.obs.tracer.end(now);
            }
            match item {
                Ok(unit) => {
                    ctx.obs
                        .tracer
                        .begin("batch", "pipeline", ctx.obs.clock.now_ns());
                    let out = step(&mut ctx, counters, unit);
                    let now = ctx.obs.clock.now_ns();
                    match out {
                        Some(out) => {
                            ctx.obs.tracer.end_with(
                                now,
                                vec![
                                    ("cache_reads", out.cache_reads),
                                    ("computed_nodes", out.computed_nodes),
                                ],
                            );
                            total_loss += out.loss as f64;
                            batches += 1;
                            cache_reads += out.cache_reads;
                            computed_nodes += out.computed_nodes;
                            degraded_batches += out.degraded as u64;
                        }
                        None => ctx.obs.tracer.end(now),
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        // Thread the fault plan (and its advanced RNG) and the breaker
        // (and its trip state) back out before any return — an errored
        // epoch must leave the trainer usable.
        faults.plan = ctx.transfer.take_fault_plan();
        faults.breaker = ctx.transfer.take_breaker();

        // Close the epoch span and flush epoch-level metrics, even for an
        // errored epoch: the telemetry reflects the work actually done.
        ctx.obs
            .tracer
            .end_with(ctx.obs.clock.now_ns(), vec![("batches", batches as u64)]);
        let m = &mut ctx.obs.metrics;
        m.counter_add("pipeline.epochs", MetricClass::Exact, 1);
        m.counter_add("pipeline.batches", MetricClass::Exact, batches as u64);
        if degraded_batches > 0 {
            m.counter_add(
                "pipeline.degraded_batches",
                MetricClass::Exact,
                degraded_batches,
            );
        }
        // Breaker telemetry is Exact: trips and fast-fails are a pure
        // function of the fault seed. Flushed only when a breaker is armed
        // so fault-free metric streams are untouched.
        if let Some(b) = &faults.breaker {
            m.counter_set("transfer.breaker.trips", MetricClass::Exact, b.trips);
            m.counter_set(
                "transfer.breaker.fast_fails",
                MetricClass::Exact,
                b.fast_fails,
            );
            m.gauge_set(
                "transfer.breaker.state",
                MetricClass::Exact,
                b.state().code() as f64,
            );
        }
        for kind in StageKind::ALL {
            let name = kind.name();
            let exact_ns = ctx.stage_exact_ns[kind.index()];
            if exact_ns > 0 {
                m.counter_add(
                    &format!("pipeline.stage.{name}.sim_ns"),
                    MetricClass::Exact,
                    exact_ns,
                );
            }
            let wire = ctx.timings.wire_bytes(kind);
            if wire > 0 {
                m.counter_add(
                    &format!("pipeline.stage.{name}.wire_bytes"),
                    MetricClass::Exact,
                    wire,
                );
            }
            let wall = ctx.timings.measured_seconds(kind);
            if wall > 0.0 {
                m.counter_add(
                    &format!("pipeline.stage.{name}.measured_ns"),
                    MetricClass::Measured,
                    (wall * 1e9).round() as u64,
                );
            }
        }
        for (l, &bytes) in ctx.transfer.link_bytes.iter().enumerate() {
            if bytes > 0 {
                m.counter_add(
                    &format!("transfer.link.{l}.bytes"),
                    MetricClass::Exact,
                    bytes,
                );
            }
        }
        for (l, &retries) in ctx.transfer.link_retries.iter().enumerate() {
            if retries > 0 {
                m.counter_add(
                    &format!("transfer.link.{l}.retries"),
                    MetricClass::Exact,
                    retries,
                );
            }
        }
        for (l, &busy) in ctx.transfer.link_busy.iter().enumerate() {
            if busy > 0.0 {
                m.counter_add(
                    &format!("transfer.link.{l}.busy_ns"),
                    MetricClass::Exact,
                    (busy * 1e9).round() as u64,
                );
            }
        }
        *obs = ctx.obs;
        if let Some(e) = failure {
            return Err(e);
        }

        let mut delta = counters.clone();
        delta.subtract(&before);
        Ok(EpochStats {
            mean_loss: total_loss / batches.max(1) as f64,
            batches,
            counters: delta,
            timings: ctx.timings,
            cache_reads,
            computed_nodes,
            cache_degraded: false,
            degraded_batches,
        })
    }

    /// Run one epoch with **cross-batch stage overlap**: the prestage work
    /// for every unit — whatever `produce` does: sampling, pruning,
    /// feature preparation — is scheduled on the in-tree work-stealing
    /// [`Pool`] while this thread trains, so prestage for *future* batches
    /// runs while the current batch is in its GPU stages. Results flow
    /// through an [`OrderedCommit`] reorder buffer and are consumed
    /// strictly in index order under [`StallPolicy::ChargeSample`], so the
    /// committed unit stream — and with it every loss, `Exact` counter and
    /// span — is byte-identical at any worker count and under any steal
    /// schedule.
    ///
    /// The determinism contract is the caller's to uphold inside
    /// `produce`: derive all randomness from the task index alone (fork a
    /// fresh RNG from `(seed, index)`), never from worker identity or
    /// shared mutable state. `init` builds per-worker scratch, rebuilt
    /// after a panic; a unit that panics on every attempt surfaces as
    /// `E::from(TaskError::Panicked)`, dead workers as
    /// `E::from(TaskError::Lost)` — either aborts the epoch through the
    /// normal [`Engine::run_epoch`] error path, keeping progress made.
    ///
    /// Scheduler telemetry (steals, parks, task latency, reorder-buffer
    /// depth) is flushed into `obs` under `runtime.*` — `Measured`, never
    /// `Exact`, because it genuinely varies run to run.
    #[allow(clippy::too_many_arguments)]
    pub fn run_epoch_overlapped<'t, T, S, P, E>(
        topo: &'t Topology,
        faults: &mut FaultState,
        counters: &mut TrafficCounters,
        obs: &mut Obs,
        cfg: &RuntimeConfig,
        tasks: Vec<T>,
        init: impl Fn() -> S + Send + Sync + 'static,
        produce: impl Fn(&mut S, usize, &T, u32) -> P + Send + Sync + 'static,
        step: impl FnMut(&mut PipelineCtx<'t>, &mut TrafficCounters, P) -> Option<BatchOutput>,
    ) -> Result<EpochStats, E>
    where
        T: Send + Sync + 'static,
        P: Send + 'static,
        E: From<TaskError>,
    {
        let pool: Pool<P> = Pool::spawn(cfg, tasks, init, produce);
        let mut ordered: OrderedCommit<Result<P, TaskError>> = OrderedCommit::new(pool.total());
        let units = std::iter::from_fn(|| loop {
            if let Some((_, r)) = ordered.try_commit() {
                return Some(r.map_err(E::from));
            }
            if ordered.is_done() {
                return None;
            }
            match pool.recv() {
                Ok((i, r)) => ordered.offer(i, r),
                Err(_) => {
                    // Workers died with results outstanding; abort the
                    // stream so the epoch errors instead of hanging.
                    let lost = TaskError::Lost {
                        produced: ordered.committed(),
                        total: ordered.total(),
                    };
                    ordered.abort();
                    return Some(Err(E::from(lost)));
                }
            }
        });
        let result = Engine::run_epoch(
            topo,
            faults,
            counters,
            obs,
            StallPolicy::ChargeSample,
            units,
            step,
        );
        Self::flush_runtime_obs(obs, &pool.obs_report(), ordered.queue_depth());
        result
    }

    /// Flush one pool run's scheduling counters into the metrics registry
    /// under `runtime.*`. Retries are `Exact` (a panic is a property of
    /// the task, not the schedule — the same contract
    /// `sampler.resample_retries` already exports under); everything else
    /// is a genuine schedule artifact and stays `Measured`.
    fn flush_runtime_obs(obs: &mut Obs, r: &RuntimeObsReport, depth: &crate::obs::Histogram) {
        let m = &mut obs.metrics;
        m.counter_add("runtime.retries", MetricClass::Exact, r.retries);
        m.counter_add("runtime.steals", MetricClass::Measured, r.steals);
        m.counter_add(
            "runtime.stolen_tasks",
            MetricClass::Measured,
            r.stolen_tasks,
        );
        m.counter_add("runtime.parks", MetricClass::Measured, r.parks);
        for (w, (&t, &n)) in r.worker_tasks.iter().zip(&r.worker_task_nanos).enumerate() {
            m.counter_add(
                &format!("runtime.worker.{w}.tasks"),
                MetricClass::Measured,
                t,
            );
            m.counter_add(
                &format!("runtime.worker.{w}.task_ns"),
                MetricClass::Measured,
                n,
            );
        }
        let mut task_secs = m
            .histogram("runtime.task_seconds")
            .cloned()
            .unwrap_or_default();
        task_secs.merge(&r.task_seconds);
        m.hist_set("runtime.task_seconds", MetricClass::Measured, task_secs);
        let mut commit_depth = m
            .histogram("runtime.commit_depth")
            .cloned()
            .unwrap_or_default();
        commit_depth.merge(depth);
        m.hist_set("runtime.commit_depth", MetricClass::Measured, commit_depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_memsim::fault::FaultPlan;
    use fgnn_memsim::topology::Node;
    use std::convert::Infallible;

    fn topo() -> Topology {
        Topology::pcie_tree(1, 1, 16e9)
    }

    #[test]
    fn stage_scopes_attribute_ledger_deltas() {
        let topo = topo();
        let mut counters = TrafficCounters::new();
        let mut faults = FaultState::none();
        let stats = Engine::run_epoch(
            &topo,
            &mut faults,
            &mut counters,
            &mut Obs::new(),
            StallPolicy::Free,
            (0..3).map(Ok::<u64, Infallible>),
            |ctx, counters, bytes_k| {
                ctx.stage(StageKind::Load, counters, |eng, c| {
                    eng.one_sided_read(Node::Host, Node::Gpu(0), 1000 * (bytes_k + 1), c);
                });
                ctx.stage(StageKind::Backward, counters, |_, c| {
                    c.compute_seconds += 0.5;
                });
                Some(BatchOutput::loss_only(1.0))
            },
        )
        .unwrap();
        assert_eq!(stats.batches, 3);
        assert!((stats.mean_loss - 1.0).abs() < 1e-12);
        assert_eq!(stats.timings.wire_bytes(StageKind::Load), 6000);
        assert_eq!(stats.counters.host_to_gpu_bytes, 6000);
        assert_eq!(
            stats.timings.stage(StageKind::Backward).compute_seconds,
            1.5
        );
        // Attribution is complete: per-stage ledgers merge back to the
        // epoch delta exactly.
        assert_eq!(
            stats.timings.sim_seconds_total().to_bits(),
            stats.counters.sim_seconds().to_bits()
        );
    }

    #[test]
    fn none_outputs_are_skipped_in_the_mean() {
        let topo = topo();
        let mut counters = TrafficCounters::new();
        let mut faults = FaultState::none();
        let stats = Engine::run_epoch(
            &topo,
            &mut faults,
            &mut counters,
            &mut Obs::new(),
            StallPolicy::Free,
            (0..4).map(Ok::<usize, Infallible>),
            |_, _, i| (i % 2 == 0).then(|| BatchOutput::loss_only(2.0)),
        )
        .unwrap();
        assert_eq!(stats.batches, 2);
        assert!((stats.mean_loss - 2.0).abs() < 1e-12);
    }

    #[test]
    fn unit_error_aborts_and_surfaces() {
        let topo = topo();
        let mut counters = TrafficCounters::new();
        let mut faults = FaultState::none();
        let mut steps = 0;
        let err = Engine::run_epoch(
            &topo,
            &mut faults,
            &mut counters,
            &mut Obs::new(),
            StallPolicy::Free,
            vec![Ok(1), Err("boom"), Ok(2)].into_iter(),
            |_, _, _| {
                steps += 1;
                Some(BatchOutput::loss_only(0.0))
            },
        )
        .unwrap_err();
        assert_eq!(err, "boom");
        assert_eq!(steps, 1, "units after the failure must not run");
    }

    #[test]
    fn fault_plan_is_threaded_back_out() {
        let topo = topo();
        let mut counters = TrafficCounters::new();
        let mut faults = FaultState::none();
        faults.inject(
            FaultPlan::new(7).with_fail_prob(0.5),
            fgnn_memsim::RetryPolicy::default(),
        );
        let _ = Engine::run_epoch(
            &topo,
            &mut faults,
            &mut counters,
            &mut Obs::new(),
            StallPolicy::Free,
            (0..2).map(Ok::<u64, Infallible>),
            |ctx, counters, _| {
                ctx.stage(StageKind::Load, counters, |eng, c| {
                    eng.one_sided_read(Node::Host, Node::Gpu(0), 4096, c);
                });
                Some(BatchOutput::loss_only(0.0))
            },
        )
        .unwrap();
        assert!(faults.plan.is_some(), "plan must survive the epoch");
    }

    #[test]
    fn overlapped_epoch_is_invariant_across_worker_counts() {
        let topo = topo();
        let run = |workers: usize| {
            let mut counters = TrafficCounters::new();
            let mut faults = FaultState::none();
            let cfg = RuntimeConfig {
                workers,
                queue_capacity: 4,
                ..RuntimeConfig::default()
            };
            Engine::run_epoch_overlapped::<u64, (), u64, TaskError>(
                &topo,
                &mut faults,
                &mut counters,
                &mut Obs::new(),
                &cfg,
                (0..16u64).collect(),
                || (),
                |_, i, t, _| t * 10 + i as u64, // index-derived, worker-free
                |ctx, counters, unit| {
                    ctx.stage(StageKind::Load, counters, |eng, c| {
                        eng.one_sided_read(Node::Host, Node::Gpu(0), 64 * (unit + 1), c);
                    });
                    Some(BatchOutput::loss_only(unit as f32))
                },
            )
            .unwrap()
        };
        let reference = run(1);
        for workers in [2, 4, 8] {
            let stats = run(workers);
            assert_eq!(
                stats.mean_loss.to_bits(),
                reference.mean_loss.to_bits(),
                "workers={workers}"
            );
            assert_eq!(stats.batches, reference.batches);
            assert_eq!(
                stats.counters.host_to_gpu_bytes,
                reference.counters.host_to_gpu_bytes
            );
            assert_eq!(
                stats.counters.transfer_seconds.to_bits(),
                reference.counters.transfer_seconds.to_bits()
            );
        }
    }

    #[test]
    fn overlapped_epoch_surfaces_persistent_prestage_panics() {
        let topo = topo();
        let mut counters = TrafficCounters::new();
        let mut faults = FaultState::none();
        let cfg = RuntimeConfig {
            workers: 2,
            max_retries: 1,
            ..RuntimeConfig::default()
        };
        let mut stepped = 0usize;
        let err = Engine::run_epoch_overlapped::<(), (), usize, TaskError>(
            &topo,
            &mut faults,
            &mut counters,
            &mut Obs::new(),
            &cfg,
            vec![(); 6],
            || (),
            |_, i, _, _| {
                if i == 3 {
                    panic!("poisoned unit");
                }
                i
            },
            |_, _, _| {
                stepped += 1;
                Some(BatchOutput::loss_only(0.0))
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            TaskError::Panicked {
                index: 3,
                attempts: 2
            }
        );
        assert_eq!(stepped, 3, "units before the failure trained; none after");
    }
}
