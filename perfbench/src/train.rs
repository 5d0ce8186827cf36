//! `sage-fresh` and `gcn-ns`: closed-loop training through `Trainer`.
//!
//! One client: each epoch starts when the previous one ends. Set-up
//! (materialization, construction and the untimed warm-up epochs) is
//! repeated and its median reported; the timed window is a fixed number
//! of epochs derived from `--seconds`. The traced run then drives the
//! [`Replica`] over the same epochs, checks it bit for bit against the
//! trainer, and attributes host time to layers.

use crate::catalog::Values;
use crate::kernels;
use crate::replica::{Replica, StepProbe};
use crate::report::Outcome;
use crate::spans::{per_step_self_ms, to_jsonl};
use crate::stats::{median, percentile};
use crate::workloads::{materialize, Seeds, TrainSpec, Workload, ASYNC_QUEUE};
use fgnn_graph::Dataset;
use fgnn_memsim::presets::Machine;
use fgnn_nn::Adam;
use freshgnn::sampler::SampleError;
use freshgnn::Trainer;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// `sage-fresh` must reach this multiple of chance accuracy.
const MIN_ACC_OVER_CHANCE: f64 = 10.0;

/// One epoch as the trainer reports it.
#[derive(Clone, Copy, Debug)]
struct EpochRecord {
    loss: f64,
    wire_bytes: u64,
    /// Exact simulated stream: transfer + retry + NIC + modelled compute.
    sim_s: f64,
    wall_s: f64,
    batches: usize,
}

fn trainer_epoch(
    tr: &mut Trainer,
    ds: &Dataset,
    opt: &mut Adam,
    spec: &TrainSpec,
) -> Result<EpochRecord, SampleError> {
    let t0 = Instant::now();
    let stats = match spec.async_workers {
        None => tr.train_epoch(ds, opt),
        Some(workers) => tr.train_epoch_async(ds, opt, workers, ASYNC_QUEUE)?,
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let c = &stats.counters;
    Ok(EpochRecord {
        loss: stats.mean_loss,
        wire_bytes: c.wire_bytes(),
        sim_s: c.transfer_seconds + c.retry_seconds + c.nic_seconds + c.compute_seconds,
        wall_s,
        batches: stats.batches,
    })
}

struct Prepared {
    ds: Dataset,
    trainer: Trainer,
    opt: Adam,
    warmup: Vec<EpochRecord>,
}

fn setup(w: Workload, spec: &TrainSpec, seeds: Seeds) -> Result<Prepared, SampleError> {
    let ds = materialize(w.dataset_spec(), seeds);
    let mut trainer = Trainer::new(
        &ds,
        spec.arch,
        spec.hidden,
        Machine::single_a100(),
        spec.cfg.clone(),
        seeds.model,
    );
    let mut opt = Adam::new(spec.lr);
    let warmup = (0..spec.warmup_epochs)
        .map(|_| trainer_epoch(&mut trainer, &ds, &mut opt, spec))
        .collect::<Result<_, _>>()?;
    Ok(Prepared {
        ds,
        trainer,
        opt,
        warmup,
    })
}

/// Run a training workload. Returns the end-to-end values and, when
/// `traced`, the per-layer values.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> (Values, Values) {
    let spec = TrainSpec::of(w).expect("training workload");
    let seeds = Seeds::from(seed);
    let mut e2e = Values::new();
    let mut layers = Values::new();

    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..if traced { 1 } else { SETUP_REPEATS } {
        let t0 = Instant::now();
        match setup(w, &spec, seeds) {
            Ok(p) => prepared = Some(p),
            Err(e) => {
                out.check(false, || format!("warm-up epoch failed: {e}"));
                return (e2e, layers);
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Prepared {
        ds,
        mut trainer,
        mut opt,
        warmup,
    } = prepared.expect("at least one set-up");
    e2e.insert("setup_s", median(&setup_s));

    let spans_before = trainer.obs.tracer.spans().len();
    let mut window = Vec::new();
    for _ in 0..spec.window_epochs(seconds) {
        match trainer_epoch(&mut trainer, &ds, &mut opt, &spec) {
            Ok(r) => window.push(r),
            Err(e) => {
                let per_epoch = ds.train_nodes.len().div_ceil(spec.cfg.batch_size) as u64;
                out.attempted += per_epoch;
                out.failed += per_epoch;
                out.check(false, || format!("training epoch failed: {e}"));
                break;
            }
        }
    }
    out.attempted += window.iter().map(|r| r.batches as u64).sum::<u64>();
    let seeds_per_epoch = ds.train_nodes.len() as f64;
    let col = |f: fn(&EpochRecord) -> f64| window.iter().map(f).collect::<Vec<f64>>();
    layers.insert(
        "host.items_per_s",
        median(&col(|r| 1.0 / r.wall_s)) * seeds_per_epoch,
    );
    e2e.insert("sim_pass_s", median(&col(|r| r.sim_s)));
    e2e.insert(
        "wire_mb_per_pass",
        median(&col(|r| r.wire_bytes as f64)) / 1e6,
    );
    // Exact per-step simulated time, from the trainer's own batch spans.
    let step_sim_ms: Vec<f64> = trainer.obs.tracer.spans()[spans_before..]
        .iter()
        .filter(|s| s.name == "batch")
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect();
    e2e.insert("sim_p50_ms", percentile(&step_sim_ms, 50.0));
    e2e.insert("sim_p99_ms", percentile(&step_sim_ms, 99.0));

    let all: Vec<EpochRecord> = warmup.iter().chain(&window).copied().collect();
    out.check(all.iter().all(|r| r.loss.is_finite()), || {
        "a training loss is not finite".into()
    });
    let final_loss = window.last().map_or(f64::NAN, |r| r.loss);
    let eval_acc = if spec.eval_nodes > 0 {
        let nodes = &ds.test_nodes[..ds.test_nodes.len().min(spec.eval_nodes)];
        let acc = trainer.evaluate(&ds, nodes, spec.cfg.batch_size);
        let floor = MIN_ACC_OVER_CHANCE / ds.spec.num_classes as f64;
        out.check(acc >= floor, || {
            format!("eval accuracy {acc} is not well above chance (needs >= {floor})")
        });
        out.check(final_loss < all[0].loss, || {
            format!("loss did not fall: {} -> {final_loss}", all[0].loss)
        });
        acc
    } else {
        0.0
    };

    if traced && !window.is_empty() {
        layers.insert("quality.final_loss", final_loss);
        layers.insert("quality.eval_acc", eval_acc);
        trace_layers(w, &ds, &spec, seeds, &all, &window, out, &mut layers);
    }
    (e2e, layers)
}

/// Span names the replica records, and the metric prefix each feeds.
pub(crate) const LAYER_SPANS: [(&str, &str, &str); 14] = [
    ("graph.sample", "graph.sample_ms.p50", "graph.sample_ms.p90"),
    ("runtime.wait", "runtime.wait_ms.p50", "runtime.wait_ms.p90"),
    ("prune", "prune.ms.p50", "prune.ms.p90"),
    ("cache.read", "cache.read_ms.p50", "cache.read_ms.p90"),
    ("cache.update", "cache.update_ms.p50", "cache.update_ms.p90"),
    ("loader", "loader.ms.p50", "loader.ms.p90"),
    ("nn.l0.fwd", "nn.l0.fwd_ms.p50", "nn.l0.fwd_ms.p90"),
    ("nn.l1.fwd", "nn.l1.fwd_ms.p50", "nn.l1.fwd_ms.p90"),
    ("nn.l2.fwd", "nn.l2.fwd_ms.p50", "nn.l2.fwd_ms.p90"),
    ("nn.l0.bwd", "nn.l0.bwd_ms.p50", "nn.l0.bwd_ms.p90"),
    ("nn.l1.bwd", "nn.l1.bwd_ms.p50", "nn.l1.bwd_ms.p90"),
    ("nn.l2.bwd", "nn.l2.bwd_ms.p50", "nn.l2.bwd_ms.p90"),
    ("nn.loss", "nn.loss_ms.p50", "nn.loss_ms.p90"),
    ("nn.optim", "nn.optim_ms.p50", "nn.optim_ms.p90"),
];

/// Drive the replica over the trainer's epochs, check it reproduces them
/// bit for bit, and fill the per-layer values.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    w: Workload,
    ds: &Dataset,
    spec: &TrainSpec,
    seeds: Seeds,
    trainer_epochs: &[EpochRecord],
    trainer_window: &[EpochRecord],
    out: &mut Outcome,
    layers: &mut Values,
) {
    let mut rep = Replica::new(ds, spec.clone(), seeds.model);
    let warmup = trainer_epochs.len() - trainer_window.len();
    let mut rep_window = Vec::new();
    let mut window_first_step = 0;
    let mut stats_before = rep.cache_stats();
    let mut runtime_before = (0, 0);
    for (e, t) in trainer_epochs.iter().enumerate() {
        if e == warmup {
            window_first_step = rep.step;
            stats_before = rep.cache_stats();
            runtime_before = (rep.steals, rep.retries);
        }
        let r = match rep.epoch() {
            Ok(r) => r,
            Err(err) => {
                out.check(false, || format!("replica epoch {e} failed: {err}"));
                return;
            }
        };
        out.check(r.loss.to_bits() == t.loss.to_bits(), || {
            format!(
                "replica loss {} != trainer loss {} in epoch {e}",
                r.loss, t.loss
            )
        });
        out.check(r.wire_bytes == t.wire_bytes, || {
            format!(
                "replica wire bytes {} != trainer {} in epoch {e}",
                r.wire_bytes, t.wire_bytes
            )
        });
        if e >= warmup {
            rep_window.push(r);
        }
    }

    let spans = rep.rec.spans();
    let per = per_step_self_ms(spans);
    let window_ms = |name: &str| -> Vec<(u64, f64)> {
        per.get(name)
            .map(|steps| {
                steps
                    .range(window_first_step..)
                    .map(|(&k, &v)| (k, v))
                    .collect()
            })
            .unwrap_or_default()
    };
    for (span, p50, p90) in LAYER_SPANS {
        let samples: Vec<f64> = window_ms(span).into_iter().map(|(_, ms)| ms).collect();
        layers.insert(p50, percentile(&samples, 50.0));
        layers.insert(p90, percentile(&samples, 90.0));
    }

    let probes: &[StepProbe] = &rep.probes[window_first_step as usize..];
    let probe_median = |f: fn(&StepProbe) -> f64| median(&probes.iter().map(f).collect::<Vec<_>>());
    layers.insert(
        "graph.sampled_edges",
        probe_median(|p| p.sampled_edges as f64),
    );
    layers.insert(
        "prune.kept_input_frac",
        probe_median(|p| p.needed_inputs as f64 / p.sampled_inputs.max(1) as f64),
    );
    layers.insert("loader.rows", probe_median(|p| p.needed_inputs as f64));
    layers.insert(
        "loader.sim_transfer_ms",
        probe_median(|p| p.transfer_s * 1e3),
    );
    layers.insert("loader.transfers", probe_median(|p| p.transfers as f64));

    let epochs = trainer_window.len().max(1) as f64;
    let s = rep.cache_stats();
    let (hits, misses) = (s.hits - stats_before.hits, s.misses - stats_before.misses);
    layers.insert(
        "cache.hit_ratio",
        if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
    );
    layers.insert(
        "cache.admits",
        (s.admits - stats_before.admits) as f64 / epochs,
    );
    let evicts = |s: &freshgnn::cache::CacheStats| s.grad_evictions + s.stale_evictions;
    layers.insert(
        "cache.evicts",
        (evicts(&s) - evicts(&stats_before)) as f64 / epochs,
    );
    layers.insert(
        "runtime.steals",
        (rep.steals - runtime_before.0) as f64 / epochs,
    );
    layers.insert(
        "runtime.retries",
        (rep.retries - runtime_before.1) as f64 / epochs,
    );

    // Host time the replica's layer spans do not explain: the trainer's
    // untraced epoch wall minus the replica's summed layer self time.
    let steps_per_epoch = trainer_window[0].batches.max(1) as u64;
    let mut layer_ms_per_epoch = vec![0.0; trainer_window.len()];
    for name in per.keys().filter(|&&n| n != "step") {
        for (step, ms) in window_ms(name) {
            let epoch = ((step - window_first_step) / steps_per_epoch) as usize;
            if let Some(acc) = layer_ms_per_epoch.get_mut(epoch) {
                *acc += ms;
            }
        }
    }
    let trainer_ms = median(
        &trainer_window
            .iter()
            .map(|r| r.wall_s * 1e3)
            .collect::<Vec<_>>(),
    );
    let replica_ms = median(
        &rep_window
            .iter()
            .map(|r| r.wall_s * 1e3)
            .collect::<Vec<_>>(),
    );
    layers.insert(
        "pipeline.unattributed_ms",
        trainer_ms - median(&layer_ms_per_epoch),
    );
    layers.insert("trace.overhead_frac", replica_ms / trainer_ms - 1.0);

    if let Some(mb) = &rep.last_batch {
        kernels::replay(mb, rep.dims(), spec.arch, layers);
    }
    crate::write_artifact(&format!("spans-{}.jsonl", w.name()), &to_jsonl(spans));
}
