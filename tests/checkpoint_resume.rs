//! Kill-and-resume integration tests: a training run interrupted by a
//! checkpoint and resumed in a *fresh process-worth of state* (new trainer,
//! different construction seed, checkpoint round-tripped through disk)
//! must produce bitwise-identical final parameters to the uninterrupted
//! run — plus the corrupt-snapshot error paths and graceful cache
//! degradation.

use freshgnn_repro::core::baselines::{
    ClusterGcnTrainer, GasConfig, GasTrainer, SamplingBaselineTrainer, SamplingKind,
};
use freshgnn_repro::core::checkpoint::{Checkpoint, CheckpointError, MAGIC, VERSION};
use freshgnn_repro::core::hetero_trainer::HeteroTrainer;
use freshgnn_repro::core::obs::export::metrics_jsonl;
use freshgnn_repro::core::{FreshGnnConfig, Recoverable, Trainer};
use freshgnn_repro::graph::datasets::arxiv_spec;
use freshgnn_repro::graph::hetero::mag_hetero;
use freshgnn_repro::graph::sample::split_batches;
use freshgnn_repro::graph::Dataset;
use freshgnn_repro::memsim::presets::Machine;
use freshgnn_repro::nn::model::Arch;
use freshgnn_repro::nn::{Adam, Sgd};
use freshgnn_repro::tensor::Rng;

fn tiny() -> Dataset {
    Dataset::materialize(arxiv_spec(0.0).with_dim(16), 42) // 256 nodes
}

fn cfg() -> FreshGnnConfig {
    FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 50,
        fanouts: vec![4, 4],
        batch_size: 32,
        feature_cache_rows: 16,
        ..Default::default()
    }
}

fn new_trainer(ds: &Dataset, seed: u64) -> Trainer {
    Trainer::new(ds, Arch::Sage, 16, Machine::single_a100(), cfg(), seed)
}

fn ckpt_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fgnn_ckpt_integration");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The headline guarantee: kill after epoch 2 of 4, resume into a trainer
/// built with a *different* seed, and the final parameters match the
/// uninterrupted run bit for bit.
#[test]
fn kill_between_epochs_and_resume_is_bitwise_identical() {
    let ds = tiny();

    // Uninterrupted reference: 4 epochs.
    let mut reference = new_trainer(&ds, 7);
    let mut opt_ref = Adam::new(0.01);
    for _ in 0..4 {
        reference.train_epoch(&ds, &mut opt_ref);
    }
    let want = reference.model.export_parameters();

    // Interrupted run: 2 epochs, checkpoint through disk, "kill".
    let path = ckpt_dir().join("between_epochs.ckpt");
    {
        let mut first = new_trainer(&ds, 7);
        let mut opt = Adam::new(0.01);
        first.train_epoch(&ds, &mut opt);
        first.train_epoch(&ds, &mut opt);
        first.checkpoint(&opt).save(&path).expect("save");
        // `first` dropped here — nothing survives but the file.
    }

    // Resume: differently-seeded trainer, fresh optimizer.
    let ckpt = Checkpoint::load(&path).expect("load");
    let mut resumed = new_trainer(&ds, 999);
    let mut opt = Adam::new(0.01);
    let degraded = resumed.restore(&ckpt, &mut opt).expect("restore");
    assert!(!degraded, "intact checkpoint must not degrade");
    assert_eq!(resumed.epochs(), 2);
    for _ in 0..2 {
        resumed.train_epoch(&ds, &mut opt);
    }

    let got = resumed.model.export_parameters();
    assert_eq!(want.len(), got.len());
    let diffs = want
        .iter()
        .zip(&got)
        .filter(|(a, b)| a.to_bits() != b.to_bits())
        .count();
    assert_eq!(diffs, 0, "{diffs} parameters differ after resume");
    std::fs::remove_file(&path).ok();
}

/// Same guarantee mid-epoch: checkpoint after batch 4 of 8 (the caller
/// owns the schedule via `train_on_batches`), resume, finish the
/// remaining batches, and continue a full extra epoch.
#[test]
fn kill_mid_epoch_and_resume_is_bitwise_identical() {
    let ds = tiny();
    let mut schedule_rng = Rng::new(123);
    let batches = split_batches(&ds.train_nodes, 24, Some(&mut schedule_rng));
    assert!(batches.len() >= 6, "need a non-trivial schedule");
    let split = batches.len() / 2;

    // Reference: the whole schedule in one call, then one normal epoch.
    let mut reference = new_trainer(&ds, 11);
    let mut opt_ref = Adam::new(0.01);
    reference.train_on_batches(&ds, &batches, &mut opt_ref);
    reference.train_epoch(&ds, &mut opt_ref);
    let want = reference.model.export_parameters();

    // Interrupted: first half, checkpoint, kill, restore, second half.
    let path = ckpt_dir().join("mid_epoch.ckpt");
    {
        let mut first = new_trainer(&ds, 11);
        let mut opt = Adam::new(0.01);
        first.train_on_batches(&ds, &batches[..split], &mut opt);
        first.checkpoint(&opt).save(&path).expect("save");
    }
    let ckpt = Checkpoint::load(&path).expect("load");
    let mut resumed = new_trainer(&ds, 31337);
    let mut opt = Adam::new(0.01);
    resumed.restore(&ckpt, &mut opt).expect("restore");
    assert_eq!(resumed.iterations() as usize, split, "iteration cursor");
    resumed.train_on_batches(&ds, &batches[split..], &mut opt);
    resumed.train_epoch(&ds, &mut opt);

    let got = resumed.model.export_parameters();
    assert_eq!(want, got, "mid-epoch resume diverged");
    std::fs::remove_file(&path).ok();
}

/// The traffic ledger and cache statistics survive the round trip too —
/// experiment reports from a resumed run match the uninterrupted run.
#[test]
fn counters_and_cache_stats_survive_resume() {
    let ds = tiny();
    let mut reference = new_trainer(&ds, 5);
    let mut opt_ref = Adam::new(0.01);
    for _ in 0..3 {
        reference.train_epoch(&ds, &mut opt_ref);
    }

    let mut first = new_trainer(&ds, 5);
    let mut opt = Adam::new(0.01);
    first.train_epoch(&ds, &mut opt);
    first.train_epoch(&ds, &mut opt);
    let ckpt = Checkpoint::from_bytes(&first.checkpoint(&opt).to_bytes()).unwrap();
    let mut resumed = new_trainer(&ds, 6);
    let mut opt2 = Adam::new(0.01);
    resumed.restore(&ckpt, &mut opt2).unwrap();
    resumed.train_epoch(&ds, &mut opt2);

    assert_eq!(
        reference.counters.host_to_gpu_bytes,
        resumed.counters.host_to_gpu_bytes
    );
    assert_eq!(
        reference.counters.num_transfers,
        resumed.counters.num_transfers
    );
    assert_eq!(reference.cache.stats(), resumed.cache.stats());
    assert_eq!(reference.iterations(), resumed.iterations());
}

/// Corrupting the core segment is a hard checksum error; corrupting the
/// cache segment degrades: the load succeeds, the trainer resumes with an
/// empty cache, and the degradation is recorded in the next EpochStats.
#[test]
fn corrupt_snapshots_follow_the_fault_model() {
    let ds = tiny();
    let mut t = new_trainer(&ds, 9);
    let mut opt = Adam::new(0.01);
    t.train_epoch(&ds, &mut opt);
    assert!(!t.cache.is_empty(), "warm cache before checkpoint");
    let bytes = t.checkpoint(&opt).to_bytes();

    // Core corruption (byte right after magic+version+len) → hard error.
    let mut bad_core = bytes.clone();
    bad_core[21] ^= 0xFF;
    assert!(matches!(
        Checkpoint::from_bytes(&bad_core),
        Err(CheckpointError::ChecksumMismatch { segment: "core" })
    ));

    // Wrong version → descriptive rejection.
    let mut bad_version = bytes.clone();
    bad_version[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
    let err = Checkpoint::from_bytes(&bad_version).unwrap_err();
    assert!(err.to_string().contains("version"), "{err}");

    // Not a checkpoint at all.
    let mut bad_magic = bytes.clone();
    bad_magic[..8].copy_from_slice(b"GARBAGE!");
    assert!(!MAGIC.starts_with(b"GARBAGE"));
    assert!(matches!(
        Checkpoint::from_bytes(&bad_magic),
        Err(CheckpointError::BadMagic)
    ));

    // Cache corruption (last payload byte before the final checksum) →
    // graceful degradation.
    let mut bad_cache = bytes.clone();
    let n = bad_cache.len();
    bad_cache[n - 9] ^= 0xFF;
    let ckpt = Checkpoint::from_bytes(&bad_cache).expect("core intact");
    assert!(ckpt.cache_degraded);

    let mut resumed = new_trainer(&ds, 10);
    let mut opt2 = Adam::new(0.01);
    let degraded = resumed.restore(&ckpt, &mut opt2).expect("degraded restore");
    assert!(degraded);
    assert!(resumed.cache.is_empty(), "resume starts cold");
    let stats = resumed.train_epoch(&ds, &mut opt2);
    assert!(stats.cache_degraded, "degradation recorded in EpochStats");
    let stats2 = resumed.train_epoch(&ds, &mut opt2);
    assert!(!stats2.cache_degraded, "flag consumed after one epoch");
}

/// Differential telemetry: replay one epoch twice — straight through vs.
/// killed mid-epoch and restored from a checkpoint — and the two runs'
/// *per-segment deterministic metric streams* must be identical. Restoring
/// re-baselines the registry (`Trainer::restore` republishes the restored
/// cache counters), so second-half deltas line up even though the ring's
/// lookup telemetry itself is not checkpointed.
#[test]
fn metric_stream_after_resume_matches_uninterrupted_run() {
    let ds = tiny();
    let mut schedule_rng = Rng::new(123);
    let batches = split_batches(&ds.train_nodes, 24, Some(&mut schedule_rng));
    let split = batches.len() / 2;

    // Uninterrupted run: first half, metric snapshot, second half.
    let mut reference = new_trainer(&ds, 11);
    let mut opt_ref = Adam::new(0.01);
    reference.train_on_batches(&ds, &batches[..split], &mut opt_ref);
    let mid = reference.obs.metrics.snapshot();
    reference.train_on_batches(&ds, &batches[split..], &mut opt_ref);
    let want = metrics_jsonl(
        "second-half",
        &reference.obs.metrics.delta_since(&mid),
        false, // Exact class only: the deterministic stream
    );

    // Killed run: first half, checkpoint, restore elsewhere, second half.
    let ckpt = {
        let mut first = new_trainer(&ds, 11);
        let mut opt = Adam::new(0.01);
        first.train_on_batches(&ds, &batches[..split], &mut opt);
        Checkpoint::from_bytes(&first.checkpoint(&opt).to_bytes()).unwrap()
    };
    let mut resumed = new_trainer(&ds, 31337);
    let mut opt = Adam::new(0.01);
    resumed.restore(&ckpt, &mut opt).expect("restore");
    let base = resumed.obs.metrics.snapshot();
    resumed.train_on_batches(&ds, &batches[split..], &mut opt);
    let got = metrics_jsonl(
        "second-half",
        &resumed.obs.metrics.delta_since(&base),
        false,
    );

    assert!(!want.is_empty() && want.contains("cache.hist.lookups"));
    assert_eq!(want, got, "resumed metric stream diverged");
}

/// Degraded resume telemetry: with the historical cache disabled by
/// config, dropping the checkpoint's cache segment changes nothing about
/// training — so the degraded run's deterministic metric stream must be
/// identical to the intact run's *except* for the documented
/// `pipeline.cache_degraded_epochs` counter.
#[test]
fn degraded_resume_stream_differs_only_in_degraded_counter() {
    let ds = tiny();
    let no_cache = FreshGnnConfig {
        p_grad: 0.0,
        t_stale: 0,
        fanouts: vec![4, 4],
        batch_size: 32,
        feature_cache_rows: 16,
        ..Default::default()
    };
    let mk = |seed| {
        Trainer::new(
            &ds,
            Arch::Sage,
            16,
            Machine::single_a100(),
            no_cache.clone(),
            seed,
        )
    };

    let mut first = mk(21);
    let mut opt = Adam::new(0.01);
    first.train_epoch(&ds, &mut opt);
    let intact_ckpt = first.checkpoint(&opt);
    let mut dropped_ckpt = intact_ckpt.clone();
    dropped_ckpt.cache = None; // simulate a lost/corrupt cache segment

    let run_second = |ckpt: &Checkpoint, expect_degraded: bool| -> String {
        let mut t = mk(99);
        let mut opt = Adam::new(0.01);
        let degraded = t.restore(ckpt, &mut opt).expect("restore");
        assert_eq!(degraded, expect_degraded);
        let base = t.obs.metrics.snapshot();
        let stats = t.train_epoch(&ds, &mut opt);
        assert_eq!(stats.cache_degraded, expect_degraded);
        metrics_jsonl("resume", &t.obs.metrics.delta_since(&base), false)
    };
    let intact = run_second(&intact_ckpt, false);
    let degraded = run_second(&dropped_ckpt, true);

    let intact_lines: Vec<&str> = intact.lines().collect();
    let degraded_lines: Vec<&str> = degraded.lines().collect();
    let extra: Vec<&&str> = degraded_lines
        .iter()
        .filter(|l| !intact_lines.contains(l))
        .collect();
    assert_eq!(
        extra.len(),
        1,
        "exactly one metric line may differ, got {extra:?}"
    );
    assert!(
        extra[0].contains("pipeline.cache_degraded_epochs"),
        "the only difference must be the documented degraded counter: {}",
        extra[0]
    );
    for l in &intact_lines {
        assert!(
            degraded_lines.contains(l),
            "intact metric line missing from degraded stream: {l}"
        );
    }
}

/// Rollback invariant: restoring a checkpoint whose cache snapshot holds
/// entries stamped *after* the checkpoint's iteration cursor evicts them.
/// A future-stamped entry would report `age = now - stamp = 0` forever and
/// silently violate the `t_stale` bound — exactly the state a
/// rollback-to-baseline would otherwise leave behind in a warm cache.
#[test]
fn restore_evicts_cache_entries_stamped_after_the_checkpoint() {
    let ds = tiny();
    let mut t = new_trainer(&ds, 15);
    let mut opt = Adam::new(0.01);
    t.train_epoch(&ds, &mut opt);
    let mut early = t.checkpoint(&opt); // iteration cursor at 1 epoch
    t.train_epoch(&ds, &mut opt);
    let late = t.checkpoint(&opt); // cache stamped through epoch 2

    // Graft the ran-ahead cache onto the older checkpoint — the shape a
    // rollback restores: core state from the baseline, cache from a run
    // that continued past it.
    early.cache = late.cache.clone();
    let mut grafted = new_trainer(&ds, 99);
    let mut o1 = Adam::new(0.01);
    grafted.restore(&early, &mut o1).expect("grafted restore");

    // Restore already purged everything stamped past the cursor…
    assert_eq!(
        grafted.cache.evict_newer_than(early.iter),
        0,
        "future-stamped entries survived restore"
    );
    // …and the purge was real: a plain restore of the late checkpoint
    // holds strictly more live entries.
    let mut full = new_trainer(&ds, 98);
    let mut o2 = Adam::new(0.01);
    full.restore(&late, &mut o2).expect("late restore");
    assert!(
        grafted.cache.len() < full.cache.len(),
        "eviction dropped nothing: grafted {} vs late {}",
        grafted.cache.len(),
        full.cache.len()
    );
}

/// Restore a checkpoint into a fresh trainer of one family, built with
/// the given hidden width.
type RestoreInto = Box<dyn Fn(usize, &Checkpoint) -> Result<bool, CheckpointError>>;

/// One epoch of every trainer family at hidden width 16: its checkpoint,
/// and restore into a fresh trainer of the same family.
fn families() -> Vec<(&'static str, Checkpoint, RestoreInto)> {
    let machine = Machine::single_a100;
    let gas_cfg = || GasConfig {
        num_parts: 4,
        ..Default::default()
    };
    let layer_wise = || SamplingKind::LayerWise {
        layer_sizes: vec![64, 32],
    };
    let hetero_cfg = || FreshGnnConfig {
        fanouts: vec![3, 3],
        ..cfg()
    };
    let ds = std::rc::Rc::new(tiny());
    let hds = std::rc::Rc::new(mag_hetero(400, 4, 8, 3));
    let mut out: Vec<(&'static str, Checkpoint, RestoreInto)> = Vec::new();

    let mut opt = Adam::new(0.01);
    let mut t = new_trainer(&ds, 1);
    t.train_epoch(&ds, &mut opt);
    let d = ds.clone();
    out.push((
        "trainer",
        t.checkpoint(&opt),
        Box::new(move |hidden, c| {
            let mut t = Trainer::new(&d, Arch::Sage, hidden, machine(), cfg(), 1);
            t.restore(c, &mut Adam::new(0.01))
        }),
    ));

    let mut opt = Adam::new(0.01);
    let mut t = HeteroTrainer::new(&hds, 16, machine(), hetero_cfg(), 1);
    t.train_epoch(&hds, &mut opt);
    let d = hds.clone();
    out.push((
        "hetero",
        t.checkpoint(&opt),
        Box::new(move |hidden, c| {
            let mut t = HeteroTrainer::new(&d, hidden, machine(), hetero_cfg(), 1);
            t.restore(c, &mut Adam::new(0.01))
        }),
    ));

    let mut opt = Adam::new(0.01);
    let mut t = GasTrainer::new(&ds, Arch::Sage, 16, 2, machine(), gas_cfg(), 1);
    t.train_epoch(&ds, &mut opt);
    let d = ds.clone();
    out.push((
        "gas",
        t.checkpoint(&opt),
        Box::new(move |hidden, c| {
            let mut t = GasTrainer::new(&d, Arch::Sage, hidden, 2, machine(), gas_cfg(), 1);
            t.restore(c, &mut Adam::new(0.01))
        }),
    ));

    let mut opt = Adam::new(0.01);
    let mut t = ClusterGcnTrainer::new(&ds, Arch::Gcn, 16, 2, 8, 2, machine(), 1);
    t.train_epoch(&ds, &mut opt);
    let d = ds.clone();
    out.push((
        "cluster-gcn",
        t.checkpoint(&opt),
        Box::new(move |hidden, c| {
            let mut t = ClusterGcnTrainer::new(&d, Arch::Gcn, hidden, 2, 8, 2, machine(), 1);
            t.restore(c, &mut Adam::new(0.01))
        }),
    ));

    let mut opt = Adam::new(0.01);
    let mut t =
        SamplingBaselineTrainer::new(&ds, Arch::Sage, 16, 2, 32, layer_wise(), machine(), 1);
    t.train_epoch(&ds, &mut opt);
    let d = ds.clone();
    out.push((
        "sampling",
        t.checkpoint(&opt),
        Box::new(move |hidden, c| {
            let mut t = SamplingBaselineTrainer::new(
                &d,
                Arch::Sage,
                hidden,
                2,
                32,
                layer_wise(),
                machine(),
                1,
            );
            t.restore(c, &mut Adam::new(0.01))
        }),
    ));
    out
}

/// A checkpoint that does not fit the trainer — other width, other
/// architecture, other parameter count, other static-cache size — is
/// rejected with a ShapeMismatch naming the check, for every trainer
/// family, not silently imported.
#[test]
fn shape_mismatch_is_rejected() {
    let rejects = |name: &str, result: Result<bool, CheckpointError>, check: &str| match result {
        Err(CheckpointError::ShapeMismatch(m)) => {
            assert!(
                m.contains(check),
                "{name}: expected a {check} mismatch, got {m}"
            )
        }
        other => panic!("{name}: expected a {check} mismatch, got {other:?}"),
    };
    for (name, ckpt, restore_into) in families() {
        restore_into(16, &ckpt).unwrap_or_else(|e| panic!("{name}: matching restore: {e}"));
        rejects(name, restore_into(32, &ckpt), "dims");

        let mut other_arch = ckpt.clone();
        other_arch.arch = if ckpt.arch == Arch::Gcn {
            Arch::Gat
        } else {
            Arch::Gcn
        };
        rejects(name, restore_into(16, &other_arch), "arch");

        let mut short = ckpt.clone();
        short.params.pop();
        rejects(name, restore_into(16, &short), "parameters");

        if !ckpt.static_resident.is_empty() {
            let mut small_static = ckpt.clone();
            small_static.static_resident.pop();
            rejects(name, restore_into(16, &small_static), "static cache");
        }
    }
}

/// A checkpoint whose optimizer state belongs to another optimizer type is
/// rejected before anything is written: SGD-with-momentum state restored
/// into an Adam trainer errors, and trainer and optimizer stay
/// bit-identical.
#[test]
fn optimizer_mismatch_is_rejected_before_any_state_changes() {
    let ds = tiny();
    let mut src = new_trainer(&ds, 3);
    let mut sgd = Sgd::with_momentum(0.01, 0.9);
    src.train_epoch(&ds, &mut sgd);
    let sgd_ckpt = src.checkpoint(&sgd);

    let mut t = new_trainer(&ds, 4);
    let mut adam = Adam::new(0.01);
    t.train_epoch(&ds, &mut adam);
    let before = t.checkpoint(&adam).to_bytes();
    assert!(matches!(
        t.restore(&sgd_ckpt, &mut adam),
        Err(CheckpointError::ShapeMismatch(_))
    ));
    assert!(
        t.checkpoint(&adam).to_bytes() == before,
        "a rejected restore changed the trainer or its optimizer"
    );
}
