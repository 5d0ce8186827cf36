//! Fault tolerance end to end: checkpoint/resume a training run across a
//! simulated crash, inject interconnect faults, and survive sampler-worker
//! panics — all deterministic, all without changing what the model learns.
//!
//! ```bash
//! cargo run --release --example fault_tolerant_training
//! ```

use freshgnn_repro::core::checkpoint::Checkpoint;
use freshgnn_repro::core::{FreshGnnConfig, Recoverable, Trainer};
use freshgnn_repro::graph::datasets::arxiv_spec;
use freshgnn_repro::graph::Dataset;
use freshgnn_repro::memsim::fault::{FaultPlan, RetryPolicy};
use freshgnn_repro::memsim::presets::Machine;
use freshgnn_repro::nn::model::Arch;
use freshgnn_repro::nn::Adam;
use std::sync::Arc;

fn cfg() -> FreshGnnConfig {
    FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 50,
        fanouts: vec![10, 10],
        batch_size: 256,
        ..Default::default()
    }
}

fn new_trainer(ds: &Dataset, seed: u64) -> Trainer {
    Trainer::new(ds, Arch::Sage, 128, Machine::single_a100(), cfg(), seed)
}

fn main() {
    let ds = Dataset::materialize(arxiv_spec(0.001).with_dim(64), 42);
    let ckpt_path = std::env::temp_dir().join("fault_tolerant_training.ckpt");

    // ---- 1. Kill-and-resume -------------------------------------------
    println!("== checkpoint / resume ==");

    // Reference: 4 uninterrupted epochs.
    let mut reference = new_trainer(&ds, 7);
    let mut opt = Adam::new(0.003);
    for _ in 0..4 {
        reference.train_epoch(&ds, &mut opt);
    }

    // Interrupted: 2 epochs, snapshot to disk, then "crash" (drop all state).
    {
        let mut t = new_trainer(&ds, 7);
        let mut opt = Adam::new(0.003);
        for _ in 0..2 {
            t.train_epoch(&ds, &mut opt);
        }
        t.checkpoint(&opt)
            .save(&ckpt_path)
            .expect("save checkpoint");
        println!(
            "saved {} ({} bytes) after epoch {}",
            ckpt_path.display(),
            std::fs::metadata(&ckpt_path).unwrap().len(),
            t.epochs()
        );
    } // <- everything dropped; only the file survives

    // Resume in a "new process": constructor seed is irrelevant, restore
    // overwrites all state.
    let ckpt = Checkpoint::load(&ckpt_path).expect("load checkpoint");
    let mut resumed = new_trainer(&ds, 999);
    let mut opt2 = Adam::new(0.003);
    let degraded = resumed.restore(&ckpt, &mut opt2).expect("restore");
    println!(
        "restored at epoch {}, iteration {}, cache degraded: {degraded}",
        resumed.epochs(),
        resumed.iterations()
    );
    for _ in 0..2 {
        resumed.train_epoch(&ds, &mut opt2);
    }

    let a = reference.model.export_parameters();
    let b = resumed.model.export_parameters();
    let diffs = a
        .iter()
        .zip(&b)
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count();
    println!(
        "uninterrupted vs resumed parameters: {} / {} differ → {}",
        diffs,
        a.len(),
        if diffs == 0 {
            "BITWISE IDENTICAL"
        } else {
            "MISMATCH"
        }
    );
    std::fs::remove_file(&ckpt_path).ok();

    // ---- 2. Interconnect faults ---------------------------------------
    println!("\n== interconnect fault injection (10% failure rate) ==");
    let mut faulty = new_trainer(&ds, 7);
    faulty.inject_faults(
        FaultPlan::new(99).with_fail_prob(0.10),
        RetryPolicy::default(),
    );
    let mut opt3 = Adam::new(0.003);
    for _ in 0..2 {
        faulty.train_epoch(&ds, &mut opt3);
    }
    println!(
        "retries: {}, failed (fell back): {}, time lost to retries: {:.3} s",
        faulty.counters.retries, faulty.counters.failed_transfers, faulty.counters.retry_seconds
    );
    println!("{}", faulty.counters);

    // ---- 3. Sampler-worker crash recovery ------------------------------
    println!("== sampler-worker panic recovery ==");
    let mut flaky = new_trainer(&ds, 7);
    flaky.set_sampler_fault_hook(Some(Arc::new(|batch, attempt| {
        if batch == 1 && attempt == 0 {
            panic!("injected worker crash at batch {batch}");
        }
    })));
    let mut opt4 = Adam::new(0.003);
    let stats = flaky
        .train_epoch_async(&ds, &mut opt4, 4, 8)
        .expect("recovery absorbs the panic");
    println!(
        "async epoch completed: {} batches, loss {:.4} (worker panic recovered transparently)",
        stats.batches, stats.mean_loss
    );
}
