//! Self-healing runtime demo: train under a seeded fault schedule (lossy
//! interconnect + one injected NaN batch) with and without the resilience
//! layer.
//!
//! Without `--resilience` the run uses the passive fault model only:
//! retries burn simulated time and nothing reacts. With `--resilience`
//! the circuit breaker degrades the pipeline under the fault storm, the
//! numeric guard catches an injected NaN, training rolls back to the last
//! good checkpoint, and the supervisor's transition table + breaker
//! statistics are printed (and exported as schema-tagged JSONL via
//! `--resilience-out <path>`). Everything is seeded: two runs with the
//! same `--seed` print byte-identical transition tables.

use fgnn_bench::{banner, row, Args};
use fgnn_graph::datasets::arxiv_spec;
use fgnn_graph::Dataset;
use fgnn_memsim::fault::{BreakerPolicy, FaultPlan, RetryPolicy};
use fgnn_memsim::presets::Machine;
use fgnn_nn::model::Arch;
use fgnn_nn::Adam;
use freshgnn::resilience::{Recoverable, Supervisor};
use freshgnn::{FreshGnnConfig, Trainer};

fn main() {
    let args = Args::parse();
    let seed: u64 = args.get("seed", 42);
    let scale: f64 = args.get("scale", 0.0002);
    let epochs: u32 = args.get("epochs", 4);
    let fail: f64 = args.get("fail", 0.3);
    let resilient = args.flag("resilience");
    let out: Option<String> = args.get_opt("resilience-out");

    banner(
        "Resilience",
        "Self-healing runtime under a seeded fault schedule",
    );
    let ds = Dataset::materialize(arxiv_spec(scale).with_dim(64), seed);
    println!(
        "dataset: {} nodes, {} edges; fail prob {fail}; resilience {}\n",
        ds.num_nodes(),
        ds.graph.num_edges(),
        if resilient { "ON" } else { "OFF" },
    );

    let cfg = FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 100,
        fanouts: vec![5, 5],
        batch_size: 128,
        ..Default::default()
    };
    let mut t = Trainer::new(&ds, Arch::Sage, 32, Machine::single_a100(), cfg, seed);
    t.inject_faults(
        FaultPlan::new(seed ^ 0xFA_17).with_fail_prob(fail),
        RetryPolicy {
            max_retries: 2,
            ..Default::default()
        },
    );
    if resilient {
        t.enable_breaker(BreakerPolicy::default());
    }
    let mut opt = Adam::new(0.003);
    let mut sup = Supervisor::default();

    let w = [8, 12, 10, 10, 11, 12];
    row(
        &[
            &"epoch",
            &"state",
            &"batches",
            &"degraded",
            &"rollbacks",
            &"mean loss",
        ],
        &w,
    );
    for epoch in 0..epochs {
        if epoch == 1 && resilient {
            // One transient divergence mid-epoch 2: the guard catches it
            // and rolls back. (The injection rides the guarded loop, so it
            // is only armed when the resilient path will consume it.)
            t.inject_nan_at([t.iterations() + 2]);
        }
        let (state, stats) = if resilient {
            match t.train_epoch_resilient(&ds, &mut opt, &mut sup) {
                Ok(s) => (sup.state().name(), s),
                Err(e) => {
                    println!("\nrun aborted: {e}");
                    break;
                }
            }
        } else {
            ("-", t.train_epoch(&ds, &mut opt))
        };
        row(
            &[
                &(epoch + 1),
                &state,
                &stats.batches,
                &stats.degraded_batches,
                &sup.rollbacks(),
                &format!("{:.4}", stats.mean_loss),
            ],
            &w,
        );
    }

    println!(
        "\ntransfer retries {}, retry seconds {:.3}, failed transfers {}",
        t.counters.retries, t.counters.retry_seconds, t.counters.failed_transfers
    );
    if let Some((trips, fast_fails)) = t.breaker_stats() {
        println!("breaker: {trips} trips, {fast_fails} fast-failed transfers");
    }
    if resilient {
        println!("\nsupervisor transitions:");
        println!("{}", sup.transition_log());
        if let Some(path) = out {
            std::fs::write(&path, sup.transitions_jsonl("resilience")).expect("write JSONL");
            println!("transition JSONL written to {path}");
        }
    } else {
        println!("\n(no supervisor: rerun with --resilience to react to the faults)");
    }
}
