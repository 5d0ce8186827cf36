//! `cluster-crash`: `ClusterTrainer` on four simulated hosts, with the
//! seeded crash and restart of the last host in epoch 1.
//!
//! A closed loop of short training jobs: each job builds a fresh cluster
//! (its set-up) and trains `CLUSTER_JOB_EPOCHS` epochs, one `train(1)`
//! call each, so the crash and the recovery replay are inside every timed
//! job. Jobs repeat the same seeded inputs, so their exact numbers must
//! agree. Jobs are short because `ClusterTrainer`'s numeric guard fails
//! long runs once the loss has converged (see `NOTES.md`).

use crate::catalog::Values;
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::workloads::{
    cluster_config, materialize, Seeds, Workload, CLUSTER_JOB_EPOCHS, CLUSTER_NOMINAL_JOB_S,
};
use freshgnn::{ClusterReport, ClusterTrainer, FgnnError};
use std::time::Instant;

fn build(seeds: Seeds) -> Result<(ClusterTrainer, u64), FgnnError> {
    let ds = materialize(Workload::ClusterCrash.dataset_spec(), seeds);
    let (cfg, plan) = cluster_config(seeds);
    let mut ct = ClusterTrainer::new(&ds, cfg, seeds.model)?;
    ct.inject_cluster_faults(plan)?;
    Ok((ct, ds.train_nodes.len() as u64))
}

fn wire(r: &ClusterReport) -> u64 {
    r.h2d_bytes + r.comms.wire_bytes()
}

/// One job's measurements.
struct Job {
    report: ClusterReport,
    epoch_wall_s: Vec<f64>,
    epoch_rounds: Vec<u64>,
    epoch_nic_bytes: Vec<u64>,
    /// Exact simulated duration of every host batch, replays included.
    step_sim_ms: Vec<f64>,
}

fn run_job(ct: &mut ClusterTrainer) -> Result<Job, FgnnError> {
    let hosts = ct.membership().status.len();
    let mut prev = ct.report();
    let mut job = Job {
        report: prev.clone(),
        epoch_wall_s: Vec::new(),
        epoch_rounds: Vec::new(),
        epoch_nic_bytes: Vec::new(),
        step_sim_ms: Vec::new(),
    };
    for _ in 0..CLUSTER_JOB_EPOCHS {
        let t0 = Instant::now();
        let r = ct.train(1)?;
        job.epoch_wall_s.push(t0.elapsed().as_secs_f64());
        job.epoch_rounds.push(r.rounds - prev.rounds);
        job.epoch_nic_bytes
            .push(r.comms.nic_bytes - prev.comms.nic_bytes);
        prev = r;
    }
    job.report = prev;
    for h in 0..hosts {
        let spans = ct.trainer(h).obs.tracer.spans();
        let batches = spans.iter().filter(|s| s.name == "batch");
        job.step_sim_ms
            .extend(batches.map(|s| s.dur_ns as f64 / 1e6));
    }
    Ok(job)
}

/// The exact (simulated) part of a report, which every job must repeat.
fn exact(r: &ClusterReport) -> (Vec<u64>, u64, u64, u64, u64, u64) {
    let losses = r.epoch_losses.iter().map(|l| l.to_bits()).collect();
    let l = &r.ledger;
    (
        losses,
        r.rounds,
        wire(r),
        r.sim_seconds.to_bits(),
        l.remote_reads,
        l.degraded_reads,
    )
}

/// Run the cluster workload.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> (Values, Values) {
    let seeds = Seeds::from(seed);
    let mut e2e = Values::new();
    let mut layers = Values::new();
    let mut setup_s = Vec::new();
    let mut job_rate = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    let job_count = ((seconds / CLUSTER_NOMINAL_JOB_S).round() as usize).max(3);
    for i in 0..job_count {
        let t0 = Instant::now();
        let (mut ct, seeds_per_epoch) = match build(seeds) {
            Ok(b) => b,
            Err(e) => {
                out.check(false, || format!("cluster set-up failed: {e}"));
                return (e2e, layers);
            }
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        match run_job(&mut ct) {
            Ok(job) => {
                let items = seeds_per_epoch * u64::from(CLUSTER_JOB_EPOCHS);
                job_rate.push(items as f64 / t1.elapsed().as_secs_f64());
                out.attempted += job.step_sim_ms.len() as u64;
                jobs.push(job);
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.check(false, || format!("cluster job {i} failed: {e}"));
                return (e2e, layers);
            }
        }
    }

    let first = &jobs[0];
    let r = &first.report;
    for (i, j) in jobs.iter().enumerate().skip(1) {
        out.check(exact(&j.report) == exact(r), || {
            format!("cluster job {i} differs from job 0 in its exact numbers")
        });
    }
    let t_stale = u64::from(cluster_config(seeds).0.train.t_stale);
    out.check(r.ledger.max_staleness <= t_stale, || {
        format!(
            "max staleness {} exceeds t_stale {t_stale}",
            r.ledger.max_staleness
        )
    });
    out.check(r.crashes == 1 && r.restarts == 1, || {
        format!(
            "expected one crash and one restart, saw {} and {}",
            r.crashes, r.restarts
        )
    });
    out.check(r.epoch_losses.iter().all(|l| l.is_finite()), || {
        "a cluster epoch loss is not finite".into()
    });

    let epochs = f64::from(CLUSTER_JOB_EPOCHS);
    e2e.insert("setup_s", median(&setup_s));
    layers.insert("host.items_per_s", median(&job_rate));
    e2e.insert("sim_pass_s", r.sim_seconds / epochs);
    e2e.insert("wire_mb_per_pass", wire(r) as f64 / epochs / 1e6);
    e2e.insert("sim_p50_ms", percentile(&first.step_sim_ms, 50.0));
    e2e.insert("sim_p99_ms", percentile(&first.step_sim_ms, 99.0));

    if traced {
        let wall_ms: Vec<f64> = jobs
            .iter()
            .flat_map(|j| &j.epoch_wall_s)
            .map(|s| s * 1e3)
            .collect();
        let per_epoch = |v: &[u64]| median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>());
        layers.insert("cluster.epoch_ms.p50", percentile(&wall_ms, 50.0));
        layers.insert("cluster.epoch_ms.p90", percentile(&wall_ms, 90.0));
        layers.insert("cluster.rounds", per_epoch(&first.epoch_rounds));
        layers.insert("cluster.nic_mb", per_epoch(&first.epoch_nic_bytes) / 1e6);
        let l = &r.ledger;
        layers.insert("cluster.remote_reads", l.remote_reads as f64);
        layers.insert("cluster.degraded_reads", l.degraded_reads as f64);
        layers.insert("cluster.fallback_reads", l.fallback_reads as f64);
        layers.insert("cluster.retries", l.retries as f64);
        layers.insert("cluster.max_staleness", l.max_staleness as f64);
        layers.insert("cluster.am_saving_s", r.am_saving_seconds);
        let final_loss = r.epoch_losses.last().copied().unwrap_or(f64::NAN);
        layers.insert("quality.final_loss", final_loss);
    }
    (e2e, layers)
}
