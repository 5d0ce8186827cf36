//! The four workloads and the inputs each one generates from its seed.
//!
//! The seed is split into independent streams for dataset
//! materialization, model initialization and trace generation; the
//! library only ever sees the generated inputs. Shapes are scaled-down
//! stand-ins of the paper's datasets, sized so one run measures about
//! `--seconds` seconds on a 2-core host.

use fgnn_graph::datasets::{papers100m_spec, products_spec, twitter_spec, DatasetSpec};
use fgnn_graph::Dataset;
use fgnn_memsim::cluster::ClusterFaultPlan;
use fgnn_nn::model::Arch;
use fgnn_tensor::Rng;
use freshgnn::cluster::ClusterConfig;
use freshgnn::config::LoadMode;
use freshgnn::serve::{generate_trace, Request, ServeConfig};
use freshgnn::FreshGnnConfig;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// FreshGNN GraphSAGE training on a papers100M-shaped graph.
    SageFresh,
    /// Cache-less neighbor-sampling GCN on a twitter-shaped graph.
    GcnNs,
    /// Open-loop embedding serving on a products-shaped graph.
    ServeZipf,
    /// Four-host partitioned training with a host crash and restart.
    ClusterCrash,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::SageFresh,
        Workload::GcnNs,
        Workload::ServeZipf,
        Workload::ClusterCrash,
    ];

    /// Name as passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SageFresh => "sage-fresh",
            Workload::GcnNs => "gcn-ns",
            Workload::ServeZipf => "serve-zipf",
            Workload::ClusterCrash => "cluster-crash",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Dataset shape of the workload.
    pub fn dataset_spec(self) -> DatasetSpec {
        match self {
            // 1024 training nodes: two full batches of 512 per epoch.
            Workload::SageFresh => papers100m_spec(1.0).with_nodes(93_091),
            // 2000 (unlabelled) training nodes: two full batches of 1000.
            Workload::GcnNs => twitter_spec(1.0).with_nodes(200_000).with_dim(16),
            Workload::ServeZipf => products_spec(1.0).with_nodes(9_600),
            Workload::ClusterCrash => products_spec(1.0).with_nodes(60_000),
        }
    }
}

/// Independent input streams derived from one workload seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seeds {
    /// Graph, features, labels and splits.
    pub data: u64,
    /// Model initialization and every training-side RNG fork.
    pub model: u64,
    /// Request trace, serving-side sampling, graph partitioning and the
    /// crash schedule.
    pub trace: u64,
}

impl Seeds {
    /// Split `seed` into its streams.
    pub fn from(seed: u64) -> Seeds {
        let mut rng = Rng::new(seed);
        Seeds {
            data: rng.next_u64(),
            model: rng.next_u64(),
            trace: rng.next_u64(),
        }
    }
}

/// Materialize `spec` for the workload seed.
pub fn materialize(spec: DatasetSpec, seeds: Seeds) -> Dataset {
    Dataset::materialize(spec, seeds.data)
}

/// A single-host training workload (`sage-fresh`, `gcn-ns`).
#[derive(Clone, Debug)]
pub struct TrainSpec {
    /// Layer type.
    pub arch: Arch,
    /// Hidden width.
    pub hidden: usize,
    /// Trainer hyper-parameters.
    pub cfg: FreshGnnConfig,
    /// Adam learning rate.
    pub lr: f32,
    /// `Some(workers)`: the asynchronous sampler on that many runtime
    /// workers; `None`: synchronous sampling on the training thread.
    pub async_workers: Option<usize>,
    /// Untimed epochs run as part of set-up (cache warm-up).
    pub warmup_epochs: usize,
    /// Host seconds one epoch takes on the reference 2-core box; sizes the
    /// timed window from `--seconds`.
    pub nominal_epoch_s: f64,
    /// Test nodes evaluated after the run (0 when the labels carry no
    /// signal).
    pub eval_nodes: usize,
}

impl TrainSpec {
    /// The spec of a training workload; `None` for the others.
    pub fn of(w: Workload) -> Option<TrainSpec> {
        match w {
            Workload::SageFresh => Some(TrainSpec {
                arch: Arch::Sage,
                hidden: 128,
                cfg: FreshGnnConfig {
                    p_grad: 0.9,
                    t_stale: 200,
                    fanouts: vec![10, 10, 5],
                    batch_size: 512,
                    load_mode: LoadMode::OneSided,
                    ..Default::default()
                },
                lr: 0.003,
                async_workers: None,
                // H2D per epoch falls steeply over the first epochs as the
                // cache fills; these run untimed, the window is fixed.
                warmup_epochs: 2,
                nominal_epoch_s: 1.0,
                eval_nodes: 2000,
            }),
            Workload::GcnNs => Some(TrainSpec {
                arch: Arch::Gcn,
                hidden: 16,
                cfg: FreshGnnConfig {
                    load_mode: LoadMode::TwoSided,
                    ..FreshGnnConfig::neighbor_sampling(vec![15, 10, 5], 1000)
                },
                lr: 0.003,
                // One runtime worker plus the training thread: 2 threads.
                async_workers: Some(1),
                warmup_epochs: 2,
                nominal_epoch_s: 0.2,
                eval_nodes: 0,
            }),
            _ => None,
        }
    }

    /// Epochs in the timed window for a `seconds`-long run: a function of
    /// `seconds` only, so parent and change do the same work.
    pub fn window_epochs(&self, seconds: f64) -> usize {
        ((seconds / self.nominal_epoch_s).round() as usize).max(3)
    }
}

/// Finished mini-batches the asynchronous sampler may hold.
pub const ASYNC_QUEUE: usize = 4;

/// Requests in the `serve-zipf` trace.
pub const SERVE_REQUESTS: usize = 100_000;
/// Offered arrival rate (requests per simulated second).
pub const SERVE_RATE_RPS: f64 = 2_000.0;
/// Host seconds one pass over the trace takes on the reference box.
pub const SERVE_NOMINAL_PASS_S: f64 = 2.5;

/// The serving configuration over `ds` for the workload seed.
pub fn serve_config(ds: &Dataset, seeds: Seeds) -> ServeConfig {
    let mut cfg = ServeConfig {
        seed: seeds.trace,
        fanouts: vec![10, 5],
        ..ServeConfig::default()
    };
    cfg.trace.num_requests = SERVE_REQUESTS;
    cfg.trace.num_nodes = ds.num_nodes();
    cfg.trace.rate_rps = SERVE_RATE_RPS;
    // Offered at half the admission rate: bursts (2x for 50 ms of every
    // 200 ms) reach the token bucket's capacity without shedding.
    cfg.admission.rate_rps = 2.0 * SERVE_RATE_RPS;
    // Every request carries its span tree, so latency percentiles are
    // taken over all offered requests.
    cfg.telemetry.exemplar_every = 1;
    cfg
}

/// Hidden width of the serving model.
pub const SERVE_HIDDEN: usize = 64;

/// The request trace for the workload seed.
pub fn serve_trace(cfg: &ServeConfig) -> Vec<Request> {
    generate_trace(&cfg.trace, cfg.seed)
}

/// Epochs of one `cluster-crash` job: the crash epoch and three more.
pub const CLUSTER_JOB_EPOCHS: u32 = 4;
/// Host seconds one job (set-up included) takes on the reference box.
pub const CLUSTER_NOMINAL_JOB_S: f64 = 2.0;

/// Cluster configuration plus its seeded crash schedule: the last host
/// crashes early in epoch 1 and restarts two rounds later (an epoch is
/// about ten rounds).
pub fn cluster_config(seeds: Seeds) -> (ClusterConfig, ClusterFaultPlan) {
    const HOSTS: usize = 4;
    let mut rng = Rng::new(seeds.trace);
    let crash = 1 + rng.below(2) as u64;
    let cfg = ClusterConfig {
        num_hosts: HOSTS,
        partition_seed: rng.next_u64(),
        hidden: 64,
        train: FreshGnnConfig {
            fanouts: vec![10, 5],
            batch_size: 128,
            ..Default::default()
        },
        ..Default::default()
    };
    let plan = ClusterFaultPlan::none()
        .with_crash(crash, HOSTS - 1)
        .with_restart(crash + 2, HOSTS - 1);
    (cfg, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgnn_graph::NodeId;

    /// FNV-1a digest of everything a workload hands the library for `seed`
    /// (graph, features, labels, splits, trace and configs), at `spec`'s
    /// size. Equal digests mean equal inputs.
    fn input_digest(w: Workload, spec: DatasetSpec, seed: u64) -> u64 {
        let seeds = Seeds::from(seed);
        let ds = materialize(spec, seeds);
        let mut h = Fnv::default();
        for v in 0..ds.num_nodes() as NodeId {
            h.write(&(ds.graph.neighbors(v).len() as u64).to_le_bytes());
            for &u in ds.graph.neighbors(v) {
                h.write(&u.to_le_bytes());
            }
        }
        for x in ds.features.as_slice() {
            h.write(&x.to_bits().to_le_bytes());
        }
        for l in &ds.labels {
            h.write(&l.to_le_bytes());
        }
        for n in ds
            .train_nodes
            .iter()
            .chain(&ds.val_nodes)
            .chain(&ds.test_nodes)
        {
            h.write(&n.to_le_bytes());
        }
        h.write(&seeds.model.to_le_bytes());
        match w {
            Workload::ServeZipf => {
                let mut cfg = serve_config(&ds, seeds);
                cfg.trace.num_requests = 1000;
                for r in serve_trace(&cfg) {
                    h.write(&r.node.to_le_bytes());
                    h.write(&r.arrival_ns.to_le_bytes());
                    h.write(&r.deadline_ns.to_le_bytes());
                }
            }
            Workload::ClusterCrash => {
                let (cfg, plan) = cluster_config(seeds);
                h.write(&cfg.partition_seed.to_le_bytes());
                for e in plan.events() {
                    h.write(&e.round.to_le_bytes());
                    h.write(&(e.host as u64).to_le_bytes());
                }
            }
            Workload::SageFresh | Workload::GcnNs => {}
        }
        h.0
    }

    struct Fnv(u64);

    impl Default for Fnv {
        fn default() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }
    }

    impl Fnv {
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    #[test]
    fn names_round_trip_and_are_valid() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::report::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            // Same shape at a test-sized node count.
            let spec = || w.dataset_spec().with_nodes(3_000);
            let a = input_digest(w, spec(), 7);
            assert_eq!(a, input_digest(w, spec(), 7), "{}", w.name());
            assert_ne!(a, input_digest(w, spec(), 8), "{}", w.name());
        }
    }

    #[test]
    fn seed_streams_are_distinct() {
        let s = Seeds::from(1);
        assert!(s.data != s.model && s.model != s.trace && s.data != s.trace);
        assert_ne!(Seeds::from(1), Seeds::from(2));
    }

    #[test]
    fn training_batches_are_full() {
        for w in [Workload::SageFresh, Workload::GcnNs] {
            let spec = w.dataset_spec();
            let train = (spec.num_nodes as f64 * spec.train_frac) as usize;
            let t = TrainSpec::of(w).expect("training workload");
            assert_eq!(train % t.cfg.batch_size, 0, "{}", w.name());
        }
    }

    #[test]
    fn window_is_a_function_of_seconds() {
        let t = TrainSpec::of(Workload::SageFresh).expect("training workload");
        assert_eq!(t.window_epochs(10.0), t.window_epochs(10.0));
        assert!(t.window_epochs(20.0) > t.window_epochs(10.0));
        assert_eq!(t.window_epochs(0.0), 3);
    }
}
