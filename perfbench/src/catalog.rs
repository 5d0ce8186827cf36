//! The declared metric set: every run prints exactly these names, in this
//! order, with these units (`BENCHMARK.json` lists the same names).

use crate::report::Outcome;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by the untraced run (`--trace 0`) of every
/// workload. A "pass" is one training epoch, or one pass over the serving
/// trace; a unit of latency is one training step or one request.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_pass_s", "s"),
    ("wire_mb_per_pass", "MB"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`) of every
/// workload; a layer the workload does not drive reads 0. Timings are
/// per-step self times (`.p50` median, `.p90`/`.p99` tail); counts are per
/// step unless named otherwise. `host.items_per_s` is the untraced pass's
/// host throughput (training seeds or offered requests per host-wall
/// second): too noisy on a shared 2-core host to gate (see `NOTES.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.items_per_s", "1/s"),
    ("graph.sample_ms.p50", "ms"),
    ("graph.sample_ms.p90", "ms"),
    ("graph.sampled_edges", "count"),
    ("runtime.wait_ms.p50", "ms"),
    ("runtime.wait_ms.p90", "ms"),
    ("runtime.steals", "count"),
    ("runtime.retries", "count"),
    ("prune.ms.p50", "ms"),
    ("prune.ms.p90", "ms"),
    ("prune.kept_input_frac", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.read_ms.p50", "ms"),
    ("cache.read_ms.p90", "ms"),
    ("cache.update_ms.p50", "ms"),
    ("cache.update_ms.p90", "ms"),
    ("cache.admits", "count"),
    ("cache.evicts", "count"),
    ("loader.ms.p50", "ms"),
    ("loader.ms.p90", "ms"),
    ("loader.rows", "count"),
    ("loader.sim_transfer_ms", "ms"),
    ("loader.transfers", "count"),
    ("nn.l0.fwd_ms.p50", "ms"),
    ("nn.l0.fwd_ms.p90", "ms"),
    ("nn.l1.fwd_ms.p50", "ms"),
    ("nn.l1.fwd_ms.p90", "ms"),
    ("nn.l2.fwd_ms.p50", "ms"),
    ("nn.l2.fwd_ms.p90", "ms"),
    ("nn.l0.bwd_ms.p50", "ms"),
    ("nn.l0.bwd_ms.p90", "ms"),
    ("nn.l1.bwd_ms.p50", "ms"),
    ("nn.l1.bwd_ms.p90", "ms"),
    ("nn.l2.bwd_ms.p50", "ms"),
    ("nn.l2.bwd_ms.p90", "ms"),
    ("nn.loss_ms.p50", "ms"),
    ("nn.loss_ms.p90", "ms"),
    ("nn.optim_ms.p50", "ms"),
    ("nn.optim_ms.p90", "ms"),
    ("tensor.matmul.ms", "ms"),
    ("tensor.matmul.gflops", "GFLOP/s"),
    ("tensor.matmul_at_b.ms", "ms"),
    ("tensor.matmul_at_b.gflops", "GFLOP/s"),
    ("tensor.matmul_a_bt.ms", "ms"),
    ("tensor.matmul_a_bt.gflops", "GFLOP/s"),
    ("tensor.mean_agg.ms", "ms"),
    ("tensor.mean_agg.gbps", "GB/s"),
    ("tensor.mean_agg_bwd.ms", "ms"),
    ("tensor.mean_agg_bwd.gbps", "GB/s"),
    ("tensor.gather_rows.ms", "ms"),
    ("tensor.gather_rows.gbps", "GB/s"),
    ("pipeline.unattributed_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.embed_lookup_ms.p50", "ms"),
    ("serve.embed_lookup_ms.p99", "ms"),
    ("serve.recompute_ms.p50", "ms"),
    ("serve.recompute_ms.p99", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.shed_rate_limited", "count"),
    ("serve.shed_queue_full", "count"),
    ("serve.shed_deadline", "count"),
    ("serve.degraded_served", "count"),
    ("serve.run_ms", "ms"),
    ("cluster.epoch_ms.p50", "ms"),
    ("cluster.epoch_ms.p90", "ms"),
    ("cluster.rounds", "count"),
    ("cluster.nic_mb", "MB"),
    ("cluster.remote_reads", "count"),
    ("cluster.degraded_reads", "count"),
    ("cluster.fallback_reads", "count"),
    ("cluster.retries", "count"),
    ("cluster.max_staleness", "rounds"),
    ("cluster.am_saving_s", "s"),
    ("quality.final_loss", "nats"),
    ("quality.eval_acc", "ratio"),
];

/// Values a workload measured, keyed by catalog name.
pub type Values = BTreeMap<&'static str, f64>;

/// Emit `catalog` into `out` in catalog order. A name the workload did
/// not measure is an error when `required` (end-to-end metrics must all
/// exist) and otherwise reads 0 (a per-layer metric of a bypassed layer).
/// A measured name missing from the catalog is an error too.
pub fn emit(
    out: &mut Outcome,
    catalog: &[(&'static str, &'static str)],
    values: &Values,
    required: bool,
) {
    for &(name, unit) in catalog {
        let value = values.get(name).copied();
        out.check(value.is_some() || !required, || {
            format!("end-to-end metric {name} was not measured")
        });
        out.push(name, value.unwrap_or(0.0), unit);
    }
    for name in values.keys() {
        out.check(catalog.iter().any(|&(n, _)| n == *name), || {
            format!("measured {name} is not in the catalog")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{valid_name, valid_unit};
    use crate::workloads::Workload;

    #[test]
    fn catalog_names_and_units_are_valid_and_unique() {
        for cat in [END_TO_END, PER_LAYER] {
            for (i, (name, unit)) in cat.iter().enumerate() {
                assert!(valid_name(name), "{name}");
                assert!(valid_unit(unit), "{unit}");
                assert!(!cat[..i].iter().any(|(n, _)| n == name), "duplicate {name}");
            }
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Vec<&str> = doc
            .split(r#""name": ""#)
            .skip(1)
            .map(|s| s.split('"').next().expect("closing quote"))
            .collect();
        let mut expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        expected.extend(END_TO_END.iter().map(|(n, _)| *n));
        expected.extend(PER_LAYER.iter().map(|(n, _)| *n));
        assert_eq!(declared, expected);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn emit_requires_end_to_end_and_zero_fills_layers() {
        let mut out = Outcome::default();
        emit(&mut out, END_TO_END, &Values::new(), true);
        assert!(!out.correct());
        let mut out = Outcome::default();
        let mut v = Values::new();
        v.insert("serve.run_ms", 3.0);
        emit(&mut out, PER_LAYER, &v, false);
        assert!(out.correct());
        assert_eq!(out.metrics.len(), PER_LAYER.len());
        assert!(out
            .metrics
            .iter()
            .all(|m| m.value == 0.0 || m.name == "serve.run_ms"));
        let mut out = Outcome::default();
        v.insert("not.declared", 1.0);
        emit(&mut out, PER_LAYER, &v, false);
        assert!(!out.correct());
    }
}
