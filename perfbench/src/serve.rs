//! `serve-zipf`: an open-loop request trace through `ServeEngine`.
//!
//! Requests arrive on the simulated clock whatever the server does, so a
//! slow server builds a queue; latency is measured from each request's
//! arrival. Every pass builds a fresh engine (that is the set-up) and
//! serves the whole trace; the passes must report identically.

use crate::catalog::Values;
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::workloads::{
    materialize, serve_config, serve_trace, Seeds, Workload, SERVE_HIDDEN, SERVE_NOMINAL_PASS_S,
};
use fgnn_graph::NodeId;
use fgnn_memsim::presets::Machine;
use freshgnn::serve::Request;
use freshgnn::{ServeEngine, ServeReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// Passes over the trace for a `seconds`-long run (at least three, so
/// set-up has a median).
fn passes(seconds: f64) -> usize {
    ((seconds / SERVE_NOMINAL_PASS_S).round() as usize).max(3)
}

/// The `n` most requested nodes of `trace` (ties by node id): what an
/// operator provisions into the cache before opening for traffic.
fn hottest(trace: &[Request], n: usize) -> Vec<NodeId> {
    let mut counts: BTreeMap<NodeId, u64> = BTreeMap::new();
    for r in trace {
        *counts.entry(r.node).or_default() += 1;
    }
    let mut by_count: Vec<(u64, NodeId)> = counts.into_iter().map(|(n, c)| (c, n)).collect();
    by_count.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    by_count.into_iter().take(n).map(|(_, n)| n).collect()
}

/// What one pass measured.
struct Pass {
    report: ServeReport,
    run_s: f64,
    /// Latency of every offered request; a shed request counts at its
    /// deadline (it missed the limit).
    latency_ms: Vec<f64>,
    /// Per-request stage durations from the engine's request spans.
    stage_ms: BTreeMap<String, Vec<f64>>,
    busy_s: f64,
    wire_bytes: u64,
}

/// Run the serving workload.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &mut Outcome) -> (Values, Values) {
    let seeds = Seeds::from(seed);
    let mut e2e = Values::new();
    let mut layers = Values::new();
    let mut setup_s = Vec::new();
    let mut done: Vec<Pass> = Vec::new();
    for _ in 0..passes(seconds) {
        let t0 = Instant::now();
        let ds = materialize(Workload::ServeZipf.dataset_spec(), seeds);
        let cfg = serve_config(&ds, seeds);
        let trace = serve_trace(&cfg);
        let warm = hottest(&trace, cfg.freshness.cache_capacity);
        let mut engine = match ServeEngine::new(&ds, SERVE_HIDDEN, Machine::single_a100(), cfg) {
            Ok(e) => e,
            Err(e) => {
                out.check(false, || format!("serve config rejected: {e}"));
                return (e2e, layers);
            }
        };
        engine.warm(&warm);
        setup_s.push(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        let report = match engine.run(&trace) {
            Ok(r) => r,
            Err(e) => {
                out.attempted += trace.len() as u64;
                out.failed += trace.len() as u64;
                out.check(false, || format!("serve run failed: {e}"));
                return (e2e, layers);
            }
        };
        let run_s = t1.elapsed().as_secs_f64();
        done.push(measure(&engine, &trace, report, run_s));
    }

    let first = &done[0];
    let r = &first.report;
    for (i, p) in done.iter().enumerate().skip(1) {
        out.check(p.report == *r, || {
            format!("pass {i} reported differently from pass 0")
        });
    }
    out.check(r.sla_violations == 0, || {
        format!(
            "{} requests served past their staleness budget",
            r.sla_violations
        )
    });
    out.check(r.served + r.shed_total() == r.offered, || {
        format!(
            "served {} + shed {} != offered {}",
            r.served,
            r.shed_total(),
            r.offered
        )
    });
    out.check(first.latency_ms.len() as u64 == r.offered, || {
        format!(
            "{} request spans for {} offered",
            first.latency_ms.len(),
            r.offered
        )
    });
    out.attempted += r.offered;
    out.failed += r.shed_total() + r.deadline_misses + r.sla_violations;

    let run_s: Vec<f64> = done.iter().map(|p| p.run_s).collect();
    e2e.insert("setup_s", median(&setup_s));
    layers.insert("host.items_per_s", r.offered as f64 / median(&run_s));
    e2e.insert("sim_pass_s", first.busy_s);
    e2e.insert("wire_mb_per_pass", first.wire_bytes as f64 / 1e6);
    e2e.insert("sim_p50_ms", percentile(&first.latency_ms, 50.0));
    e2e.insert("sim_p99_ms", percentile(&first.latency_ms, 99.0));

    if traced {
        for (stage, p50, p99) in [
            (
                "queue_wait",
                "serve.queue_wait_ms.p50",
                "serve.queue_wait_ms.p99",
            ),
            (
                "embed_lookup",
                "serve.embed_lookup_ms.p50",
                "serve.embed_lookup_ms.p99",
            ),
            (
                "recompute",
                "serve.recompute_ms.p50",
                "serve.recompute_ms.p99",
            ),
        ] {
            let samples = first.stage_ms.get(stage).cloned().unwrap_or_default();
            layers.insert(p50, percentile(&samples, 50.0));
            layers.insert(p99, percentile(&samples, 99.0));
        }
        let hit_ratio = r.cache_hits as f64 / r.served.max(1) as f64;
        layers.insert("serve.hit_ratio", hit_ratio);
        layers.insert("serve.shed_rate_limited", r.shed_rate_limited as f64);
        layers.insert("serve.shed_queue_full", r.shed_queue_full as f64);
        layers.insert("serve.shed_deadline", r.shed_deadline as f64);
        layers.insert("serve.degraded_served", r.degraded_served as f64);
        layers.insert("serve.run_ms", median(&run_s) * 1e3);
        // The serving path reads the same ring cache the trainer does.
        layers.insert("cache.hit_ratio", hit_ratio);
    }
    (e2e, layers)
}

fn measure(engine: &ServeEngine, trace: &[Request], report: ServeReport, run_s: f64) -> Pass {
    let mut latency_ms = Vec::with_capacity(trace.len());
    let mut stage_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let by_id: BTreeMap<u64, &Request> = trace.iter().map(|r| (r.id, r)).collect();
    for s in engine.request_tracer().spans() {
        match &*s.name {
            "request" => latency_ms.push(s.dur_ns as f64 / 1e6),
            "shed" => {
                let id = s.args.iter().find(|(k, _)| *k == "id").map(|&(_, v)| v);
                if let Some(r) = id.and_then(|id| by_id.get(&id)) {
                    latency_ms.push((r.deadline_ns - r.arrival_ns) as f64 / 1e6);
                }
            }
            "queue_wait" | "embed_lookup" | "recompute" => {
                let ms = s.dur_ns as f64 / 1e6;
                stage_ms.entry(s.name.to_string()).or_default().push(ms);
            }
            _ => {}
        }
    }
    // Server busy time on the simulated clock: the sum of batch service
    // intervals (the serving counterpart of an epoch's GPU stream).
    let busy_ns: u64 = engine
        .obs
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "batch")
        .map(|s| s.dur_ns)
        .sum();
    let wire_bytes = engine
        .obs
        .metrics
        .counter("serve.transfer.h2d_bytes")
        .unwrap_or(0);
    Pass {
        report,
        run_s,
        latency_ms,
        stage_ms,
        busy_s: busy_ns as f64 / 1e9,
        wire_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hottest_orders_by_count_then_id() {
        let req = |id, node| Request {
            id,
            node,
            arrival_ns: id,
            deadline_ns: id + 1,
            priority: freshgnn::serve::Priority::Normal,
            staleness_budget_ms: 100,
        };
        let trace = [
            req(0, 5),
            req(1, 3),
            req(2, 5),
            req(3, 3),
            req(4, 9),
            req(5, 1),
        ];
        assert_eq!(hottest(&trace, 3), vec![3, 5, 1]);
        assert_eq!(passes(0.0), 3);
    }
}
