//! Attribution self-test: does the traced table put time where it is spent?
//!
//! Two replicas of `sage-fresh` run interleaved epoch by epoch; one adds a
//! fixed sleep inside the benchmark's own `loader` wrapper (no program
//! code changes). The `loader` row must move by the delay and every other
//! layer by less than half of it, and the delay must not change a single
//! loss bit.

use crate::replica::Replica;
use crate::report::Outcome;
use crate::spans::per_step_self_ms;
use crate::stats::{median, quartiles};
use crate::train::LAYER_SPANS;
use crate::workloads::{materialize, Seeds, TrainSpec, Workload};
use std::time::Duration;

const DELAY: Duration = Duration::from_millis(40);
const WARMUP_EPOCHS: usize = 1;
const MEASURED_EPOCHS: usize = 4;

/// Median and interquartile range of the per-step self time (ms) of each
/// layer span from `first_step` on.
fn layer_stats(rep: &Replica, first_step: u64) -> Vec<(f64, f64)> {
    let per = per_step_self_ms(rep.rec.spans());
    LAYER_SPANS
        .iter()
        .map(|(span, _, _)| {
            let samples: Vec<f64> = per
                .get(span)
                .map(|s| s.range(first_step..).map(|(_, &ms)| ms).collect())
                .unwrap_or_default();
            let iqr = quartiles(&samples).map_or(0.0, |[q1, _, q3]| q3 - q1);
            (median(&samples), iqr)
        })
        .collect()
}

/// Run the self-test, recording its shifts as metrics and its verdicts as
/// checks.
pub fn check(seed: u64, out: &mut Outcome) {
    let w = Workload::SageFresh;
    let spec = TrainSpec::of(w).expect("training workload");
    let seeds = Seeds::from(seed);
    let ds = materialize(w.dataset_spec(), seeds);
    let mut base = Replica::new(&ds, spec.clone(), seeds.model);
    let mut delayed = Replica::new(&ds, spec, seeds.model);
    delayed.loader_delay = DELAY;
    let mut first_step = 0;
    for e in 0..WARMUP_EPOCHS + MEASURED_EPOCHS {
        if e == WARMUP_EPOCHS {
            first_step = base.step;
        }
        let (a, b) = match (base.epoch(), delayed.epoch()) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(err), _) | (_, Err(err)) => {
                out.check(false, || format!("epoch {e} failed: {err}"));
                return;
            }
        };
        out.attempted += 1;
        out.check(
            a.loss.to_bits() == b.loss.to_bits() && a.wire_bytes == b.wire_bytes,
            || format!("the delay changed epoch {e}'s results"),
        );
    }
    let delay_ms = DELAY.as_secs_f64() * 1e3;
    let (a, b) = (
        layer_stats(&base, first_step),
        layer_stats(&delayed, first_step),
    );
    let mut max_other: f64 = 0.0;
    for (((span, _, _), &(x, noise)), &(y, _)) in LAYER_SPANS.iter().zip(&a).zip(&b) {
        let shift = y - x;
        println!(
            "  {span:<14} base {x:>10.3} ms (IQR {noise:>8.3})  delayed {y:>10.3} ms  shift {shift:>+9.3} ms"
        );
        if *span == "loader" {
            out.push("attribution.loader_shift_ms", shift, "ms");
            out.check((shift - delay_ms).abs() <= 0.2 * delay_ms, || {
                format!("loader moved by {shift} ms, not by the {delay_ms} ms delay")
            });
        } else {
            max_other = max_other.max(shift.abs());
            out.check(shift.abs() < 0.5 * delay_ms, || {
                format!("{span} moved by {shift} ms under a delay added to loader")
            });
        }
    }
    out.push("attribution.delay_ms", delay_ms, "ms");
    out.push("attribution.max_other_shift_ms", max_other, "ms");
}
