//! The result of one benchmark run and its printed form: a table of every
//! metric by name and unit, then one JSON object as the last line.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]`, starting with a letter or digit).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit (`[A-Za-z0-9_/%.-]`).
    pub unit: &'static str,
}

/// What a run reports: its metrics, the operations it attempted and how
/// many failed, and the correctness checks that did not hold.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (batches, requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Record a correctness check; a false `ok` is a violation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Whether every check held and every metric is well formed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.malformed().is_empty()
    }

    /// Problems with the metric set itself: bad names or units, duplicate
    /// names, or values that are not finite.
    pub fn malformed(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if !valid_name(m.name) {
                bad.push(format!("invalid metric name {:?}", m.name));
            }
            if !valid_unit(m.unit) {
                bad.push(format!("invalid unit {:?} on {}", m.unit, m.name));
            }
            if !m.value.is_finite() {
                bad.push(format!("{} is not finite: {}", m.name, m.value));
            }
            if self.metrics[..i].iter().any(|o| o.name == m.name) {
                bad.push(format!("duplicate metric {}", m.name));
            }
        }
        bad
    }

    /// The human-readable table followed by the final JSON line.
    pub fn render(&self, header: &str) -> String {
        let mut out = format!("{header}\n");
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in &self.metrics {
            writeln!(out, "  {:<width$}  {:>16}  {}", m.name, m.value, m.unit).expect("String");
        }
        for v in self.violations.iter().chain(&self.malformed()) {
            writeln!(out, "  CHECK FAILED: {v}").expect("String");
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    /// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
    pub fn json(&self) -> String {
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Rust's shortest round-trip formatting keeps every digit; a
            // non-finite value (already a check failure) is written as
            // null so the line stays valid JSON.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            write!(
                out,
                r#"{sep}"{}": {{"value": {value}, "unit": "{}"}}"#,
                m.name, m.unit
            )
            .expect("String");
        }
        out.push_str("}}");
        out
    }
}

/// A metric or workload name: 1–64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// A unit: 1–16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// Peak resident set of this process in MB (`VmHWM`), Linux only.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_the_allowed_alphabet() {
        for ok in [
            "setup_s",
            "nn.l0.fwd_ms.p50",
            "tensor.matmul_a_bt.gflops",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "ms/step",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn units_follow_the_allowed_alphabet() {
        for ok in ["ms", "s", "1/s", "MB", "%", "GFLOP/s", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "17-characters-xxx"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn json_line_has_the_four_keys_and_full_digits() {
        let mut o = Outcome {
            attempted: 3,
            ..Default::default()
        };
        o.push("latency_ms", 1.203_456_789_012_3, "ms");
        o.push("setup_s", 0.5, "s");
        assert_eq!(
            o.json(),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034567890123, "unit": "ms"}, "setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
        assert!(o.render("t").ends_with(&format!("{}\n", o.json())));
    }

    #[test]
    fn malformed_metrics_and_failed_checks_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.push("ok", 1.0, "s");
        assert!(o.correct());
        o.push("ok", 2.0, "s");
        assert!(!o.correct(), "duplicate name");
        let mut o = Outcome::default();
        o.push("nan", f64::NAN, "s");
        assert!(!o.correct());
        assert!(o.json().contains(r#""nan": {"value": null"#));
        let mut o = Outcome::default();
        o.check(false, || "serve lost a request".into());
        assert!(!o.correct());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb().expect("linux /proc") > 0.0);
    }
}
