//! Metric definitions and the result line.
//!
//! Every run prints a human-readable table and then, as its last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Untraced
//! runs carry every [`END_TO_END`] metric, traced runs every [`PER_LAYER`]
//! metric; `BENCHMARK.json` at the repository root declares the same names
//! and units (a unit test keeps the two in step).

use std::collections::BTreeMap;

use crate::util::Checks;

/// One metric: name, unit and whether lower values are better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Whether lower is better (otherwise higher is).
    pub lower_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: false,
    }
}

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
    higher("throughput_per_s", "1/s"),
    lower("latency_p50_us", "us"),
];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: &[MetricDef] = &[
    lower("core.map_s", "s"),
    lower("core.route_s", "s"),
    lower("core.schedule_s", "s"),
    lower("core.route_err_s", "s"),
    lower("core.route_errs", "count"),
    lower("core.compile_calls", "count"),
    higher("core.routable_ratio", "ratio"),
    lower("core.lower_s", "s"),
    lower("core.movement_ops", "count"),
    lower("core.self_s", "s"),
    lower("sim.dem_build_s", "s"),
    lower("sim.dem_mechanisms", "count"),
    lower("sim.sample_s", "s/100k"),
    lower("sim.self_s", "s"),
    lower("decoder.graph_build_s", "s"),
    lower("decoder.memo_warm_s", "s"),
    lower("decoder.decode_s", "s/100k"),
    lower("decoder.estimate_s", "s/100k"),
    higher("decoder.parallel_eff", "ratio"),
    higher("decoder.memo_hit_ratio", "ratio"),
    higher("decoder.dense_hit_ratio", "ratio"),
    lower("decoder.cluster_conflict_ratio", "ratio"),
    lower("decoder.uncacheable_frac", "ratio"),
    higher("decoder.quiet_words", "count"),
    higher("decoder.sparse_words", "count"),
    lower("decoder.dense_words", "count"),
    lower("decoder.self_s", "s"),
    lower("service.submit_s", "s"),
    lower("service.p50_us", "us"),
    lower("service.p99_us", "us"),
    lower("service.stage.batcher_wait_us", "us"),
    lower("service.stage.decode_us", "us"),
    lower("service.stage.delivery_us", "us"),
    higher("service.full_word_flushes", "count"),
    lower("service.deadline_flushes", "count"),
    lower("service.self_s", "s"),
    lower("net.submit_s", "s"),
    lower("net.p50_overhead_us", "us"),
    lower("net.protocol_errors", "count"),
    lower("net.self_s", "s"),
    lower("bench.gen_lag_p99_us", "us"),
    lower("bench.trace_overhead", "ratio"),
    lower("bench.spans", "count"),
    lower("bench.self_s", "s"),
];

/// The metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Values {
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    /// Sets a metric's value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Renders `value` as a JSON number with every digit (non-finite values,
/// which no metric should produce, become 0 so the line stays valid JSON).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line for `defs`; errs when nothing was checked or a defined
/// metric was not measured or measured as a non-finite number.
///
/// # Errors
///
/// Names the missing or non-finite metrics.
pub fn result_line(checks: &Checks, defs: &[MetricDef], values: &Values) -> Result<String, String> {
    if checks.attempted == 0 {
        return Err("no operation was checked".to_string());
    }
    let bad: Vec<&str> = defs
        .iter()
        .filter(|d| !values.get(d.name).is_some_and(f64::is_finite))
        .map(|d| d.name)
        .collect();
    if !bad.is_empty() {
        return Err(format!("metrics not measured: {}", bad.join(", ")));
    }
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let value = values.get(d.name).expect("checked above");
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(value),
                d.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    ))
}

/// The printed table: one line per metric with its value, unit and
/// direction.
pub fn table(defs: &[MetricDef], values: &Values) -> Vec<String> {
    defs.iter()
        .map(|d| {
            let value = values
                .get(d.name)
                .map_or("-".to_string(), |v| format!("{v:.6}"));
            let arrow = if d.lower_is_better { "lower" } else { "higher" };
            format!(
                "  {:<32} {:>18} {:<7} ({arrow} is better)",
                d.name, value, d.unit
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// Whether `name` is a legal metric name: 1–64 characters from
    /// `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok_char)
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "illegal metric name {}", def.name);
            assert!(seen.insert(def.name), "duplicate metric name {}", def.name);
            assert!(
                !def.unit.is_empty() && def.unit.len() <= 16,
                "unit of {}",
                def.name
            );
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name("service.stage.batcher_wait_us"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "BENCHMARK.json lacks {entry}"
            );
            let better = if def.lower_is_better {
                "lower"
            } else {
                "higher"
            };
            let with_direction = format!("{entry}, \"better\": \"{better}\"");
            assert!(
                BENCHMARK_JSON.contains(&with_direction),
                "direction of {}",
                def.name
            );
        }
        let declared = BENCHMARK_JSON.matches("\"name\": ").count();
        let workloads = BENCHMARK_JSON.matches("\"why\": ").count();
        assert_eq!(declared, workloads + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut checks = Checks::default();
        checks.attempt(3);
        let mut values = Values::default();
        for (i, def) in END_TO_END.iter().enumerate() {
            values.set(def.name, 1.5 + i as f64);
        }
        let line = result_line(&checks, END_TO_END, &values).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        values.set("latency_p50_us", f64::NAN);
        assert!(result_line(&checks, END_TO_END, &values).is_err());
        checks.fail(1, "wrong output");
        values.set("latency_p50_us", 2.0);
        let line = result_line(&checks, END_TO_END, &values).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"));
    }
}
