//! Metric definitions, run reports, repeat summaries and the comparator.
//!
//! The two tables below are the benchmark's metric contract; a test checks
//! that they match `BENCHMARK.json` name for name, unit for unit and bound
//! for bound.

use crate::workload::Workload;
use obs::json::{fmt_f64, parse, quote, JsonValue};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `compare` judges a metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Rule {
    /// May worsen by this share of the base median before it is a
    /// regression.
    Bound(f64),
    /// A count that must repeat bit for bit on the same seeds.
    Exact,
    /// Reported for attribution only.
    Info,
}

/// One metric of the contract.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Comparison rule.
    pub rule: Rule,
}

const fn spec(name: &'static str, unit: &'static str, better: Better, rule: Rule) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        rule,
    }
}

use Better::{Higher, Lower};
use Rule::{Bound, Exact, Info};

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: [MetricSpec; 7] = [
    spec("setup_s", "s", Lower, Bound(0.25)),
    spec("sched_ms_p50", "ms", Lower, Bound(0.24)),
    spec("coflows_per_s", "coflows/s", Higher, Bound(0.24)),
    spec("decide_us_p50", "us", Lower, Bound(0.24)),
    spec("decide_us_p99", "us", Lower, Bound(0.24)),
    spec("twct_ratio", "ratio", Lower, Bound(0.10)),
    spec("heap_mib_p50", "MiB", Lower, Bound(0.10)),
];

/// Metrics of a traced run (`--trace 1`). Times and counts are means per
/// instance unless the name says otherwise.
pub const PER_LAYER: [MetricSpec; 21] = [
    spec("workloads.gen_ms", "ms", Lower, Info),
    spec("sched.total_ms", "ms", Lower, Info),
    spec("sched.build_ms", "ms", Lower, Info),
    spec("sched.decide_ms", "ms", Lower, Info),
    spec("sched.decisions", "count", Lower, Exact),
    spec("sched.decisions_per_kslot", "1/kslot", Lower, Exact),
    spec("engine.exec_ms", "ms", Lower, Info),
    spec("engine.replans", "count", Lower, Exact),
    spec("netsim.makespan_slots", "slots", Lower, Exact),
    spec("verify.ms", "ms", Lower, Info),
    spec("lp.build_pct", "%", Lower, Info),
    spec("lp.solve_pct", "%", Lower, Info),
    spec("lp.pivots", "count", Lower, Exact),
    spec("lp.cache_exact_hits", "count", Higher, Exact),
    spec("lp.cache_misses", "count", Lower, Exact),
    spec("matching.bvn_pct", "%", Lower, Info),
    spec("matching.permutations", "count", Lower, Exact),
    spec("matching.hk_augmenting_paths", "count", Lower, Exact),
    spec("mem.alloc_calls_per_coflow", "1/coflow", Lower, Info),
    spec("mem.peak_live_mib", "MiB", Lower, Info),
    spec("trace.overhead_pct", "%", Lower, Info),
];

/// Looks a metric up in either table.
pub(crate) fn spec_of(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|s| s.name == name)
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (a key of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A value of the named metric; the unit comes from the tables.
    pub(crate) fn new(name: &'static str, value: f64) -> Metric {
        let spec = spec_of(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        Metric {
            name,
            unit: spec.unit,
            value,
        }
    }
}

/// The result of one measurement run of one workload.
#[derive(Clone, Debug)]
pub struct Report {
    /// The workload measured.
    pub workload: Workload,
    /// Base seed.
    pub seed: u64,
    /// Instances attempted in the measured loop.
    pub attempted: usize,
    /// One line per failed instance (seed and reason).
    pub failures: Vec<String>,
    /// Median host slowdown over the measured schedules (1 = reference
    /// speed; see `host`).
    pub host_slowdown: f64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// True when every attempted instance passed every check and every
    /// value is finite.
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.failures.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Value of a metric by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Human-readable lines: one per metric, name, value and unit.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "{} seed {}: {} instances, {} failed, host slowdown {:.3}\n",
            self.workload.name(),
            self.seed,
            self.attempted,
            self.failures.len(),
            self.host_slowdown
        );
        for m in &self.metrics {
            out += &format!("  {:<30} {:>14.4} {}\n", m.name, m.value, m.unit);
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`,
    /// `metrics`. Non-finite values (no instance succeeded) print as 0 and
    /// the run is marked incorrect.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    fmt_f64(v),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// Linear-interpolation quantile of an ascending slice; NaN when empty.
pub(crate) fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Geometric mean; NaN when empty.
pub(crate) fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median and quartiles of repeated runs, by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// Spread of `values` (any order, at least one).
    pub fn of(values: &[f64]) -> Spread {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        if v.len() < 2 {
            let x = v.first().copied().unwrap_or(f64::NAN);
            return Spread {
                q1: x,
                median: x,
                q3: x,
            };
        }
        let n = v.len() as f64;
        let at = |i: f64| {
            // statistics.quantiles, method="exclusive": position i(n+1)/4.
            let pos = i * (n + 1.0) / 4.0;
            let j = (pos.floor() as usize).clamp(1, v.len() - 1);
            let frac = (pos - j as f64).clamp(0.0, 1.0);
            v[j - 1] + (v[j] - v[j - 1]) * frac
        };
        Spread {
            q1: at(1.0),
            median: at(2.0),
            q3: at(3.0),
        }
    }

    /// Interquartile distance as a share of the median.
    fn relative(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// Every run of one workload in a `run --repeat` summary.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadRuns {
    /// Workload name.
    pub name: String,
    /// Instances attempted, summed over runs.
    pub attempted: u64,
    /// Failed instances, summed over runs.
    pub failed: u64,
    /// `(metric, unit, value per run)`.
    pub metrics: Vec<(String, String, Vec<f64>)>,
}

/// A `run` summary file: provenance header plus every run's values.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// `(key, JSON value)` provenance pairs, rendered verbatim.
    pub header: Vec<(String, String)>,
    /// One entry per workload.
    pub workloads: Vec<WorkloadRuns>,
}

/// Schema tag of summary files.
const SUMMARY_SCHEMA: &str = "coflow-benchmark/1";

impl Summary {
    /// Renders the summary as JSON, with each metric's median and
    /// quartiles next to its raw values.
    pub fn to_json(&self) -> String {
        let header: Vec<String> = self
            .header
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), v))
            .collect();
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|w| {
                let metrics: Vec<String> = w
                    .metrics
                    .iter()
                    .map(|(name, unit, values)| {
                        let s = Spread::of(values);
                        let vals: Vec<String> = values.iter().map(|&v| fmt_f64(v)).collect();
                        format!(
                            "      {{\"name\": {}, \"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}",
                            quote(name),
                            quote(unit),
                            fmt_f64(s.median),
                            fmt_f64(s.q1),
                            fmt_f64(s.q3),
                            vals.join(", ")
                        )
                    })
                    .collect();
                format!(
                    "    {{\"name\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": [\n{}\n    ]}}",
                    quote(&w.name),
                    w.attempted,
                    w.failed,
                    metrics.join(",\n")
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": {},\n  \"header\": {{{}}},\n  \"workloads\": [\n{}\n  ]\n}}\n",
            quote(SUMMARY_SCHEMA),
            header.join(", "),
            workloads.join(",\n")
        )
    }

    /// Parses a summary written by [`Summary::to_json`].
    pub fn parse(text: &str) -> Result<Summary, String> {
        let doc = parse(text).map_err(|e| e.to_string())?;
        match doc.get("schema") {
            Some(JsonValue::Str(s)) if s == SUMMARY_SCHEMA => {}
            _ => return Err(format!("not a {SUMMARY_SCHEMA} summary")),
        }
        let header = match doc.get("header") {
            Some(JsonValue::Obj(pairs)) => pairs
                .iter()
                .map(|(k, v)| (k.clone(), render_scalar(v)))
                .collect(),
            _ => return Err("missing header".into()),
        };
        let Some(JsonValue::Arr(items)) = doc.get("workloads") else {
            return Err("missing workloads".into());
        };
        let workloads = items
            .iter()
            .map(|w| {
                let metrics = match w.get("metrics") {
                    Some(JsonValue::Arr(ms)) => ms
                        .iter()
                        .map(|m| {
                            let values = match m.get("values") {
                                Some(JsonValue::Arr(vs)) => {
                                    vs.iter().map(num).collect::<Result<Vec<_>, _>>()?
                                }
                                _ => return Err("metric without values".to_string()),
                            };
                            Ok((str_field(m, "name")?, str_field(m, "unit")?, values))
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                    _ => return Err("workload without metrics".into()),
                };
                Ok(WorkloadRuns {
                    name: str_field(w, "name")?,
                    attempted: num(w.get("attempted").unwrap_or(&JsonValue::Null))? as u64,
                    failed: num(w.get("failed").unwrap_or(&JsonValue::Null))? as u64,
                    metrics,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Summary { header, workloads })
    }
}

fn num(v: &JsonValue) -> Result<f64, String> {
    match v {
        JsonValue::Num(s) => s.parse().map_err(|_| format!("bad number {s}")),
        other => Err(format!("expected a number, found {}", other.kind())),
    }
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(JsonValue::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing string field {key}")),
    }
}

fn render_scalar(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Num(s) => s.clone(),
        JsonValue::Str(s) => quote(s),
        other => quote(other.kind()),
    }
}

/// Verdict of one metric or one workload in a comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within the bound (or an identical count).
    Unchanged,
    /// Better by more than the bound (or a count moved the right way).
    Improved,
    /// The spread of either side is wider than the bound.
    Unresolved,
    /// Worse by more than the bound (or a count moved the wrong way).
    Worse,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// One metric of one workload, judged.
#[derive(Clone, Debug, PartialEq)]
pub struct Judged {
    /// Metric name.
    pub metric: String,
    /// Base median.
    pub base: f64,
    /// New median.
    pub new: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one metric: base runs against new runs.
pub(crate) fn judge(spec: &MetricSpec, base: &[f64], new: &[f64]) -> Verdict {
    let (b, n) = (Spread::of(base), Spread::of(new));
    // Signed change in the metric's "better" direction, as a share of base.
    let gain = match spec.better {
        Better::Lower => (b.median - n.median) / b.median.abs(),
        Better::Higher => (n.median - b.median) / b.median.abs(),
    };
    let all_better = base.iter().all(|&x| {
        new.iter().all(|&y| match spec.better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    match spec.rule {
        Rule::Info => Verdict::Unchanged,
        Rule::Exact if base == new || gain == 0.0 => Verdict::Unchanged,
        Rule::Exact if gain > 0.0 => Verdict::Improved,
        Rule::Exact => Verdict::Worse,
        Rule::Bound(bound) if b.relative() > bound || n.relative() > bound => {
            if all_better {
                Verdict::Improved
            } else {
                Verdict::Unresolved
            }
        }
        Rule::Bound(bound) if gain < -bound => Verdict::Worse,
        Rule::Bound(bound) if gain > bound => Verdict::Improved,
        Rule::Bound(_) => Verdict::Unchanged,
    }
}

/// Compares two summaries workload by workload. Returns, per workload in
/// both, the overall verdict (the worst of its metrics) and each judged
/// metric.
pub fn compare(base: &Summary, new: &Summary) -> Vec<(String, Verdict, Vec<Judged>)> {
    base.workloads
        .iter()
        .filter_map(|bw| {
            let nw = new.workloads.iter().find(|w| w.name == bw.name)?;
            let judged: Vec<Judged> = bw
                .metrics
                .iter()
                .filter_map(|(name, _, bvals)| {
                    let spec = spec_of(name)?;
                    let (_, _, nvals) = nw.metrics.iter().find(|(n, ..)| n == name)?;
                    Some(Judged {
                        metric: name.clone(),
                        base: Spread::of(bvals).median,
                        new: Spread::of(nvals).median,
                        verdict: judge(spec, bvals, nvals),
                    })
                })
                .collect();
            let mut overall = judged
                .iter()
                .map(|j| j.verdict)
                .max()
                .unwrap_or(Verdict::Unchanged);
            if bw.failed + nw.failed > 0 {
                overall = Verdict::Worse;
            }
            Some((bw.name.clone(), overall, judged))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            Spread::of(&v),
            Spread {
                q1: 2.75,
                median: 5.5,
                q3: 8.25
            }
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(
            Spread::of(&[3.0, 1.0, 2.0]),
            Spread {
                q1: 1.0,
                median: 2.0,
                q3: 3.0
            }
        );
    }

    #[test]
    fn quantile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn judge_applies_bounds_spreads_and_exact_rules() {
        let timed = spec("t", "ms", Lower, Bound(0.10));
        assert_eq!(
            judge(&timed, &[100.0, 101.0, 99.0], &[104.0, 105.0, 103.0]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&timed, &[100.0, 101.0, 99.0], &[120.0, 121.0, 119.0]),
            Verdict::Worse
        );
        assert_eq!(
            judge(&timed, &[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0]),
            Verdict::Improved
        );
        assert_eq!(
            judge(&timed, &[60.0, 100.0, 140.0], &[100.0, 101.0, 99.0]),
            Verdict::Unresolved
        );
        let count = spec("c", "count", Lower, Exact);
        assert_eq!(judge(&count, &[7.0, 7.0], &[7.0, 7.0]), Verdict::Unchanged);
        assert_eq!(judge(&count, &[7.0, 7.0], &[8.0, 8.0]), Verdict::Worse);
    }

    #[test]
    fn summary_round_trips() {
        let s = Summary {
            header: vec![
                ("seed".into(), "2015".into()),
                ("git_rev".into(), quote("abc")),
            ],
            workloads: vec![WorkloadRuns {
                name: "offline-alg2".into(),
                attempted: 4,
                failed: 0,
                metrics: vec![("sched_ms_p50".into(), "ms".into(), vec![1.5, 1.25])],
            }],
        };
        assert_eq!(Summary::parse(&s.to_json()).unwrap(), s);
    }
}
