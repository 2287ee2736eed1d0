//! Self-contained HTML dashboard over the run ledger.
//!
//! [`render_dash`] turns a loaded ledger history into **one** HTML string
//! with inline CSS and inline SVG — no external assets, no scripts, so
//! the file can be committed, attached to a PR, or opened from a tmpfs
//! with identical results (the same constraint as the explain layer's SVG
//! sink).
//!
//! Layout, top to bottom:
//!
//! * stat tiles — runs on ledger, last command, last peak RSS, last
//!   elapsed wall-clock;
//! * per-stage trend sparklines (small multiples, one per pipeline
//!   stage): exclusive wall-clock across run records, newest right, with
//!   regression dots where [`judge`] under the `dash` scope of the rule
//!   table flags a value against its predecessor;
//! * memory trajectory sparklines: peak live bytes, peak RSS, allocation
//!   calls;
//! * objective comparison table for the latest run carrying objectives,
//!   with bit-exact change markers against the previous comparable run;
//! * verdict history (gate outcomes, newest first).
//!
//! Colors follow the repo's dataviz conventions: one blue series hue for
//! timing, the orange slot for memory, reserved status colors (with text
//! markers, never color alone) for verdicts, and a `prefers-color-scheme`
//! dark mode driven by CSS custom properties.

use crate::gate::{judge, Kind, Metric, Scope};
use obs::ledger::LedgerRecord;
use std::fmt::Write as _;

/// True when `cur` regresses against `prev` as a `kind` row named `key`
/// under the `dash` scope of the rule table.
fn jumped(kind: Kind, key: &str, prev: f64, cur: f64) -> bool {
    let row = |value| {
        [Metric {
            key: key.to_string(),
            kind,
            value,
        }]
    };
    judge(&row(prev), &row(cur), Scope::of("dash"))
        .iter()
        .any(|r| r.regressed)
}

/// Sparkline geometry (CSS pixels inside the SVG viewBox).
const SPARK_W: f64 = 260.0;
const SPARK_H: f64 = 56.0;
const SPARK_PAD: f64 = 6.0;

/// Escapes text for HTML element and attribute contexts.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Human-scaled value label for sparkline captions.
fn fmt_value(v: f64, unit: &str) -> String {
    match unit {
        "ms" => {
            if v >= 1000.0 {
                format!("{:.2} s", v / 1000.0)
            } else {
                format!("{:.1} ms", v)
            }
        }
        "bytes" => {
            if v >= 1024.0 * 1024.0 {
                format!("{:.1} MiB", v / (1024.0 * 1024.0))
            } else if v >= 1024.0 {
                format!("{:.1} KiB", v / 1024.0)
            } else {
                format!("{:.0} B", v)
            }
        }
        "kb" => format!("{:.1} MiB", v / 1024.0),
        "ratio" => format!("{:.3}", v),
        _ => {
            if v >= 1_000_000.0 {
                format!("{:.2} M", v / 1_000_000.0)
            } else if v >= 1_000.0 {
                format!("{:.1} k", v / 1_000.0)
            } else {
                format!("{:.0}", v)
            }
        }
    }
}

/// One series point: x-position label (seq) and value.
struct Point {
    seq: u64,
    value: f64,
}

/// Renders one sparkline panel: title, latest-value direct label, inline
/// SVG polyline with per-point hover tooltips, and regression-annotation
/// dots where a point, as a `kind` row named `key`, regresses against its
/// predecessor.
fn spark_panel(
    title: &str,
    points: &[Point],
    unit: &str,
    color_var: &str,
    (kind, key): (Kind, &str),
) -> String {
    let mut out = String::new();
    let latest = points.last().map(|p| p.value).unwrap_or(0.0);
    let _ = write!(
        out,
        "<div class=\"panel\"><div class=\"panel-head\"><span class=\"panel-title\">{}</span>\
         <span class=\"panel-value\">{}</span></div>",
        esc(title),
        esc(&fmt_value(latest, unit)),
    );
    let lo = points.iter().map(|p| p.value).fold(f64::INFINITY, f64::min);
    let hi = points
        .iter()
        .map(|p| p.value)
        .fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let n = points.len();
    let x = |i: usize| {
        if n <= 1 {
            SPARK_W / 2.0
        } else {
            SPARK_PAD + (SPARK_W - 2.0 * SPARK_PAD) * i as f64 / (n - 1) as f64
        }
    };
    let y = |v: f64| SPARK_H - SPARK_PAD - (SPARK_H - 2.0 * SPARK_PAD) * (v - lo) / span;
    let _ = write!(
        out,
        "<svg viewBox=\"0 0 {} {}\" width=\"{}\" height=\"{}\" role=\"img\" \
         aria-label=\"{} trend\">",
        SPARK_W,
        SPARK_H,
        SPARK_W,
        SPARK_H,
        esc(title)
    );
    // Baseline hairline.
    let _ = write!(
        out,
        "<line x1=\"{}\" y1=\"{:.1}\" x2=\"{}\" y2=\"{:.1}\" class=\"axis\"/>",
        SPARK_PAD,
        SPARK_H - SPARK_PAD,
        SPARK_W - SPARK_PAD,
        SPARK_H - SPARK_PAD
    );
    let coords: Vec<String> = points
        .iter()
        .enumerate()
        .map(|(i, p)| format!("{:.1},{:.1}", x(i), y(p.value)))
        .collect();
    let _ = write!(
        out,
        "<polyline points=\"{}\" fill=\"none\" stroke=\"var({})\" stroke-width=\"2\" \
         stroke-linejoin=\"round\" stroke-linecap=\"round\"/>",
        coords.join(" "),
        color_var
    );
    // Per-point hover targets with native tooltips; regression dots where
    // the jump breaks the row's rule.
    for (i, p) in points.iter().enumerate() {
        let regressed = i > 0 && jumped(kind, key, points[i - 1].value, p.value);
        if regressed {
            let _ = write!(
                out,
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"4\" fill=\"var(--status-critical)\">\
                 <title>seq {}: {} (+{:.0}% vs prev) — regression</title></circle>",
                x(i),
                y(p.value),
                p.seq,
                esc(&fmt_value(p.value, unit)),
                (p.value / points[i - 1].value - 1.0) * 100.0,
            );
        } else {
            let _ = write!(
                out,
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"8\" fill=\"transparent\">\
                 <title>seq {}: {}</title></circle>",
                x(i),
                y(p.value),
                p.seq,
                esc(&fmt_value(p.value, unit)),
            );
        }
    }
    out.push_str("</svg></div>");
    out
}

/// Extracts the trend of one stage across run records.
fn stage_series(runs: &[&LedgerRecord], stage: &str) -> Vec<Point> {
    runs.iter()
        .filter_map(|r| {
            r.stages_ms
                .iter()
                .find(|(s, _)| s == stage)
                .map(|(_, v)| Point {
                    seq: r.seq,
                    value: *v,
                })
        })
        .collect()
}

/// Renders the full dashboard HTML for a loaded ledger history.
pub fn render_dash(records: &[LedgerRecord], title: &str) -> String {
    let runs: Vec<&LedgerRecord> = records.iter().filter(|r| r.kind == "run").collect();
    let verdicts: Vec<&LedgerRecord> = records.iter().filter(|r| r.kind == "verdict").collect();

    let mut body = String::new();

    // --- Stat tiles -------------------------------------------------------
    body.push_str("<section class=\"tiles\">");
    let tile = |label: &str, value: String| {
        format!(
            "<div class=\"tile\"><div class=\"tile-value\">{}</div>\
             <div class=\"tile-label\">{}</div></div>",
            esc(&value),
            esc(label)
        )
    };
    body.push_str(&tile("runs on ledger", runs.len().to_string()));
    body.push_str(&tile("gate verdicts", verdicts.len().to_string()));
    if let Some(last) = runs.last() {
        body.push_str(&tile("last command", last.command.clone()));
        body.push_str(&tile("last wall-clock", fmt_value(last.elapsed_ms, "ms")));
        body.push_str(&tile(
            "last peak RSS",
            fmt_value(last.peak_rss_kb as f64, "kb"),
        ));
    }
    body.push_str("</section>");

    // --- Per-stage trends -------------------------------------------------
    let mut stage_names: Vec<&str> = Vec::new();
    for r in &runs {
        for (s, _) in &r.stages_ms {
            if !stage_names.contains(&s.as_str()) {
                stage_names.push(s);
            }
        }
    }
    if !stage_names.is_empty() {
        body.push_str("<h2>Stage wall-clock trends</h2><section class=\"panels\">");
        for stage in &stage_names {
            let points = stage_series(&runs, stage);
            if points.is_empty() {
                continue;
            }
            body.push_str(&spark_panel(
                stage,
                &points,
                "ms",
                "--series-1",
                (Kind::Wall, stage),
            ));
        }
        body.push_str("</section>");
    }

    // --- Tournament TWCT-ratio trends -------------------------------------
    // One sparkline per registry policy, fed by the `ratio/NAME` objective
    // entries of `tournament` run records: the measured approximation
    // ratio against the interval-LP lower bound, newest right. Regression
    // dots follow the shared icon+tooltip convention (never color alone).
    let tournament_runs: Vec<&LedgerRecord> = runs
        .iter()
        .copied()
        .filter(|r| r.command == "tournament")
        .collect();
    let mut ratio_policies: Vec<String> = Vec::new();
    for r in &tournament_runs {
        for (label, _) in &r.objectives {
            if let Some(name) = label.strip_prefix("ratio/") {
                if !ratio_policies.iter().any(|p| p == name) {
                    ratio_policies.push(name.to_string());
                }
            }
        }
    }
    if !ratio_policies.is_empty() {
        body.push_str(
            "<h2>Tournament TWCT ratios (vs interval-LP lower bound)</h2>\
             <section class=\"panels\">",
        );
        for name in &ratio_policies {
            let key = format!("ratio/{}", name);
            let points: Vec<Point> = tournament_runs
                .iter()
                .filter_map(|r| {
                    r.objectives
                        .iter()
                        .find(|(l, _)| l == &key)
                        .map(|(_, v)| Point {
                            seq: r.seq,
                            value: *v,
                        })
                })
                .collect();
            if points.is_empty() {
                continue;
            }
            // The ratio trend is marked like a timing trend; its `ratio/`
            // row in the table has no floor.
            body.push_str(&spark_panel(
                &format!("{} ratio", name),
                &points,
                "ratio",
                "--series-1",
                (Kind::Wall, &key),
            ));
        }
        body.push_str("</section>");
    }

    // --- Memory trajectories ----------------------------------------------
    type Extract = fn(&LedgerRecord) -> f64;
    let mem_series: [(&str, &str, Extract); 3] = [
        ("peak live bytes", "bytes", |r| r.peak_live_bytes as f64),
        ("peak RSS", "kb", |r| r.peak_rss_kb as f64),
        ("allocation calls", "count", |r| r.alloc_calls as f64),
    ];
    body.push_str("<h2>Memory trajectories</h2><section class=\"panels\">");
    for (name, unit, extract) in &mem_series {
        let points: Vec<Point> = runs
            .iter()
            .map(|r| Point {
                seq: r.seq,
                value: extract(r),
            })
            .filter(|p| p.value > 0.0)
            .collect();
        if points.is_empty() {
            continue;
        }
        // Memory annotations use a ratio-only rule; the floor is folded
        // into filtering zero samples above.
        body.push_str(&spark_panel(
            name,
            &points,
            unit,
            "--series-2",
            (Kind::Alloc, name),
        ));
    }
    body.push_str("</section>");

    // --- Objective comparison table ---------------------------------------
    let with_obj: Vec<&&LedgerRecord> = runs.iter().filter(|r| !r.objectives.is_empty()).collect();
    if let Some(latest) = with_obj.last() {
        let prev = with_obj
            .iter()
            .rev()
            .skip(1)
            .find(|r| r.command == latest.command);
        body.push_str(&format!(
            "<h2>Objectives — latest {} run (seq {})</h2>",
            esc(&latest.command),
            latest.seq
        ));
        body.push_str(
            "<table><thead><tr><th>cell</th><th class=\"num\">objective</th>\
             <th>vs previous</th></tr></thead><tbody>",
        );
        for (label, value) in &latest.objectives {
            let marker = match prev.and_then(|p| {
                p.objectives
                    .iter()
                    .find(|(l, _)| l == label)
                    .map(|(_, v)| *v)
            }) {
                Some(pv) if pv.to_bits() == value.to_bits() => {
                    "<span class=\"ok\">&#10003; bit-identical</span>".to_string()
                }
                Some(pv) => format!(
                    "<span class=\"bad\">&#10007; changed (was {:.2})</span>",
                    pv
                ),
                None => "<span class=\"muted\">new</span>".to_string(),
            };
            body.push_str(&format!(
                "<tr><td>{}</td><td class=\"num\">{:.2}</td><td>{}</td></tr>",
                esc(label),
                value,
                marker
            ));
        }
        body.push_str("</tbody></table>");
    }

    // --- Verdict history --------------------------------------------------
    if !verdicts.is_empty() {
        body.push_str("<h2>Gate verdicts</h2>");
        body.push_str(
            "<table><thead><tr><th>seq</th><th>gate</th><th>outcome</th>\
             <th>detail</th></tr></thead><tbody>",
        );
        for v in verdicts.iter().rev() {
            let failed = v.verdicts.iter().any(|(_, s)| s != "pass");
            let outcome = if failed {
                "<span class=\"bad\">&#10007; fail</span>"
            } else {
                "<span class=\"ok\">&#10003; pass</span>"
            };
            let detail: Vec<String> = v
                .verdicts
                .iter()
                .filter(|(k, _)| k != "overall")
                .map(|(k, s)| format!("{}={}", esc(k), esc(s)))
                .collect();
            body.push_str(&format!(
                "<tr><td class=\"num\">{}</td><td>{}</td><td>{}</td><td class=\"muted\">{}</td></tr>",
                v.seq,
                esc(&v.command),
                outcome,
                detail.join(" ")
            ));
        }
        body.push_str("</tbody></table>");
    }

    // --- Footer provenance ------------------------------------------------
    let footer = records
        .last()
        .map(|r| {
            format!(
                "ledger tail: seq {}, git {}{}",
                r.seq,
                esc(&r.git_rev[..r.git_rev.len().min(10)]),
                if r.git_dirty { " (dirty)" } else { "" }
            )
        })
        .unwrap_or_else(|| "empty ledger".to_string());

    format!(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n\
         <title>{title}</title>\n<style>\n{css}\n</style>\n</head>\n\
         <body class=\"viz-root\">\n<h1>{title}</h1>\n{body}\n\
         <footer>{footer}</footer>\n</body>\n</html>\n",
        title = esc(title),
        css = CSS,
        body = body,
        footer = footer,
    )
}

/// Inline stylesheet: CSS custom properties per role, light values by
/// default, dark values under `prefers-color-scheme` and a `data-theme`
/// override (toggle beats OS setting both ways).
const CSS: &str = "\
:root { color-scheme: light; }
.viz-root {
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;
  --gridline: #e1e0d9; --baseline: #c3c2b7;
  --series-1: #2a78d6; --series-2: #eb6834;
  --status-good: #0ca30c; --status-critical: #d03b3b;
  background: var(--page); color: var(--text-primary);
  font-family: system-ui, -apple-system, \"Segoe UI\", sans-serif;
  margin: 0; padding: 24px; line-height: 1.45;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme=\"light\"])) .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
    --gridline: #2c2c2a; --baseline: #383835;
    --series-1: #3987e5; --series-2: #d95926;
  }
}
:root[data-theme=\"dark\"] .viz-root {
  color-scheme: dark;
  --surface-1: #1a1a19; --page: #0d0d0d;
  --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;
  --gridline: #2c2c2a; --baseline: #383835;
  --series-1: #3987e5; --series-2: #d95926;
}
h1 { font-size: 20px; margin: 0 0 16px; }
h2 { font-size: 15px; margin: 28px 0 10px; color: var(--text-secondary); }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.tile { background: var(--surface-1); border: 1px solid var(--gridline);
  border-radius: 8px; padding: 12px 18px; min-width: 120px; }
.tile-value { font-size: 22px; }
.tile-label { font-size: 12px; color: var(--text-muted); }
.panels { display: flex; flex-wrap: wrap; gap: 12px; }
.panel { background: var(--surface-1); border: 1px solid var(--gridline);
  border-radius: 8px; padding: 10px 14px; }
.panel-head { display: flex; justify-content: space-between; gap: 16px;
  margin-bottom: 4px; }
.panel-title { font-size: 13px; color: var(--text-secondary); }
.panel-value { font-size: 13px; color: var(--text-primary); }
.axis { stroke: var(--baseline); stroke-width: 1; }
table { border-collapse: collapse; background: var(--surface-1);
  border: 1px solid var(--gridline); border-radius: 8px; font-size: 13px; }
th, td { padding: 6px 14px; text-align: left;
  border-bottom: 1px solid var(--gridline); }
th { color: var(--text-muted); font-weight: 500; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.ok { color: var(--status-good); }
.bad { color: var(--status-critical); }
.muted { color: var(--text-muted); }
footer { margin-top: 32px; font-size: 12px; color: var(--text-muted); }
";

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seq: u64, lp_solve_ms: f64) -> LedgerRecord {
        LedgerRecord {
            seq,
            kind: "run".to_string(),
            command: "profile".to_string(),
            elapsed_ms: lp_solve_ms * 3.0,
            peak_rss_kb: 40_000 + seq * 100,
            peak_live_bytes: 8_000_000 + seq * 1000,
            alloc_calls: 1_000_000 + seq,
            stages_ms: vec![
                ("lp_solve".to_string(), lp_solve_ms),
                ("simulate".to_string(), lp_solve_ms / 2.0),
            ],
            objectives: vec![("H_LP/d".to_string(), 6950481.0)],
            ..LedgerRecord::default()
        }
    }

    #[test]
    fn dash_is_self_contained_with_trend_sparklines() {
        let records = vec![run(1, 100.0), run(2, 104.0), run(3, 98.0)];
        let html = render_dash(&records, "coflow runs");
        // Self-contained: no external fetches of any kind.
        for needle in ["http://", "https://", "src=", "@import", "url("] {
            assert!(
                !html.contains(needle),
                "external reference via {:?}",
                needle
            );
        }
        // At least two sparklines (one per stage + memory panels).
        assert!(html.matches("<svg").count() >= 2, "needs >= 2 sparklines");
        assert!(html.contains("<polyline"));
        // Dark mode is authored, not auto-flipped.
        assert!(html.contains("prefers-color-scheme: dark"));
        assert!(html.contains("data-theme"));
        assert!(html.contains("lp_solve"));
    }

    #[test]
    fn regression_dots_mark_tolerance_jumps() {
        // seq 3 jumps +100% and > 10 ms over seq 2: annotated.
        let records = vec![run(1, 100.0), run(2, 100.0), run(3, 200.0)];
        let html = render_dash(&records, "t");
        assert!(html.contains("— regression"));
        // Flat history: no annotation.
        let flat = vec![run(1, 100.0), run(2, 100.0), run(3, 100.0)];
        assert!(!render_dash(&flat, "t").contains("— regression"));
    }

    fn tournament_run(seq: u64, sg_ratio: f64) -> LedgerRecord {
        LedgerRecord {
            seq,
            kind: "run".to_string(),
            command: "tournament".to_string(),
            stages_ms: vec![("shafiee-ghaderi".to_string(), 4.0)],
            objectives: vec![
                ("twct/shafiee-ghaderi".to_string(), 12345.0),
                ("ratio/shafiee-ghaderi".to_string(), sg_ratio),
                ("twct/im-purohit".to_string(), 12000.0),
                ("ratio/im-purohit".to_string(), 1.1),
            ],
            ..LedgerRecord::default()
        }
    }

    #[test]
    fn tournament_ratio_sparklines_render_per_policy() {
        let records = vec![
            run(1, 100.0),
            tournament_run(2, 1.21),
            tournament_run(3, 1.24),
        ];
        let html = render_dash(&records, "t");
        assert!(html.contains("Tournament TWCT ratios"));
        assert!(html.contains("shafiee-ghaderi ratio"));
        assert!(html.contains("im-purohit ratio"));
        // Ratio values keep their precision in the direct labels.
        assert!(html.contains("1.240"));
        // No tournament runs -> no empty section header.
        let html = render_dash(&[run(1, 100.0)], "t");
        assert!(!html.contains("Tournament TWCT ratios"));
    }

    #[test]
    fn objective_table_marks_bit_identical_cells() {
        let records = vec![run(1, 100.0), run(2, 100.0)];
        let html = render_dash(&records, "t");
        assert!(html.contains("bit-identical"));
        let mut drift = vec![run(1, 100.0), run(2, 100.0)];
        drift[1].objectives[0].1 = 6950482.0;
        let html = render_dash(&drift, "t");
        assert!(html.contains("changed"));
    }

    #[test]
    fn verdicts_render_with_icon_and_label() {
        let mut records = vec![run(1, 100.0)];
        records.push(LedgerRecord {
            seq: 2,
            kind: "verdict".to_string(),
            command: "check-perf".to_string(),
            verdicts: vec![("overall".to_string(), "fail".to_string())],
            ..LedgerRecord::default()
        });
        let html = render_dash(&records, "t");
        // Status is never color-alone: icon + word accompany the class.
        assert!(html.contains("&#10007; fail"));
        // Hostile strings in labels stay escaped.
        let mut hostile = vec![run(1, 100.0)];
        hostile[0].command = "<script>alert(1)</script>".to_string();
        let html = render_dash(&hostile, "<t>");
        assert!(!html.contains("<script>alert"));
    }
}
