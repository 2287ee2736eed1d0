//! Rendering of schedule traces: per-port text timelines ("Gantt charts")
//! for debugging, and an SVG port-utilization heatmap for reports.
//!
//! Each ingress port gets a row; time runs left to right in fixed-width
//! buckets; the glyph in a bucket identifies the coflow that the port spent
//! the most slots serving in that bucket (`.` = idle). There are only 62
//! alphanumeric glyphs, so traces with more coflows alias; the legend
//! appended to every timeline maps each glyph back to the exact coflow
//! indices it stands for and flags the collisions explicitly.

use crate::recorder::{record_flights, RecorderConfig};
use crate::trace::ScheduleTrace;
use std::fmt::Write as _;

const GLYPHS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// Glyph for coflow `k` (cycles through alphanumerics; see the legend for
/// collision resolution once `k ≥ 62`).
fn glyph(k: usize) -> char {
    GLYPHS[k % GLYPHS.len()] as char
}

/// Legend for the coflow indices appearing in `trace`: one `glyph=ids`
/// entry per used glyph, in glyph-cycle order. Glyphs standing for more
/// than one coflow are marked with a trailing `!` (aliasing: indices ≥ 62
/// wrap around the glyph alphabet).
pub fn render_legend(trace: &ScheduleTrace) -> String {
    let mut used: Vec<usize> = trace
        .runs
        .iter()
        .flat_map(|r| r.transfers.iter().map(|t| t.coflow()))
        .collect();
    used.sort_unstable();
    used.dedup();
    if used.is_empty() {
        return String::new();
    }
    // Group by glyph slot, preserving ascending coflow order per glyph.
    let mut by_glyph: Vec<Vec<usize>> = vec![Vec::new(); GLYPHS.len()];
    for &k in &used {
        by_glyph[k % GLYPHS.len()].push(k);
    }
    let mut out = String::from("legend (glyph=coflow ids, ! = collision):\n");
    let mut line = String::from(" ");
    let mut collisions = 0usize;
    for (slot, ids) in by_glyph.iter().enumerate() {
        if ids.is_empty() {
            continue;
        }
        let mut entry = format!(" {}=", GLYPHS[slot] as char);
        for (i, id) in ids.iter().enumerate() {
            if i > 0 {
                entry.push(',');
            }
            let _ = write!(entry, "{}", id);
        }
        if ids.len() > 1 {
            entry.push('!');
            collisions += 1;
        }
        if line.len() + entry.len() > 78 {
            out.push_str(&line);
            out.push('\n');
            line = String::from(" ");
        }
        line.push_str(&entry);
    }
    if line.len() > 1 {
        out.push_str(&line);
        out.push('\n');
    }
    if collisions > 0 {
        let _ = writeln!(
            out,
            " ({} glyph{} aliased: more than 62 coflows share the alphabet)",
            collisions,
            if collisions == 1 { "" } else { "s" },
        );
    }
    out
}

/// Renders the ingress-port timeline of `trace` using at most `width`
/// character columns, followed by the glyph legend. Returns an empty
/// string for an empty trace.
pub fn render_timeline(trace: &ScheduleTrace, width: usize) -> String {
    let makespan = trace.makespan();
    if makespan == 0 || width == 0 {
        return String::new();
    }
    let m = trace.m;
    let bucket = makespan.div_ceil(width as u64).max(1);
    let cols = makespan.div_ceil(bucket) as usize;
    // busy[port][col][coflow] -> slots; keep it simple with a map per cell.
    let mut cell: Vec<Vec<std::collections::HashMap<usize, u64>>> =
        vec![vec![std::collections::HashMap::new(); cols]; m];

    for run in &trace.runs {
        for t in &run.transfers {
            // Distribute the run's slots across buckets.
            let mut remaining = run.duration;
            let mut slot = run.start;
            while remaining > 0 {
                let col = ((slot - 1) / bucket) as usize;
                let col_end = (col as u64 + 1) * bucket;
                let here = remaining.min(col_end - (slot - 1));
                *cell[t.src()][col].entry(t.coflow()).or_insert(0) += here;
                remaining -= here;
                slot += here;
            }
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "ingress timelines, {} slots/column, makespan {}\n",
        bucket, makespan
    ));
    for (port, row) in cell.iter().enumerate() {
        out.push_str(&format!("in{:>3} |", port));
        for col in row {
            let ch = col
                .iter()
                .max_by_key(|&(_, &slots)| slots)
                .map(|(&k, _)| glyph(k))
                .unwrap_or('.');
            out.push(ch);
        }
        out.push('\n');
    }
    out.push_str(&render_legend(trace));
    out
}

/// Linear white→blue color ramp for a utilization in `[0, 1]`.
fn heat_color(u: f64) -> String {
    let u = u.clamp(0.0, 1.0);
    let r = (255.0 - 225.0 * u).round() as u32;
    let g = (255.0 - 180.0 * u).round() as u32;
    let b = (255.0 - 80.0 * u).round() as u32;
    format!("rgb({},{},{})", r, g, b)
}

/// Renders an SVG utilization heatmap of `trace`: one row per ingress port
/// then one per egress port, one column per time bucket (at most
/// `max_cols`), cell shade proportional to the port's busy fraction in the
/// bucket. Pure function of the trace — no clocks, no randomness — so the
/// output is byte-stable and diffable. Returns an empty string for an
/// empty trace.
pub fn render_svg_heatmap(trace: &ScheduleTrace, max_cols: usize) -> String {
    let makespan = trace.makespan();
    if makespan == 0 || max_cols == 0 {
        return String::new();
    }
    let bucket = makespan.div_ceil(max_cols as u64).max(1);
    let cfg = RecorderConfig {
        bucket,
        max_events_per_coflow: 1,
    };
    // Totals/releases do not affect the port series; pass empty coflow data.
    let rec = record_flights(trace, &[], &[], &[], &cfg);
    let ports = &rec.ports;
    let m = trace.m;
    let cols = ports.buckets;

    const CW: usize = 8; // cell width, px
    const CH: usize = 8; // cell height, px
    const LEFT: usize = 52; // label gutter
    const TOP: usize = 18; // title row
    const GAP: usize = 12; // gap between the ingress and egress blocks
    let width = LEFT + cols * CW + 8;
    let height = TOP + 2 * m * CH + GAP + 26;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
         font-family=\"monospace\" font-size=\"9\">",
        width, height
    );
    let _ = writeln!(
        out,
        "<text x=\"2\" y=\"11\">port utilization heatmap: {} ports, makespan {}, \
         {} slots/bucket</text>",
        m, makespan, bucket
    );
    for (block, label) in [(0usize, "in"), (1usize, "eg")] {
        for p in 0..m {
            let y = TOP + block * (m * CH + GAP) + p * CH;
            // Label every 8th row to keep the gutter readable.
            if p % 8 == 0 {
                let _ = writeln!(
                    out,
                    "<text x=\"2\" y=\"{}\">{}{:>3}</text>",
                    y + CH - 1,
                    label,
                    p
                );
            }
            for c in 0..cols {
                let u = if block == 0 {
                    ports.ingress_utilization(p, c, makespan)
                } else {
                    ports.egress_utilization(p, c, makespan)
                };
                if u <= 0.0 {
                    continue; // idle cells keep the background
                }
                let _ = writeln!(
                    out,
                    "<rect x=\"{}\" y=\"{}\" width=\"{}\" height=\"{}\" fill=\"{}\"/>",
                    LEFT + c * CW,
                    y,
                    CW,
                    CH,
                    heat_color(u)
                );
            }
        }
    }
    let axis_y = TOP + 2 * m * CH + GAP + 12;
    let _ = writeln!(
        out,
        "<text x=\"{}\" y=\"{}\">slot 1</text><text x=\"{}\" y=\"{}\" \
         text-anchor=\"end\">slot {}</text>",
        LEFT,
        axis_y,
        LEFT + cols * CW,
        axis_y,
        makespan
    );
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Run, Transfer};

    #[test]
    fn renders_single_run() {
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 2,
            transfers: Box::new([
                Transfer::new(0, 1, 0).unwrap(),
                Transfer::new(1, 0, 1).unwrap(),
            ]),
        });
        trace.push_run(Run {
            start: 3,
            duration: 2,
            transfers: Box::new([Transfer::new(0, 1, 0).unwrap()]),
        });
        let text = render_timeline(&trace, 80);
        assert!(text.contains("in  0 |0000"));
        assert!(text.contains("in  1 |11.."));
        assert!(text.contains("legend"));
        assert!(text.contains("0=0"));
        assert!(text.contains("1=1"));
    }

    #[test]
    fn buckets_compress_long_traces() {
        let mut trace = ScheduleTrace::new(1);
        trace.push_run(Run {
            start: 1,
            duration: 1000,
            transfers: Box::new([Transfer::new(0, 0, 3).unwrap()]),
        });
        let text = render_timeline(&trace, 10);
        // 1000 slots in <= 10 columns of 100.
        assert!(text.contains("slots/column"));
        let line = text.lines().nth(1).unwrap();
        assert!(line.len() <= "in  0 |".len() + 10);
        assert!(line.contains('3'));
    }

    #[test]
    fn empty_trace_renders_empty() {
        assert_eq!(render_timeline(&ScheduleTrace::new(3), 40), "");
        assert_eq!(render_legend(&ScheduleTrace::new(3)), "");
        assert_eq!(render_svg_heatmap(&ScheduleTrace::new(3), 40), "");
    }

    #[test]
    fn consecutive_runs_fill_consecutive_buckets() {
        // Coflow 0 occupies the first bucket, coflow 1 the second.
        let mut trace = ScheduleTrace::new(1);
        for k in 0..2 {
            trace.push_run(Run {
                start: k as u64 + 1,
                duration: 1,
                transfers: Box::new([Transfer::new(0, 0, k).unwrap()]),
            });
        }
        let text = render_timeline(&trace, 2);
        assert!(text.contains("|01"), "{}", text);
    }

    #[test]
    fn legend_marks_glyph_collisions() {
        // Coflows 5 and 67 share glyph '5' (67 % 62 = 5); coflow 3 is alone.
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 1,
            transfers: Box::new([
                Transfer::new(0, 1, 5).unwrap(),
                Transfer::new(1, 0, 3).unwrap(),
            ]),
        });
        trace.push_run(Run {
            start: 2,
            duration: 1,
            transfers: Box::new([Transfer::new(0, 1, 67).unwrap()]),
        });
        let legend = render_legend(&trace);
        assert!(legend.contains("5=5,67!"), "{}", legend);
        assert!(legend.contains("3=3"), "{}", legend);
        assert!(!legend.contains("3=3!"), "{}", legend);
        assert!(legend.contains("aliased"), "{}", legend);
    }

    #[test]
    fn svg_heatmap_is_well_formed_and_deterministic() {
        let mut trace = ScheduleTrace::new(2);
        trace.push_run(Run {
            start: 1,
            duration: 2,
            transfers: Box::new([
                Transfer::new(0, 1, 0).unwrap(),
                Transfer::new(1, 0, 1).unwrap(),
            ]),
        });
        trace.push_run(Run {
            start: 3,
            duration: 2,
            transfers: Box::new([Transfer::new(0, 1, 0).unwrap()]),
        });
        let a = render_svg_heatmap(&trace, 16);
        let b = render_svg_heatmap(&trace, 16);
        assert_eq!(a, b);
        assert!(a.starts_with("<svg "));
        assert!(a.trim_end().ends_with("</svg>"));
        assert_eq!(a.matches("<svg ").count(), 1);
        // Fully busy ingress 0 renders saturated cells; idle cells are
        // omitted entirely.
        assert!(a.contains("rgb(30,75,175)"));
    }
}
