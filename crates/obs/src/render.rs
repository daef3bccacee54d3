//! Exposition renderers: Prometheus text format and JSONL.
//!
//! Both renderers walk the registry snapshot in sorted (name, label-set)
//! order, so output bytes are a pure function of registry content. With
//! `include_timing == false` every timing-flagged family is omitted, which
//! is what makes the deterministic exposition byte-identical across
//! `BR_THREADS=1` and `8` for the same work.

use std::fmt::Write as _;

use crate::registry::{FamilySnapshot, LabelSet, Registry, SampleValue};

/// Render `reg` in Prometheus text exposition format.
pub(crate) fn render_prometheus(reg: &Registry, include_timing: bool) -> String {
    let mut out = String::new();
    for fam in visible(reg, include_timing) {
        let _ = writeln!(out, "# HELP {} {}", fam.name, escape_help(&fam.help));
        let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.as_str());
        for (labels, value) in &fam.samples {
            match value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {}", fam.name, label_block(labels, None), v);
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{}{} {}",
                        fam.name,
                        label_block(labels, None),
                        fmt_f64(*v)
                    );
                }
                SampleValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    let mut cumulative = 0u64;
                    for (bound, n) in bounds.iter().zip(counts.iter()) {
                        cumulative += n;
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            fam.name,
                            label_block(labels, Some(&bound.to_string())),
                            cumulative
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        fam.name,
                        label_block(labels, Some("+Inf")),
                        count
                    );
                    let _ = writeln!(out, "{}_sum{} {}", fam.name, label_block(labels, None), sum);
                    let _ = writeln!(
                        out,
                        "{}_count{} {}",
                        fam.name,
                        label_block(labels, None),
                        count
                    );
                }
            }
        }
    }
    out
}

/// Render `reg` as JSONL: one JSON object per metric sample, in the same
/// deterministic order as the Prometheus renderer.
pub(crate) fn render_jsonl(reg: &Registry, include_timing: bool) -> String {
    let mut out = String::new();
    for fam in visible(reg, include_timing) {
        for (labels, value) in &fam.samples {
            out.push_str("{\"type\":\"metric\",\"name\":");
            push_json_str(&mut out, &fam.name);
            let _ = write!(out, ",\"kind\":\"{}\",\"labels\":", fam.kind.as_str());
            push_json_labels(&mut out, labels);
            match value {
                SampleValue::Counter(v) => {
                    let _ = write!(out, ",\"value\":{v}");
                }
                SampleValue::Gauge(v) => {
                    out.push_str(",\"value\":");
                    push_json_f64(&mut out, *v);
                }
                SampleValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    out.push_str(",\"le\":[");
                    for (i, b) in bounds.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{b}");
                    }
                    out.push_str("],\"counts\":[");
                    for (i, c) in counts.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{c}");
                    }
                    let _ = write!(out, "],\"sum\":{sum},\"count\":{count}");
                }
            }
            out.push_str("}\n");
        }
    }
    out
}

fn visible(reg: &Registry, include_timing: bool) -> Vec<FamilySnapshot> {
    reg.snapshot()
        .into_iter()
        .filter(|fam| include_timing || !fam.timing)
        .collect()
}

/// Format a `{label="value",...}` block, optionally with a trailing `le`
/// label (histogram buckets). Empty when there are no labels at all.
fn label_block(labels: &LabelSet, le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Deterministic float text: Rust's shortest-roundtrip formatting, with an
/// explicit spelling for the non-finite values Prometheus accepts.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_json_labels(out: &mut String, labels: &LabelSet) {
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        push_json_str(out, v);
    }
    out.push('}');
}

/// JSON has no NaN/Inf literals; represent non-finite gauges as null so the
/// log stays parseable.
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}
