//! Paper-figure-style rendering of tables and pipelines.
//!
//! The examples and the `repro` binary print programs the way the paper's
//! figures draw them: a header row of attribute names with a `|` separating
//! match columns from action columns, then one line per entry.

use crate::attr::AttrId;
use crate::pipeline::Pipeline;
use crate::table::Table;
use crate::value::Value;

/// Render a cell the way the paper's figures write it: IPv4-looking
/// 32-bit fields as dotted quads, short prefixes in the binary-star
/// notation (`0*`, `10*`), everything else via [`Value`]'s `Display`.
pub(crate) fn render_cell(p: &Pipeline, attr: AttrId, v: &Value) -> String {
    // A set-field action's parameter lives in the *target* field's domain;
    // borrow its rendering rules (a NAT rewrite shows as a dotted quad).
    let a = match &p.catalog.attr(attr).kind {
        crate::attr::AttrKind::Action(crate::attr::ActionSem::SetField(t)) => p.catalog.attr(*t),
        _ => p.catalog.attr(attr),
    };
    let ipish = a.width == 32 && (a.name.contains("ip") || a.name.contains("nw"));
    match v {
        Value::Int(x) if ipish => format!(
            "{}.{}.{}.{}",
            (x >> 24) & 0xff,
            (x >> 16) & 0xff,
            (x >> 8) & 0xff,
            x & 0xff
        ),
        Value::Prefix { bits, len } if ipish && *len <= 4 => {
            // Paper notation: top bits in binary followed by a star.
            let mut s = String::new();
            for i in 0..*len {
                s.push(if (bits >> (31 - i)) & 1 == 1 {
                    '1'
                } else {
                    '0'
                });
            }
            s.push('*');
            s
        }
        Value::Prefix { bits, len } if ipish => format!(
            "{}.{}.{}.{}/{}",
            (bits >> 24) & 0xff,
            (bits >> 16) & 0xff,
            (bits >> 8) & 0xff,
            bits & 0xff,
            len
        ),
        other => other.to_string(),
    }
}

/// Render one table.
pub(crate) fn render_table(p: &Pipeline, t: &Table) -> String {
    let mut cols: Vec<String> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &a in &t.match_attrs {
        cols.push(p.catalog.name(a).to_owned());
    }
    for &a in &t.action_attrs {
        cols.push(p.catalog.name(a).to_owned());
    }
    for e in &t.entries {
        let mut r = Vec::new();
        for (i, v) in e.matches.iter().enumerate() {
            r.push(render_cell(p, t.match_attrs[i], v));
        }
        for (i, v) in e.actions.iter().enumerate() {
            r.push(render_cell(p, t.action_attrs[i], v));
        }
        rows.push(r);
    }
    let nm = t.match_attrs.len();
    let widths: Vec<usize> = cols
        .iter()
        .enumerate()
        .map(|(i, c)| {
            rows.iter()
                .map(|r| r[i].len())
                .chain(std::iter::once(c.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();

    let fmt_row = |cells: &[String]| -> String {
        let mut s = String::from("| ");
        for (i, cell) in cells.iter().enumerate() {
            if i == nm && nm > 0 && i < cells.len() {
                s.push_str("| ");
            }
            s.push_str(&format!("{:width$} ", cell, width = widths[i]));
        }
        s.push('|');
        s
    };

    let mut out = String::new();
    let header = fmt_row(&cols);
    out.push_str(&format!("table {}:\n", t.name));
    out.push_str(&header);
    out.push('\n');
    out.push_str(&"-".repeat(header.len()));
    out.push('\n');
    for r in &rows {
        out.push_str(&fmt_row(r));
        out.push('\n');
    }
    if let Some(n) = &t.next {
        out.push_str(&format!("(then: {n})\n"));
    }
    out
}

/// Render a whole pipeline, start table first.
pub fn render_pipeline(p: &Pipeline) -> String {
    let mut out = format!("pipeline (start: {}):\n", p.start);
    for t in &p.tables {
        out.push_str(&render_table(p, t));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{ActionSem, Catalog};
    use crate::table::Table;
    use crate::value::Value;

    #[test]
    fn renders_header_and_rows() {
        let mut c = Catalog::new();
        let f = c.field("ip_dst", 32);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t0", vec![f], vec![out]);
        t.row(vec![Value::Int(1)], vec![Value::sym("vm1")]);
        let p = Pipeline::single(c, t);
        let s = render_pipeline(&p);
        assert!(s.contains("table t0:"));
        assert!(s.contains("ip_dst"));
        assert!(s.contains("vm1"));
        assert!(s.contains("0.0.0.1")); // ip-named 32-bit fields render dotted
    }

    #[test]
    fn ip_fields_rendered_like_the_paper() {
        let mut c = Catalog::new();
        let src = c.field("ip_src", 32);
        let dst = c.field("ip_dst", 32);
        let out = c.action("out", ActionSem::Output);
        let mut t = Table::new("t0", vec![src, dst], vec![out]);
        t.row(
            vec![Value::prefix(0x8000_0000, 1, 32), Value::Int(0xc000_0201)],
            vec![Value::sym("vm2")],
        );
        t.row(
            vec![Value::prefix(0x0a00_0000, 8, 32), Value::Int(0xc000_0202)],
            vec![Value::sym("vm3")],
        );
        let p = Pipeline::single(c, t);
        let s = render_pipeline(&p);
        assert!(s.contains("1*"), "{s}");
        assert!(s.contains("192.0.2.1"), "{s}");
        assert!(s.contains("10.0.0.0/8"), "{s}");
    }

    #[test]
    fn set_field_params_render_in_target_domain() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let ip = c.field("ip_dst", 32);
        let set = c.action("set_ip", ActionSem::SetField(ip));
        let mut t = Table::new("t", vec![f], vec![set]);
        t.row(vec![Value::Int(1)], vec![Value::Int(0x0a00_0001)]);
        let p = Pipeline::single(c, t);
        assert!(render_pipeline(&p).contains("10.0.0.1"));
    }

    #[test]
    fn next_annotation_rendered() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let mut t = Table::new("t0", vec![f], vec![]);
        t.row(vec![Value::Any], vec![]);
        t.next = Some("t1".into());
        let mut t1 = Table::new("t1", vec![f], vec![]);
        t1.row(vec![Value::Any], vec![]);
        let p = Pipeline::new(c, vec![t, t1], "t0");
        assert!(render_pipeline(&p).contains("(then: t1)"));
    }
}
