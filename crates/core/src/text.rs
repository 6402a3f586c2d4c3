//! A human-writable text format for match-action programs (`.mat`).
//!
//! JSON (serde) is the machine format; this is the one you type. Example —
//! Fig. 1b in eleven lines:
//!
//! ```text
//! field ip_src 32
//! field ip_dst 32
//! field tcp_dst 16
//! action jump goto
//! action out output
//!
//! table t0 [ip_dst tcp_dst | jump]
//!   192.0.2.1 80  | t1
//!   192.0.2.3 22  | t3
//! table t1 [ip_src | out]
//!   0*            | vm1
//!   1*            | vm2
//! table t3 [ip_src | out]
//!   *             | vm6
//! start t0
//! ```
//!
//! Cell syntax: `*` (any), decimal / `0x…` integers, dotted quads,
//! `addr/len` prefixes, `10*` binary prefixes (left-aligned at the field's
//! width), and bare words for symbolic action parameters. `-` in an action
//! column means "no-op in this entry". An action cell is read by its
//! column's kind: `output`/`goto` parameters are always symbols (port `1`
//! is the symbol `1`, not an integer). Declarations:
//! `field NAME WIDTH`, `meta NAME WIDTH`,
//! `action NAME output|goto|opaque|set TARGET`,
//! `table NAME [matches | actions] [miss=drop|controller|fall:TBL] [next=TBL]`,
//! and `start NAME`. `#` starts a comment.

use crate::attr::{ActionSem, AttrId, AttrKind, Catalog};
use crate::pipeline::Pipeline;
use crate::table::{MissPolicy, Table};
use crate::value::Value;
use std::fmt;

/// A parse failure with its line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

/// Parse a `.mat` program.
///
/// ```
/// let p = mapro_core::parse_program(r#"
///     field dst 8
///     action out output
///     table t0 [dst | out]
///       1 | left
///       2 | right
/// "#).unwrap();
/// let pkt = mapro_core::Packet::from_fields(&p.catalog, &[("dst", 2)]);
/// assert_eq!(p.run(&pkt).unwrap().output.as_deref(), Some("right"));
/// ```
pub fn parse_program(src: &str) -> Result<Pipeline, ParseError> {
    let mut catalog = Catalog::new();
    let mut tables: Vec<Table> = Vec::new();
    let mut start: Option<String> = None;

    for (ln, raw) in src.lines().enumerate() {
        let ln = ln + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks[0] {
            "field" | "meta" => {
                if toks.len() != 3 {
                    return err(ln, format!("{} NAME WIDTH", toks[0]));
                }
                let width: u32 = toks[2].parse().map_err(|_| ParseError {
                    line: ln,
                    msg: format!("bad width {:?}", toks[2]),
                })?;
                if width > 64 {
                    return err(ln, "width exceeds 64");
                }
                if catalog.lookup(toks[1]).is_some() {
                    return err(ln, format!("duplicate attribute {:?}", toks[1]));
                }
                let kind = if toks[0] == "field" {
                    AttrKind::Field
                } else {
                    AttrKind::Meta
                };
                catalog.add(toks[1], kind, width);
            }
            "action" => {
                if toks.len() < 3 {
                    return err(ln, "action NAME output|goto|opaque|set TARGET");
                }
                if catalog.lookup(toks[1]).is_some() {
                    return err(ln, format!("duplicate attribute {:?}", toks[1]));
                }
                let sem = match toks[2] {
                    "output" => ActionSem::Output,
                    "goto" => ActionSem::Goto,
                    "opaque" => ActionSem::Opaque,
                    "set" => {
                        let target = toks.get(3).ok_or(ParseError {
                            line: ln,
                            msg: "set needs a TARGET field".into(),
                        })?;
                        let id = catalog.lookup(target).ok_or(ParseError {
                            line: ln,
                            msg: format!("unknown set target {target:?}"),
                        })?;
                        if !catalog.attr(id).kind.is_matchable() {
                            return err(ln, format!("set target {target:?} is not a field"));
                        }
                        ActionSem::SetField(id)
                    }
                    other => return err(ln, format!("unknown action kind {other:?}")),
                };
                catalog.action(toks[1], sem);
            }
            "table" => {
                // table NAME [a b | c d] miss=… next=…
                let open = line.find('[').ok_or(ParseError {
                    line: ln,
                    msg: "table needs a [matches | actions] schema".into(),
                })?;
                let close = line.find(']').ok_or(ParseError {
                    line: ln,
                    msg: "unterminated schema".into(),
                })?;
                if close < open {
                    return err(ln, "schema closes with `]` before it opens with `[`");
                }
                let name = line[5..open].trim();
                if name.is_empty() {
                    return err(ln, "table needs a name");
                }
                if tables.iter().any(|t| t.name == name) {
                    return err(ln, format!("duplicate table {name:?}"));
                }
                let schema = &line[open + 1..close];
                let (ms, as_) = match schema.split_once('|') {
                    Some((m, a)) => (m, a),
                    None => (schema, ""),
                };
                let resolve = |names: &str, want_match: bool| -> Result<Vec<AttrId>, ParseError> {
                    names
                        .split_whitespace()
                        .map(|n| {
                            let id = catalog.lookup(n).ok_or(ParseError {
                                line: ln,
                                msg: format!("unknown attribute {n:?}"),
                            })?;
                            let is_match = catalog.attr(id).kind.is_matchable();
                            if is_match != want_match {
                                return err(
                                    ln,
                                    format!(
                                        "{n:?} is {} the | separator's wrong side",
                                        if want_match {
                                            "an action on"
                                        } else {
                                            "a field on"
                                        }
                                    ),
                                );
                            }
                            Ok(id)
                        })
                        .collect()
                };
                let mut t = Table::new(name, resolve(ms, true)?, resolve(as_, false)?);
                for opt in line[close + 1..].split_whitespace() {
                    if let Some(m) = opt.strip_prefix("miss=") {
                        t.miss = match m {
                            "drop" => MissPolicy::Drop,
                            "controller" => MissPolicy::Controller,
                            other => match other.strip_prefix("fall:") {
                                Some(tbl) => MissPolicy::Fall(tbl.to_owned()),
                                None => return err(ln, format!("bad miss policy {m:?}")),
                            },
                        };
                    } else if let Some(n) = opt.strip_prefix("next=") {
                        t.next = Some(n.to_owned());
                    } else {
                        return err(ln, format!("unknown table option {opt:?}"));
                    }
                }
                tables.push(t);
            }
            "start" => {
                if toks.len() != 2 {
                    return err(ln, "start NAME");
                }
                start = Some(toks[1].to_owned());
            }
            _ => {
                // An entry row of the most recent table.
                let Some(t) = tables.last_mut() else {
                    return err(ln, "entry before any table declaration");
                };
                let (ms, as_) = match line.split_once('|') {
                    Some((m, a)) => (m, a),
                    None => (line, ""),
                };
                let mcells: Vec<&str> = ms.split_whitespace().collect();
                let acells: Vec<&str> = as_.split_whitespace().collect();
                if mcells.len() != t.match_attrs.len() || acells.len() != t.action_attrs.len() {
                    return err(
                        ln,
                        format!(
                            "entry arity: expected {} match + {} action cells, got {} + {}",
                            t.match_attrs.len(),
                            t.action_attrs.len(),
                            mcells.len(),
                            acells.len()
                        ),
                    );
                }
                let matches = mcells
                    .iter()
                    .zip(&t.match_attrs)
                    .map(|(c, &a)| parse_cell(c, catalog.attr(a).width, true, ln))
                    .collect::<Result<Vec<_>, _>>()?;
                let actions = acells
                    .iter()
                    .zip(&t.action_attrs)
                    .map(|(c, &a)| match catalog.attr(a).kind {
                        // Ports and table names are symbols even when
                        // they look like numbers.
                        AttrKind::Action(ActionSem::Output | ActionSem::Goto)
                            if !matches!(*c, "-" | "*") =>
                        {
                            Ok(Value::sym(*c))
                        }
                        _ => parse_cell(c, 64, false, ln),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                t.push(crate::table::Entry::new(matches, actions));
            }
        }
    }

    if tables.is_empty() {
        return err(0, "no tables declared");
    }
    let start = start.unwrap_or_else(|| tables[0].name.clone());
    if !tables.iter().any(|t| t.name == start) {
        return err(0, format!("start table {start:?} does not exist"));
    }
    Ok(Pipeline::new(catalog, tables, start))
}

fn parse_cell(tok: &str, width: u32, is_match: bool, ln: usize) -> Result<Value, ParseError> {
    if tok == "*" {
        return Ok(Value::Any);
    }
    if !is_match && tok == "-" {
        return Ok(Value::Any); // action no-op
    }
    // Binary prefix: 10*
    if let Some(bits_str) = tok.strip_suffix('*') {
        if !bits_str.is_empty() && bits_str.chars().all(|c| c == '0' || c == '1') {
            let len = bits_str.len() as u8;
            if u32::from(len) > width {
                return err(ln, format!("prefix {tok:?} longer than field width"));
            }
            let bits = u64::from_str_radix(bits_str, 2).expect("binary digits");
            return Ok(Value::prefix(bits << (width - u32::from(len)), len, width));
        }
    }
    // Dotted quad, optionally /len.
    if tok.contains('.') {
        let (addr, len) = match tok.split_once('/') {
            Some((a, l)) => (
                a,
                Some(l.parse::<u8>().map_err(|_| ParseError {
                    line: ln,
                    msg: format!("bad prefix length in {tok:?}"),
                })?),
            ),
            None => (tok, None),
        };
        let parts: Vec<&str> = addr.split('.').collect();
        if parts.len() == 4 && parts.iter().all(|p| p.parse::<u64>().is_ok()) {
            let mut v = 0u64;
            for p in parts {
                let o: u64 = p.parse().expect("checked");
                if o > 255 {
                    return err(ln, format!("bad octet in {tok:?}"));
                }
                v = (v << 8) | o;
            }
            return Ok(match len {
                Some(l) => {
                    if u32::from(l) > width {
                        return err(ln, format!("prefix {tok:?} longer than field width"));
                    }
                    Value::prefix(v, l, width)
                }
                None => Value::Int(v),
            });
        }
    }
    // addr/len on plain integers.
    if let Some((a, l)) = tok.split_once('/') {
        if let (Ok(v), Ok(len)) = (parse_int(a), l.parse::<u8>()) {
            if u32::from(len) > width {
                return err(ln, format!("prefix {tok:?} longer than field width"));
            }
            return Ok(Value::prefix(v, len, width));
        }
    }
    if let Ok(v) = parse_int(tok) {
        if width < 64 && v >= (1u64 << width) && is_match {
            return err(ln, format!("{tok:?} exceeds the field's {width} bits"));
        }
        return Ok(Value::Int(v));
    }
    if is_match {
        return err(ln, format!("{tok:?} is not a predicate"));
    }
    Ok(Value::sym(tok))
}

fn parse_int(tok: &str) -> Result<u64, std::num::ParseIntError> {
    if let Some(hex) = tok.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        tok.parse()
    }
}

/// Render a pipeline back into `.mat` text (parse ∘ format = identity up
/// to formatting; property-tested).
pub fn format_program(p: &Pipeline) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (_, a) in p.catalog.iter() {
        match &a.kind {
            AttrKind::Field => {
                let _ = writeln!(out, "field {} {}", a.name, a.width);
            }
            AttrKind::Meta => {
                let _ = writeln!(out, "meta {} {}", a.name, a.width);
            }
            AttrKind::Action(sem) => {
                let k = match sem {
                    ActionSem::Output => "output".to_owned(),
                    ActionSem::Goto => "goto".to_owned(),
                    ActionSem::Opaque => "opaque".to_owned(),
                    ActionSem::SetField(t) => format!("set {}", p.catalog.name(*t)),
                };
                let _ = writeln!(out, "action {} {}", a.name, k);
            }
        }
    }
    for t in &p.tables {
        let ms = t
            .match_attrs
            .iter()
            .map(|&a| p.catalog.name(a).to_owned())
            .collect::<Vec<_>>()
            .join(" ");
        let as_ = t
            .action_attrs
            .iter()
            .map(|&a| p.catalog.name(a).to_owned())
            .collect::<Vec<_>>()
            .join(" ");
        let mut hdr = format!("table {} [{ms} | {as_}]", t.name);
        match &t.miss {
            MissPolicy::Drop => {}
            MissPolicy::Controller => hdr.push_str(" miss=controller"),
            MissPolicy::Fall(n) => {
                let _ = write!(hdr, " miss=fall:{n}");
            }
        }
        if let Some(n) = &t.next {
            let _ = write!(hdr, " next={n}");
        }
        let _ = writeln!(out, "\n{hdr}");
        for e in &t.entries {
            let m = e
                .matches
                .iter()
                .map(format_cell)
                .collect::<Vec<_>>()
                .join(" ");
            let a = e
                .actions
                .iter()
                .map(|v| match v {
                    Value::Any => "-".to_owned(),
                    other => format_cell(other),
                })
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "  {m} | {a}");
        }
    }
    let _ = writeln!(out, "\nstart {}", p.start);
    out
}

fn format_cell(v: &Value) -> String {
    match v {
        Value::Any => "*".to_owned(),
        Value::Int(x) => format!("{x}"),
        Value::Prefix { bits, len } => format!("{bits:#x}/{len}"),
        Value::Ternary { bits, mask } => format!("{bits:#x}&{mask:#x}"),
        Value::Sym(s) => s.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::assert_equivalent;
    use crate::pipeline::Packet;

    const FIG1B: &str = r#"
# Fig. 1b, goto join
field ip_src 32
field ip_dst 32
field tcp_dst 16
action jump goto
action out output

table t0 [ip_dst tcp_dst | jump]
  192.0.2.1 80  | t1
  192.0.2.3 22  | t3

table t1 [ip_src | out]
  0* | vm1
  1* | vm2

table t3 [ip_src | out]
  *  | vm6

start t0
"#;

    #[test]
    fn parses_fig1b_flavour() {
        let p = parse_program(FIG1B).unwrap();
        assert_eq!(p.tables.len(), 3);
        assert_eq!(p.start, "t0");
        let pkt = Packet::from_fields(
            &p.catalog,
            &[("ip_src", 7), ("ip_dst", 0xc000_0201), ("tcp_dst", 80)],
        );
        let v = p.run(&pkt).unwrap();
        assert_eq!(v.output.as_deref(), Some("vm1"));
        let pkt = Packet::from_fields(
            &p.catalog,
            &[
                ("ip_src", 1 << 31),
                ("ip_dst", 0xc000_0201),
                ("tcp_dst", 80),
            ],
        );
        assert_eq!(p.run(&pkt).unwrap().output.as_deref(), Some("vm2"));
    }

    #[test]
    fn format_parse_roundtrip_is_equivalent() {
        let p = parse_program(FIG1B).unwrap();
        let text = format_program(&p);
        let q = parse_program(&text).unwrap();
        assert_equivalent(&p, &q);
        assert_eq!(p.catalog, q.catalog);
    }

    /// Output ports and goto targets that look like numbers (Fig. 3's
    /// ports `1`, `2`, `3`) are printed bare and must come back as the
    /// symbols they were: `parse ∘ format` is the identity, and the
    /// re-read program still evaluates.
    #[test]
    fn numeric_looking_symbols_roundtrip() {
        let mut c = Catalog::new();
        let f = c.field("f", 8);
        let jump = c.action("jump", ActionSem::Goto);
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("0", vec![f], vec![jump, out]);
        for port in 1..=3u64 {
            t0.row(
                vec![Value::Int(port)],
                vec![Value::Any, Value::sym(port.to_string())],
            );
        }
        t0.row(vec![Value::Int(9)], vec![Value::sym("7"), Value::Any]);
        let mut t7 = Table::new("7", vec![f], vec![out]);
        t7.row(vec![Value::Any], vec![Value::sym("0x2a")]);
        let p = Pipeline::new(c, vec![t0, t7], "0");
        let q = parse_program(&format_program(&p)).unwrap();
        assert_eq!(p, q);
        for (fv, port) in [(2u64, "2"), (9, "0x2a")] {
            let pkt = Packet::from_fields(&q.catalog, &[("f", fv)]);
            assert_eq!(q.run(&pkt).unwrap().output.as_deref(), Some(port));
        }
    }

    /// Every cell kind, metadata, a set-field, an opaque action and both
    /// table options.
    const KINDS: &str = r#"
field a 8
field b 32
field c 16
meta m 32
action set_m set m
action ttl opaque
table t [a b c | set_m ttl] miss=controller next=t2
  * 10.0.0.0/8 0x2a | 7 dec
  5 1.2.3.4 10/4    | - -
table t2 [a | ]
  * |
"#;

    #[test]
    fn cell_kinds() {
        let p = parse_program(KINDS).unwrap();
        let t = p.table("t").unwrap();
        assert_eq!(t.entries[0].matches[0], Value::Any);
        assert_eq!(t.entries[0].matches[1], Value::prefix(0x0a00_0000, 8, 32));
        assert_eq!(t.entries[0].matches[2], Value::Int(0x2a));
        assert_eq!(t.entries[0].actions[0], Value::Int(7));
        assert_eq!(t.entries[0].actions[1], Value::sym("dec"));
        assert_eq!(t.entries[1].matches[1], Value::Int(0x0102_0304));
        assert_eq!(t.entries[1].matches[2], Value::prefix(10, 4, 16));
        assert_eq!(t.entries[1].actions[0], Value::Any);
        assert_eq!(t.miss, MissPolicy::Controller);
        assert_eq!(t.next.as_deref(), Some("t2"));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases = [
            ("field f 99", "width exceeds"),
            ("action a set nope", "unknown set target"),
            ("table t [x | ]", "unknown attribute"),
            ("zork", "entry before any table"),
            ("field f 8\ntable t [f | ]\n  1 2 |", "entry arity"),
            ("field f 8\ntable t [f | ]\n  512 |", "exceeds the field"),
            (
                "field f 8\ntable t [f | ]\n  111111111* |",
                "longer than field width",
            ),
            // Both once panicked: an out-of-order header sliced out of
            // range, and a repeated name reached `Pipeline::new`'s assert.
            (
                "field ip_dst 32\naction out output\ntable l3 ][ip_dst | out]",
                "before it opens",
            ),
            (
                "field f 8\ntable t [f | ]\n  1 |\ntable t [f | ]",
                "duplicate table \"t\"",
            ),
        ];
        for (src, want) in cases {
            let e = parse_program(src).unwrap_err();
            assert!(e.msg.contains(want), "{src:?} → {e}");
            assert!(e.line > 0);
        }
        assert_eq!(parse_program(cases[7].0).unwrap_err().line, 3);
        assert_eq!(parse_program(cases[8].0).unwrap_err().line, 4);
    }

    /// One edit of a program's text: delete, insert or replace a byte, or
    /// duplicate a line. Inserted bytes come from the format's own
    /// alphabet, so most mutants stay close to a program.
    fn mutate(src: &str, op: u8, at: usize, byte: usize) -> String {
        const ALPHABET: &[u8] = b"[]|*/.:=-#0129ax tn\n";
        let mut b = src.as_bytes().to_vec();
        let at = at % (b.len() + 1);
        let byte = ALPHABET[byte % ALPHABET.len()];
        match op {
            0 if at < b.len() => {
                b.remove(at);
            }
            1 => b.insert(at, byte),
            2 if at < b.len() => b[at] = byte,
            _ => {
                let mut lines: Vec<&str> = src.lines().collect();
                if let Some(&line) = lines.get(at % lines.len().max(1)) {
                    lines.insert(at % (lines.len() + 1), line);
                }
                return lines.join("\n");
            }
        }
        String::from_utf8(b).expect("ASCII edits of ASCII text")
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// `parse_program` answers every mutant of a formatted program with
        /// a pipeline or a `ParseError`, never a panic.
        #[test]
        fn mutated_programs_parse_or_err(
            base in 0usize..3,
            edits in proptest::collection::vec((0u8..4, 0usize..4096, 0usize..64), 1..5),
        ) {
            let mut text = match base {
                0 => FIG1B.to_owned(),
                1 => format_program(&parse_program(FIG1B).unwrap()),
                _ => format_program(&parse_program(KINDS).unwrap()),
            };
            for (op, at, byte) in edits {
                text = mutate(&text, op, at, byte);
            }
            if let Err(e) = parse_program(&text) {
                proptest::prop_assert!(e.line <= text.lines().count(), "{e} in {text:?}");
            }
        }
    }

    #[test]
    fn unknown_start_rejected() {
        let e = parse_program("field f 8\ntable t [f | ]\nstart zzz").unwrap_err();
        assert!(e.msg.contains("start table"));
    }

    #[test]
    fn binary_prefix_alignment() {
        let p = parse_program("field f 8\ntable t [f | ]\n  10* |").unwrap();
        assert_eq!(
            p.table("t").unwrap().entries[0].matches[0],
            Value::prefix(0b1000_0000, 2, 8)
        );
    }

    #[test]
    fn workload_pipelines_roundtrip_via_text() {
        // The GWLB universal table and its decompositions all survive
        // format → parse with semantics intact.
        let mut c = Catalog::new();
        let f = c.field("ip_src", 32);
        let g = c.field("ip_dst", 32);
        let m = c.meta("mm", 32);
        let set = c.action("tag", ActionSem::SetField(m));
        let out = c.action("out", ActionSem::Output);
        let mut t0 = Table::new("t0", vec![g], vec![set]);
        t0.row(vec![Value::Int(1)], vec![Value::Int(5)]);
        t0.next = Some("t1".into());
        let mut t1 = Table::new("t1", vec![m, f], vec![out]);
        t1.row(
            vec![Value::Int(5), Value::prefix(0, 1, 32)],
            vec![Value::sym("a")],
        );
        let p = Pipeline::new(c, vec![t0, t1], "t0");
        let q = parse_program(&format_program(&p)).unwrap();
        assert_equivalent(&p, &q);
    }
}
