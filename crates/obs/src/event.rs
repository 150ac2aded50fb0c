//! Structured events: per-node ring-buffered records with a JSONL
//! serializer and a matching parser (round-trip tested).
//!
//! Events are the "what happened when" side of observability — the
//! metrics registry answers *how much/how long*, the event log answers
//! *in which order*: a broadcast on node 3 at `t_ns = 120_000` followed
//! by a `recv` of the same `tour_id` on node 7 is exactly the
//! hub-to-leaf migration trace the paper's Figures 2–3 argue from.
//!
//! The ring is bounded: a runaway producer overwrites the oldest
//! records (and counts the overwrites) instead of growing without
//! limit.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

/// A field value. Non-negative integers normalize to `U` so that a
/// serialize → parse round trip is identity (JSON has one number
/// type).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U(u64),
    /// Negative integer (non-negative `I` normalizes to `U`).
    I(i64),
    /// Float.
    F(f64),
    /// Boolean.
    B(bool),
    /// String.
    S(String),
}

impl Value {
    fn normalized(self) -> Value {
        match self {
            Value::I(v) if v >= 0 => Value::U(v as u64),
            other => other,
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I(v).normalized()
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::B(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::S(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::S(v)
    }
}

/// One structured record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Nanoseconds since the owning [`crate::Obs`] was created.
    pub t_ns: u64,
    /// Node id the event belongs to.
    pub node: u32,
    /// Per-ring emission sequence number, stamped by
    /// [`EventRing::record`]. Monotonic within one node's ring, so
    /// `(t_ns, node, seq)` is a total order even when a coarse clock
    /// assigns two events the same timestamp.
    pub seq: u64,
    /// Event kind, e.g. `broadcast`, `recv`, `restart`.
    pub kind: Cow<'static, str>,
    /// Named payload fields, in emission order.
    pub fields: Vec<(Cow<'static, str>, Value)>,
}

impl Event {
    /// Field lookup by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Unsigned field lookup (also accepts a non-negative `I`).
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        match self.field(name)? {
            Value::U(v) => Some(*v),
            Value::I(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Serialize as one JSON object (no trailing newline). Reserved
    /// keys `t_ns`, `node`, `seq`, `kind` come first, then the fields.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 16);
        let _ = write!(
            out,
            "{{\"t_ns\":{},\"node\":{},\"seq\":{},\"kind\":",
            self.t_ns, self.node, self.seq
        );
        json_string(&mut out, &self.kind);
        for (k, v) in &self.fields {
            out.push(',');
            json_string(&mut out, k);
            out.push(':');
            match v {
                Value::U(x) => {
                    let _ = write!(out, "{x}");
                }
                Value::I(x) => {
                    let _ = write!(out, "{x}");
                }
                Value::F(x) => {
                    // `{}` prints the shortest representation that
                    // round-trips exactly; NaN/inf are not valid JSON,
                    // so they are emitted as null and parse back as 0.
                    if x.is_finite() {
                        let _ = write!(out, "{x:?}");
                    } else {
                        out.push_str("null");
                    }
                }
                Value::B(x) => out.push_str(if *x { "true" } else { "false" }),
                Value::S(x) => json_string(&mut out, x),
            }
        }
        out.push('}');
        out
    }

    /// Parse one JSONL line produced by [`Event::to_jsonl`] (a flat
    /// JSON object with number/string/bool/null values).
    pub fn from_jsonl(line: &str) -> Result<Event, String> {
        let mut p = JsonParser::new(line);
        let pairs = p.object()?;
        let mut t_ns = None;
        let mut node = None;
        // Older logs predate the seq key; default to 0 on parse.
        let mut seq = 0;
        let mut kind = None;
        let mut fields = Vec::new();
        for (k, v) in pairs {
            match k.as_str() {
                "t_ns" => t_ns = Some(value_u64(&v).ok_or("t_ns not unsigned")?),
                "node" => node = Some(value_u64(&v).ok_or("node not unsigned")? as u32),
                "seq" => seq = value_u64(&v).ok_or("seq not unsigned")?,
                "kind" => match v {
                    Value::S(s) => kind = Some(s),
                    _ => return Err("kind not a string".into()),
                },
                _ => fields.push((Cow::Owned(k), v)),
            }
        }
        Ok(Event {
            t_ns: t_ns.ok_or("missing t_ns")?,
            node: node.ok_or("missing node")?,
            seq,
            kind: Cow::Owned(kind.ok_or("missing kind")?),
            fields,
        })
    }
}

fn value_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U(x) => Some(*x),
        Value::I(x) if *x >= 0 => Some(*x as u64),
        _ => None,
    }
}

/// Write a JSON string literal (quotes + escapes) into `out`.
pub(crate) fn json_string(out: &mut String, s: &str) {
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

/// Minimal parser for the flat JSON objects this module emits.
struct JsonParser<'a> {
    s: &'a [u8],
    at: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        JsonParser {
            s: s.as_bytes(),
            at: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.at < self.s.len() && (self.s[self.at] as char).is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.at < self.s.len() && self.s[self.at] == c {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.at))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.at).copied()
    }

    fn object(&mut self) -> Result<Vec<(String, Value)>, String> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(out);
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let val = self.value()?;
            out.push((key, val));
            match self.peek() {
                Some(b',') => {
                    self.at += 1;
                }
                Some(b'}') => {
                    self.at += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
        Ok(out)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.s.get(self.at) else {
                return Err("unterminated string".into());
            };
            self.at += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.s.get(self.at) else {
                        return Err("dangling escape".into());
                    };
                    self.at += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.at..self.at + 4)
                                .ok_or("truncated \\u escape")?;
                            self.at += 4;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("unknown escape \\{}", other as char)),
                    }
                }
                // Multi-byte UTF-8: copy the raw bytes through.
                b => {
                    // Find the full char starting at at-1.
                    let start = self.at - 1;
                    let width = utf8_width(b);
                    let end = start + width;
                    let chunk = self.s.get(start..end).ok_or("truncated utf-8")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.at = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'"' => Ok(Value::S(self.string()?)),
            b't' => self.literal("true", Value::B(true)),
            b'f' => self.literal("false", Value::B(false)),
            b'n' => self.literal("null", Value::U(0)),
            _ => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        self.skip_ws();
        if self.s[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.at))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.at;
        while self
            .s
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.at]).map_err(|e| e.to_string())?;
        if text.is_empty() {
            return Err(format!("expected a number at byte {start}"));
        }
        if !text.contains(['.', 'e', 'E']) {
            if text.starts_with('-') {
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Value::I(v));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U(v));
            }
        }
        text.parse::<f64>()
            .map(Value::F)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

fn utf8_width(b: u8) -> usize {
    match b {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// A bounded ring of events. Single writer per node in practice, but
/// safe for concurrent use (one short mutex per record).
#[derive(Debug)]
pub struct EventRing {
    inner: Mutex<RingInner>,
}

#[derive(Debug)]
struct RingInner {
    buf: VecDeque<Event>,
    cap: usize,
    dropped: u64,
    // Next sequence number to stamp; counts all records ever made,
    // including later-evicted ones.
    next_seq: u64,
}

impl EventRing {
    /// Ring holding at most `cap` events (oldest evicted first).
    pub fn with_capacity(cap: usize) -> Self {
        EventRing {
            inner: Mutex::new(RingInner {
                buf: VecDeque::new(),
                cap: cap.max(1),
                dropped: 0,
                next_seq: 0,
            }),
        }
    }

    /// Append an event, stamping its `seq` with this ring's monotonic
    /// emission counter; evicts the oldest record when full.
    pub fn record(&self, mut event: Event) {
        let mut r = self.inner.lock().expect("event ring poisoned");
        event.seq = r.next_seq;
        r.next_seq += 1;
        if r.buf.len() == r.cap {
            r.buf.pop_front();
            r.dropped += 1;
        }
        r.buf.push_back(event);
    }

    /// Copy the buffered events out, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .lock()
            .expect("event ring poisoned")
            .buf
            .iter()
            .cloned()
            .collect()
    }

    /// Drain the buffered events, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.inner
            .lock()
            .expect("event ring poisoned")
            .buf
            .drain(..)
            .collect()
    }

    /// How many records were evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("event ring poisoned").dropped
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("event ring poisoned").buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Serialize events as JSONL into any writer (one object per line).
pub fn write_jsonl<W: std::io::Write>(w: &mut W, events: &[Event]) -> std::io::Result<()> {
    for e in events {
        writeln!(w, "{}", e.to_jsonl())?;
    }
    Ok(())
}

/// Parse a JSONL document (ignoring blank lines) back into events.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(Event::from_jsonl)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: &'static str, fields: Vec<(&'static str, Value)>) -> Event {
        Event {
            t_ns: 123_456_789,
            node: 3,
            seq: 0,
            kind: Cow::Borrowed(kind),
            fields: fields
                .into_iter()
                .map(|(k, v)| (Cow::Borrowed(k), v.normalized()))
                .collect(),
        }
    }

    #[test]
    fn jsonl_round_trip_preserves_fields() {
        let e = ev(
            "broadcast",
            vec![
                ("tour_id", Value::U(0xDEAD_BEEF_0042)),
                ("len", Value::U(987_654)),
                ("delta", Value::I(-42)),
                ("frac", Value::F(0.125)),
                ("local", Value::B(true)),
                ("peer", Value::S("node \"7\"\n\\end".to_string())),
            ],
        );
        let line = e.to_jsonl();
        let back = Event::from_jsonl(&line).expect("parse back");
        assert_eq!(back, e);
    }

    #[test]
    fn jsonl_round_trip_extremes() {
        let e = ev(
            "edge",
            vec![
                ("zero", Value::U(0)),
                ("max", Value::U(u64::MAX)),
                ("min_i", Value::I(i64::MIN)),
                ("tiny", Value::F(1e-300)),
                ("unicode", Value::S("héllo ☃".to_string())),
            ],
        );
        let back = Event::from_jsonl(&e.to_jsonl()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Event::from_jsonl("").is_err());
        assert!(Event::from_jsonl("{\"t_ns\":1}").is_err()); // missing node/kind
        assert!(Event::from_jsonl("not json").is_err());
        assert!(Event::from_jsonl("{\"t_ns\":1,\"node\":0,\"kind\":7}").is_err());
    }

    #[test]
    fn jsonl_document_round_trip() {
        let events = vec![ev("a", vec![("x", Value::U(1))]), ev("b", vec![])];
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, events);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let ring = EventRing::with_capacity(3);
        for i in 0..5u64 {
            ring.record(ev("tick", vec![("i", Value::U(i))]));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let evs = ring.events();
        assert_eq!(evs[0].field_u64("i"), Some(2));
        assert_eq!(evs[2].field_u64("i"), Some(4));
        // Seq keeps counting across evictions: survivors are 2..=4.
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(ring.drain().len(), 3);
        assert!(ring.is_empty());
    }

    #[test]
    fn seq_survives_jsonl_round_trip() {
        let ring = EventRing::with_capacity(8);
        for _ in 0..3 {
            ring.record(ev("tick", vec![]));
        }
        let evs = ring.events();
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), [0, 1, 2]);
        let line = evs[2].to_jsonl();
        assert!(line.contains("\"seq\":2"), "{line}");
        assert_eq!(Event::from_jsonl(&line).unwrap(), evs[2]);
        // A pre-seq log line parses with seq defaulting to 0.
        let legacy = Event::from_jsonl("{\"t_ns\":5,\"node\":1,\"kind\":\"x\"}").unwrap();
        assert_eq!(legacy.seq, 0);
    }
}
