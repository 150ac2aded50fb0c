//! Structured events: per-node ring-buffered records with a JSONL
//! serializer.
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

/// A field value. Non-negative integers normalize to `U` (JSON has one
/// number type), so equal numbers compare equal whichever way they
/// were recorded.
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
                    // `{:?}` prints the shortest representation that
                    // round-trips exactly; NaN/inf are not valid JSON,
                    // so they are emitted as null.
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

    /// The exact line for every value kind, with the escapes a string
    /// needs: quotes, backslash and newline.
    #[test]
    fn jsonl_line_is_pinned() {
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
        assert_eq!(
            e.to_jsonl(),
            r#"{"t_ns":123456789,"node":3,"seq":0,"kind":"broadcast","tour_id":244837814042690,"len":987654,"delta":-42,"frac":0.125,"local":true,"peer":"node \"7\"\n\\end"}"#
        );
    }

    /// Integer extremes, tiny floats, non-ASCII text (written as is),
    /// control characters (escaped) and non-finite floats (`null`).
    #[test]
    fn jsonl_line_extremes_are_pinned() {
        let e = ev(
            "edge",
            vec![
                ("zero", Value::U(0)),
                ("max", Value::U(u64::MAX)),
                ("min_i", Value::I(i64::MIN)),
                ("tiny", Value::F(1e-300)),
                ("unicode", Value::S("héllo ☃".to_string())),
                ("ctl", Value::S("a\tb\rc\u{1}".to_string())),
                ("nan", Value::F(f64::NAN)),
                ("inf", Value::F(f64::NEG_INFINITY)),
            ],
        );
        assert_eq!(
            e.to_jsonl(),
            r#"{"t_ns":123456789,"node":3,"seq":0,"kind":"edge","zero":0,"max":18446744073709551615,"min_i":-9223372036854775808,"tiny":1e-300,"unicode":"héllo ☃","ctl":"a\tb\rc\u0001","nan":null,"inf":null}"#
        );
    }

    #[test]
    fn jsonl_document_is_one_line_per_event() {
        let events = vec![ev("a", vec![("x", Value::U(1))]), ev("b", vec![])];
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &events).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            concat!(
                r#"{"t_ns":123456789,"node":3,"seq":0,"kind":"a","x":1}"#,
                "\n",
                r#"{"t_ns":123456789,"node":3,"seq":0,"kind":"b"}"#,
                "\n",
            )
        );
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
    }

    #[test]
    fn seq_is_serialized() {
        let ring = EventRing::with_capacity(8);
        for _ in 0..3 {
            ring.record(ev("tick", vec![]));
        }
        let evs = ring.events();
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(
            evs[2].to_jsonl(),
            r#"{"t_ns":123456789,"node":3,"seq":2,"kind":"tick"}"#
        );
    }
}
