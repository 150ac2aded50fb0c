//! Binary wire codec: one layout per frame.
//!
//! Frames are length-prefixed: a `u32` (LE) payload length, then the
//! payload — a `u8` tag and the message's fields in declaration order,
//! fixed-width little-endian. Node ids travel as `u64`; tour orders
//! and byte sections as a `u32` count followed by their items.
//!
//! Tags 6 to 10 are retired; 11 frame types are live.
//!
//! Each frame's layout is stated once for output and once for input.
//! `put` writes it into a `Sink`: the frame buffer in [`encode`], a
//! byte count in [`Message::wire_size`], so a frame's size cannot
//! disagree with its bytes. [`decode`] reads the same fields in the same
//! order through a `Reader`: every read returns `Err` on truncation,
//! every count is checked against the bytes left before anything is
//! allocated, and a payload must be consumed exactly. Bytes off a socket
//! are hostile; they yield `Err`, never a panic.

use std::io::Read;

use crate::message::{Message, NodeId};
use crate::NetError;

const TAG_TOUR: u8 = 1;
const TAG_OPTIMUM: u8 = 2;
const TAG_LEAVE: u8 = 3;
const TAG_PING: u8 = 4;
const TAG_PONG: u8 = 5;
// Tags 6 and 7 carried the retired rejoin-resync frames (the best-tour
// request and its reply), tags 8 and 9 the retired hub-election frames
// (the hub claim and the membership-log snapshot), tag 10 the retired
// wire-telemetry shipment. They are never reassigned, so an old peer's
// frame is refused as an unknown tag instead of being misread as
// another one.
const TAG_SHARD_RESULT: u8 = 11;
const TAG_JOB_SUBMIT: u8 = 12;
const TAG_JOB_ACCEPT: u8 = 13;
const TAG_JOB_IMPROVED: u8 = 14;
const TAG_JOB_DONE: u8 = 15;
const TAG_JOB_CANCEL: u8 = 16;

/// Highest job-termination reason code on the wire (see
/// [`Message::JobDone`]: 0 budget, 1 target, 2 deadline, 3 cancelled).
const MAX_JOB_REASON: u8 = 3;

/// Job payload kinds accepted on the wire (1 = TSPLIB, 2 = JSON).
const MAX_PAYLOAD_KIND: u8 = 2;

/// Maximum accepted payload (guards against corrupt length prefixes):
/// a tour of 10 million cities is ~40 MB.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// The most [`read_frame`] reserves before the bytes have arrived.
const READ_RESERVE: usize = 64 * 1024;

/// Where [`put`] writes a payload: the frame buffer, or a running byte
/// count (`usize`) that sizes the payload without writing it.
pub(crate) trait Sink {
    /// Append raw bytes.
    fn bytes(&mut self, b: &[u8]) -> &mut Self;

    fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes(&[v])
    }

    fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn i64(&mut self, v: i64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    fn node(&mut self, v: NodeId) -> &mut Self {
        self.u64(v as u64)
    }

    /// A `u32`-length-prefixed byte section.
    fn blob(&mut self, b: &[u8]) -> &mut Self {
        self.u32(b.len() as u32).bytes(b)
    }

    /// A tour order: `u32` city count, then `u32` city ids.
    fn order(&mut self, order: &[u32]) -> &mut Self {
        self.u32(order.len() as u32);
        for &c in order {
            self.u32(c);
        }
        self
    }
}

impl Sink for Vec<u8> {
    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.extend_from_slice(b);
        self
    }
}

impl Sink for usize {
    fn bytes(&mut self, b: &[u8]) -> &mut Self {
        *self += b.len();
        self
    }

    /// O(1) per tour: the size depends only on the city count.
    fn order(&mut self, order: &[u32]) -> &mut Self {
        *self += 4 + 4 * order.len();
        self
    }
}

/// Write `msg`'s payload into `s` — the tag, then every field in order —
/// and hand the sink back. The one statement of each frame's layout on
/// the way out: [`encode`] and [`Message::wire_size`] both run it.
#[rustfmt::skip]
pub(crate) fn put<S: Sink>(msg: &Message, mut s: S) -> S {
    match msg {
        Message::TourFound { from, id, length, order } => {
            s.u8(TAG_TOUR).node(*from).u64(*id).i64(*length).order(order)
        }
        Message::OptimumFound { from, length } => s.u8(TAG_OPTIMUM).node(*from).i64(*length),
        Message::Leave { from } => s.u8(TAG_LEAVE).node(*from),
        Message::Ping { from } => s.u8(TAG_PING).node(*from),
        Message::Pong { from } => s.u8(TAG_PONG).node(*from),
        Message::ShardResult { from, shard, length, order } => {
            s.u8(TAG_SHARD_RESULT).node(*from).u32(*shard).i64(*length).order(order)
        }
        Message::JobSubmit {
            from,
            job,
            client,
            seed,
            kicks,
            deadline_ms,
            target,
            payload_kind,
            payload,
            checkpoint,
        } => {
            s.u8(TAG_JOB_SUBMIT).node(*from).u64(*job).u64(*client).u64(*seed);
            s.u64(*kicks).u64(*deadline_ms).i64(*target).u8(*payload_kind);
            s.blob(payload).blob(checkpoint)
        }
        Message::JobAccept { from, job, worker } => {
            s.u8(TAG_JOB_ACCEPT).node(*from).u64(*job).u64(*worker)
        }
        Message::JobImproved { from, job, length, order } => {
            s.u8(TAG_JOB_IMPROVED).node(*from).u64(*job).i64(*length).order(order)
        }
        Message::JobDone { from, job, reason, length, order } => {
            s.u8(TAG_JOB_DONE).node(*from).u64(*job).u8(*reason).i64(*length).order(order)
        }
        Message::JobCancel { from, job, reason } => {
            s.u8(TAG_JOB_CANCEL).node(*from).u64(*job).u8(*reason)
        }
    };
    s
}

/// Encode a message into a length-prefixed frame.
pub fn encode(msg: &Message) -> Vec<u8> {
    let len = msg.wire_size();
    let mut buf = Vec::with_capacity(4 + len);
    buf.u32(len as u32);
    let buf = put(msg, buf);
    debug_assert_eq!(buf.len(), 4 + len);
    buf
}

/// Decode one payload (without the length prefix): the inverse of
/// `put`, field for field.
pub fn decode(payload: &[u8]) -> Result<Message, NetError> {
    let mut r = Reader(payload);
    let msg = match r.u8()? {
        TAG_TOUR => Message::TourFound {
            from: r.node()?,
            id: r.u64()?,
            length: r.i64()?,
            order: r.order()?,
        },
        TAG_OPTIMUM => Message::OptimumFound {
            from: r.node()?,
            length: r.i64()?,
        },
        TAG_LEAVE => Message::Leave { from: r.node()? },
        TAG_PING => Message::Ping { from: r.node()? },
        TAG_PONG => Message::Pong { from: r.node()? },
        TAG_SHARD_RESULT => Message::ShardResult {
            from: r.node()?,
            shard: r.u32()?,
            length: r.i64()?,
            order: r.order()?,
        },
        TAG_JOB_SUBMIT => Message::JobSubmit {
            from: r.node()?,
            job: r.u64()?,
            client: r.u64()?,
            seed: r.u64()?,
            kicks: r.u64()?,
            deadline_ms: r.u64()?,
            target: r.i64()?,
            payload_kind: r.code(1, MAX_PAYLOAD_KIND)?,
            payload: r.blob()?,
            checkpoint: r.blob()?,
        },
        TAG_JOB_ACCEPT => Message::JobAccept {
            from: r.node()?,
            job: r.u64()?,
            worker: r.u64()?,
        },
        TAG_JOB_IMPROVED => Message::JobImproved {
            from: r.node()?,
            job: r.u64()?,
            length: r.i64()?,
            order: r.order()?,
        },
        TAG_JOB_DONE => Message::JobDone {
            from: r.node()?,
            job: r.u64()?,
            reason: r.code(0, MAX_JOB_REASON)?,
            length: r.i64()?,
            order: r.order()?,
        },
        TAG_JOB_CANCEL => Message::JobCancel {
            from: r.node()?,
            job: r.u64()?,
            reason: r.code(0, MAX_JOB_REASON)?,
        },
        t => return Err(NetError::Codec(format!("unknown tag {t}"))),
    };
    if !r.0.is_empty() {
        return Err(NetError::Codec(format!("{} trailing bytes", r.0.len())));
    }
    Ok(msg)
}

/// The unread rest of one payload. Every read is bounds-checked and
/// returns `Err` when the bytes run out.
///
/// The small reads are forced inline: [`decode`] is one large function,
/// and left to itself the compiler calls them, returning each `Result`
/// through memory (an empty `JobSubmit` then decodes ≈ 1.3× slower).
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    #[inline(always)]
    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or_else(truncated)?;
        self.0 = rest;
        Ok(head)
    }

    #[inline(always)]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], NetError> {
        let (head, rest) = self.0.split_first_chunk().ok_or_else(truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    #[inline(always)]
    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(u8::from_le_bytes(self.array()?))
    }

    #[inline(always)]
    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    #[inline(always)]
    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    #[inline(always)]
    fn i64(&mut self) -> Result<i64, NetError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    #[inline(always)]
    fn node(&mut self) -> Result<NodeId, NetError> {
        Ok(self.u64()? as NodeId)
    }

    /// A `u32` count of items at least `item_size` bytes each, refused
    /// unless that many items fit in the bytes left — so a lying count
    /// can neither read past the frame nor size an allocation.
    #[inline(always)]
    fn count(&mut self, item_size: usize) -> Result<usize, NetError> {
        let n = self.u32()? as usize;
        if n > self.0.len() / item_size {
            return Err(NetError::Codec(format!("count {n} overruns frame")));
        }
        Ok(n)
    }

    /// An enum byte, refused outside `min..=max`.
    #[inline(always)]
    fn code(&mut self, min: u8, max: u8) -> Result<u8, NetError> {
        match self.u8()? {
            b if (min..=max).contains(&b) => Ok(b),
            b => Err(NetError::Codec(format!("code {b} outside {min}..={max}"))),
        }
    }

    #[inline(always)]
    fn blob(&mut self) -> Result<Vec<u8>, NetError> {
        let n = self.count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    fn order(&mut self) -> Result<Vec<u32>, NetError> {
        let n = self.count(4)?;
        let bytes = self.take(4 * n)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

fn truncated() -> NetError {
    NetError::Codec("truncated frame".into())
}

/// Read one frame from a blocking reader (e.g. a `TcpStream`). The
/// payload buffer grows with the bytes that arrive, not with what the
/// length prefix claims: a lying prefix gets at most 64 KiB reserved
/// up front.
pub fn read_frame<R: std::io::Read>(reader: &mut R) -> Result<Message, NetError> {
    let mut len_buf = [0u8; 4];
    reader.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(NetError::Codec(format!("bad frame length {len}")));
    }
    let mut payload = Vec::with_capacity(len.min(READ_RESERVE));
    reader.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    decode(&payload)
}

/// Write one frame to a blocking writer.
pub fn write_frame<W: std::io::Write>(writer: &mut W, msg: &Message) -> Result<(), NetError> {
    let frame = encode(msg);
    writer.write_all(&frame)?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let frame = encode(&msg);
        let (len_prefix, payload) = frame.split_at(4);
        let len = u32::from_le_bytes(len_prefix.try_into().unwrap()) as usize;
        assert_eq!(len, payload.len());
        assert_eq!(len, msg.wire_size());
        let back = decode(payload).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn roundtrip_all_variants() {
        roundtrip(Message::TourFound {
            from: 5,
            id: u64::MAX,
            length: -123456789,
            order: (0..777).collect(),
        });
        roundtrip(Message::OptimumFound {
            from: 0,
            length: i64::MAX,
        });
        roundtrip(Message::Leave {
            from: usize::MAX >> 1,
        });
        roundtrip(Message::Ping { from: 3 });
        roundtrip(Message::Pong { from: 4 });
    }

    #[test]
    fn roundtrip_shard_result() {
        roundtrip(Message::ShardResult {
            from: 3,
            shard: 17,
            length: 123_456_789,
            order: (1000..1777).collect(),
        });
        roundtrip(Message::ShardResult {
            from: 0,
            shard: 0,
            length: i64::MIN,
            order: vec![],
        });
    }

    #[test]
    fn rejects_corrupt_shard_result() {
        let frame = encode(&Message::ShardResult {
            from: 2,
            shard: 5,
            length: 999,
            order: (0..48).collect(),
        });
        let payload = &frame[4..];
        assert!(decode(payload).is_ok());
        for cut in 1..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "truncation at {cut} bytes accepted"
            );
        }
        // City count claiming more entries than bytes present.
        let mut bad = payload.to_vec();
        let count_at = 1 + 8 + 4 + 8;
        bad[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bad).is_err());
    }

    fn sample_job_submit() -> Message {
        Message::JobSubmit {
            from: 0,
            job: crate::message::job_id(7, 1),
            client: 7,
            seed: 99,
            kicks: 250,
            deadline_ms: 10_000,
            target: -5,
            payload_kind: 1,
            payload: b"NAME: t\nTYPE: TSP\n".to_vec(),
            checkpoint: vec![1, 2, 3, 4, 5],
        }
    }

    #[test]
    fn roundtrip_job_frames() {
        roundtrip(sample_job_submit());
        // Fresh submission: empty checkpoint, unbounded kicks.
        roundtrip(Message::JobSubmit {
            from: 3,
            job: 0,
            client: u64::MAX >> 32,
            seed: 0,
            kicks: 0,
            deadline_ms: 0,
            target: i64::MIN,
            payload_kind: 2,
            payload: b"[[0,0],[1,1]]".to_vec(),
            checkpoint: vec![],
        });
        roundtrip(Message::JobAccept {
            from: 2,
            job: crate::message::job_id(7, 1),
            worker: 2,
        });
        roundtrip(Message::JobImproved {
            from: 1,
            job: 42,
            length: -1,
            order: (0..321).rev().collect(),
        });
        roundtrip(Message::JobImproved {
            from: 1,
            job: 42,
            length: i64::MAX,
            order: vec![],
        });
        for reason in 0..=3u8 {
            roundtrip(Message::JobDone {
                from: 5,
                job: u64::MAX,
                reason,
                length: 777,
                order: (0..48).collect(),
            });
            roundtrip(Message::JobCancel {
                from: 5,
                job: 1,
                reason,
            });
        }
    }

    #[test]
    fn rejects_corrupt_job_submit() {
        let frame = encode(&sample_job_submit());
        let payload = &frame[4..];
        assert!(decode(payload).is_ok());
        for cut in 1..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "truncation at {cut} bytes accepted"
            );
        }
        // Payload kind outside {1, 2}.
        let kind_at = 1 + 7 * 8;
        for bad_kind in [0u8, 3, 255] {
            let mut bad = payload.to_vec();
            bad[kind_at] = bad_kind;
            assert!(decode(&bad).is_err(), "payload kind {bad_kind} accepted");
        }
        // Payload length overrunning the frame.
        let mut bad = payload.to_vec();
        bad[kind_at + 1..kind_at + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bad).is_err());
        // Checkpoint length disagreeing with the bytes present (the
        // 4-byte section length sits right before the 5 blob bytes).
        let mut bad = payload.to_vec();
        let len = bad.len();
        bad[len - 9..len - 5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn rejects_corrupt_job_stream_frames() {
        let improved = encode(&Message::JobImproved {
            from: 1,
            job: 9,
            length: 55,
            order: (0..32).collect(),
        });
        let payload = &improved[4..];
        assert!(decode(payload).is_ok());
        for cut in 1..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "JobImproved truncation at {cut} accepted"
            );
        }
        // City count claiming more entries than bytes present.
        let mut bad = payload.to_vec();
        let count_at = 1 + 8 + 8 + 8;
        bad[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bad).is_err());

        let done = encode(&Message::JobDone {
            from: 1,
            job: 9,
            reason: 2,
            length: 55,
            order: (0..32).collect(),
        });
        let payload = &done[4..];
        assert!(decode(payload).is_ok());
        for cut in 1..payload.len() {
            assert!(
                decode(&payload[..cut]).is_err(),
                "JobDone truncation at {cut} accepted"
            );
        }
        // Reason byte outside the defined scale.
        let mut bad = payload.to_vec();
        bad[1 + 8 + 8] = MAX_JOB_REASON + 1;
        assert!(decode(&bad).is_err());
        let mut bad = payload.to_vec();
        let count_at = 1 + 8 + 8 + 1 + 8;
        bad[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bad).is_err());

        // Control frames: exact-size checks and reason validation.
        let accept = encode(&Message::JobAccept {
            from: 1,
            job: 9,
            worker: 1,
        });
        let payload = &accept[4..];
        for cut in 1..payload.len() {
            assert!(decode(&payload[..cut]).is_err());
        }
        let cancel = encode(&Message::JobCancel {
            from: 1,
            job: 9,
            reason: 3,
        });
        let payload = &cancel[4..];
        for cut in 1..payload.len() {
            assert!(decode(&payload[..cut]).is_err());
        }
        let mut bad = payload.to_vec();
        bad[1 + 8 + 8] = MAX_JOB_REASON + 1;
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn roundtrip_empty_order() {
        roundtrip(Message::TourFound {
            from: 1,
            id: 0,
            length: 0,
            order: vec![],
        });
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[99, 0, 0]).is_err());
        assert!(decode(&[TAG_OPTIMUM, 1, 2]).is_err());
        // Tour claiming more cities than bytes present.
        let mut bad = vec![TAG_TOUR];
        bad.extend_from_slice(&5u64.to_le_bytes());
        bad.extend_from_slice(&11u64.to_le_bytes());
        bad.extend_from_slice(&7i64.to_le_bytes());
        bad.extend_from_slice(&100u32.to_le_bytes());
        bad.extend_from_slice(&[1, 2, 3]); // not 400 bytes
        assert!(decode(&bad).is_err());
    }

    #[test]
    fn stream_roundtrip() {
        let msgs = vec![
            Message::Leave { from: 2 },
            Message::TourFound {
                from: 1,
                id: crate::message::broadcast_id(1, 42),
                length: 99,
                order: vec![3, 1, 2, 0],
            },
            Message::OptimumFound { from: 0, length: 7 },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            write_frame(&mut buf, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        for m in &msgs {
            let got = read_frame(&mut cursor).unwrap();
            assert_eq!(&got, m);
        }
    }

    /// A prefix claiming `MAX_FRAME`, 16 payload bytes, then EOF: the
    /// frame is refused, and no `read` is handed a buffer sized by the
    /// claim — a peer that lies about the length cannot make the
    /// reader reserve 64 MiB.
    #[test]
    fn lying_length_prefix_reserves_nothing() {
        struct Liar {
            bytes: Vec<u8>,
            at: usize,
            largest_read: usize,
        }
        impl std::io::Read for Liar {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.largest_read = self.largest_read.max(buf.len());
                let n = buf.len().min(self.bytes.len() - self.at);
                buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
                self.at += n;
                Ok(n)
            }
        }
        let mut bytes = (MAX_FRAME as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[TAG_TOUR; 16]);
        let mut liar = Liar {
            bytes,
            at: 0,
            largest_read: 0,
        };
        assert!(read_frame(&mut liar).is_err());
        let largest = liar.largest_read;
        assert!(largest <= 64 * 1024, "read got {largest}");
    }

    #[test]
    fn bad_length_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }
}
