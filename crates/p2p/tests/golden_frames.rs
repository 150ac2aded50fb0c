//! Golden frames: one sample message per wire tag, with the length and
//! an FNV-1a-64 digest of its encoded frame, recorded from the codec as
//! it stood before its layout was rewritten. A change that claims to
//! leave the bytes on the wire as they are must leave these constants
//! exactly as they are; a change that means to alter the protocol
//! re-records them and says so.

use p2p::codec::{decode, encode};
use p2p::Message;

/// `(tag, frame length incl. the 4-byte prefix, FNV-1a-64 of the frame)`.
/// Tags 6 and 7 (the retired rejoin-resync frames), 8 and 9 (the
/// retired hub-election frames) and 10 (the retired wire-telemetry
/// frame) have no row: see [`retired_tags_are_refused`]. Row 5 was
/// re-recorded when Pong dropped its clock (see
/// [`old_pong_with_a_clock_is_refused`]), row 12 when `JobSubmit`
/// dropped its checkpoint (see
/// [`old_job_submit_with_a_checkpoint_is_refused`]); the others are
/// unchanged.
const GOLDEN: [(u8, usize, u64); 11] = [
    (1, 181, 0x9816_4a72_44eb_4aec),
    (2, 21, 0xe2f1_a3d8_c921_1cdf),
    (3, 13, 0xc97e_3bf5_16c6_3e5a),
    (4, 13, 0x26b0_0338_cfdd_1130),
    (5, 13, 0x9b1f_918d_5988_bd22),
    (11, 73, 0x635a_f7ef_6d15_4b3b),
    (12, 85, 0x6d01_236e_ad3e_1e55),
    (13, 29, 0xe0a0_6bcb_6835_2d75),
    (14, 45, 0x2d14_29d4_5720_3982),
    (15, 46, 0x2bcc_9f31_8594_eaa5),
    (16, 22, 0x56e3_d582_0233_9c1c),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One message per live tag, in tag order, with fields chosen so that every
/// byte of the layout is non-trivial (negative lengths, high bits set,
/// non-empty sections).
fn samples() -> Vec<Message> {
    let order: Vec<u32> = (0..37).map(|i| (i * 7919) % 1_000_003).collect();
    vec![
        Message::TourFound {
            from: 5,
            id: p2p::broadcast_id(5, 42),
            length: -1_234_567,
            order: order.clone(),
        },
        Message::OptimumFound {
            from: 6,
            length: i64::MAX - 3,
        },
        Message::Leave { from: 7 },
        Message::Ping { from: 8 },
        Message::Pong { from: 9 },
        Message::ShardResult {
            from: 15,
            shard: 0xdead_beef,
            length: 123_456_789,
            order: order[..11].to_vec(),
        },
        Message::JobSubmit {
            from: 16,
            job: p2p::job_id(7, 1),
            client: 7,
            seed: 99,
            kicks: 250,
            deadline_ms: 10_000,
            target: -5,
            payload_kind: 2,
            payload: b"[[0,0],[3,4],[6,0]]".to_vec(),
        },
        Message::JobAccept {
            from: 17,
            job: p2p::job_id(7, 1),
            worker: 17,
        },
        Message::JobImproved {
            from: 18,
            job: p2p::job_id(7, 1),
            length: 16,
            order: vec![2, 0, 1],
        },
        Message::JobDone {
            from: 19,
            job: p2p::job_id(7, 1),
            reason: 2,
            length: 16,
            order: vec![0, 1, 2],
        },
        Message::JobCancel {
            from: 20,
            job: p2p::job_id(7, 1),
            reason: 3,
        },
    ]
}

#[test]
fn every_tag_encodes_to_its_recorded_bytes() {
    let got: Vec<(u8, usize, u64)> = samples()
        .iter()
        .map(|m| {
            let f = encode(m);
            (f[4], f.len(), fnv1a64(&f))
        })
        .collect();
    assert_eq!(got, GOLDEN);
}

#[test]
fn every_tag_is_sized_and_read_back_exactly() {
    for m in samples() {
        let f = encode(&m);
        assert_eq!(f.len(), m.wire_size() + 4, "{m:?}");
        assert_eq!(decode(&f[4..]).unwrap(), m);
    }
}

/// Tags 6 and 7 carried the rejoin-resync frames (the best-tour request
/// and its reply), tags 8 and 9 the hub-election frames (the hub claim
/// and the membership-log snapshot), tag 10 the wire-telemetry shipment.
/// They stay retired: a payload starting with any of them is refused
/// whatever follows — the old frames' own layouts (a node; a node, a
/// tour id, a length and an order; a node and an epoch; a node and an
/// empty entry list; a telemetry shipment) and every live frame's body
/// alike.
#[test]
fn retired_tags_are_refused() {
    let mut bodies: Vec<Vec<u8>> = samples().iter().map(|m| encode(m)[5..].to_vec()).collect();
    bodies.push(Vec::new());
    bodies.push(10u64.to_le_bytes().to_vec());
    bodies.push(
        [
            &11u64.to_le_bytes()[..],
            &p2p::broadcast_id(11, 3).to_le_bytes(),
            &987_654i64.to_le_bytes(),
            &3u32.to_le_bytes(),
            &[2u32, 1, 0].map(u32::to_le_bytes).concat(),
        ]
        .concat(),
    );
    bodies.push([12u64.to_le_bytes(), 0x0123_4567_89ab_cdef_u64.to_le_bytes()].concat());
    bodies.push([&13u64.to_le_bytes()[..], &0u32.to_le_bytes()].concat());
    bodies.push(old_telemetry_body());
    for tag in [6u8, 7, 8, 9, 10] {
        for body in &bodies {
            let payload = [&[tag][..], body].concat();
            assert!(decode(&payload).is_err(), "tag {tag} decoded: {payload:?}");
        }
    }
}

/// Pong carried the responder's clock as a `u64` after its node until
/// that clock lost its last reader. The old 17-byte frame of the tag-5
/// sample is refused by the trailing-bytes check, not read as a Pong.
#[test]
fn old_pong_with_a_clock_is_refused() {
    let payload = [
        &[5u8][..],
        &9u64.to_le_bytes(),
        &(u64::MAX - 11).to_le_bytes(),
    ]
    .concat();
    let frame = [&(payload.len() as u32).to_le_bytes()[..], &payload].concat();
    assert_eq!((frame.len(), fnv1a64(&frame)), (21, 0x356b_2c4a_831f_4dd9));
    let err = decode(&payload).unwrap_err();
    assert!(err.to_string().contains("8 trailing bytes"), "{err}");
}

/// `JobSubmit` carried a `u32`-prefixed checkpoint section after its
/// payload until the service stopped restarting jobs on other workers.
/// The old 95-byte frame of the tag-12 sample is refused by the
/// trailing-bytes check, not read as a `JobSubmit`.
#[test]
fn old_job_submit_with_a_checkpoint_is_refused() {
    let json = b"[[0,0],[3,4],[6,0]]";
    let checkpoint = [1u8, 2, 3, 4, 5, 250];
    let payload = [
        &[12u8][..],
        &16u64.to_le_bytes(),
        &p2p::job_id(7, 1).to_le_bytes(),
        &7u64.to_le_bytes(),
        &99u64.to_le_bytes(),
        &250u64.to_le_bytes(),
        &10_000u64.to_le_bytes(),
        &(-5i64).to_le_bytes(),
        &[2],
        &(json.len() as u32).to_le_bytes(),
        json,
        &(checkpoint.len() as u32).to_le_bytes(),
        &checkpoint,
    ]
    .concat();
    let frame = [&(payload.len() as u32).to_le_bytes()[..], &payload].concat();
    assert_eq!((frame.len(), fnv1a64(&frame)), (95, 0x1831_4cf8_6426_baba));
    let err = decode(&payload).unwrap_err();
    assert!(err.to_string().contains("10 trailing bytes"), "{err}");
}

/// The body (after the tag) of the last tag-10 sample: node, clock,
/// round-trip time, best length, CLK calls and stall flag, then the
/// counter and gauge sections (`u32` count; per entry a `u16`-prefixed
/// name and an 8-byte value) and the `u32`-prefixed JSONL event bytes.
fn old_telemetry_body() -> Vec<u8> {
    fn entry(name: &str, value: [u8; 8]) -> Vec<u8> {
        [
            &(name.len() as u16).to_le_bytes()[..],
            name.as_bytes(),
            &value,
        ]
        .concat()
    }
    let events = b"{\"t_ns\":1,\"node\":14,\"seq\":0,\"kind\":\"clk.stall\"}\n";
    [
        &14u64.to_le_bytes()[..],
        &1_000_000_007u64.to_le_bytes(),
        &42_000u64.to_le_bytes(),
        &(-27_686i64).to_le_bytes(),
        &512u64.to_le_bytes(),
        &[1],
        &2u32.to_le_bytes(),
        &entry("clk.calls", 512u64.to_le_bytes()),
        &entry("node.broadcasts", 9u64.to_le_bytes()),
        &1u32.to_le_bytes(),
        &entry("node.best_len", (-27_686i64).to_le_bytes()),
        &(events.len() as u32).to_le_bytes(),
        events,
    ]
    .concat()
}
