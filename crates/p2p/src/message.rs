//! Messages exchanged between nodes.
//!
//! The paper's protocol is deliberately small: nodes broadcast improved
//! tours to their neighbors, announce when the known optimum was found
//! (a termination criterion), and leave the network when their budget
//! runs out (the topology "degenerates" near the end of a run, §2.3).

/// Dense node identifier assigned by the hub (the node's position in
/// the hypercube).
pub type NodeId = usize;

/// A protocol message: 11 frame types, one wire tag each (tags 6 to 10
/// are retired, see [`crate::codec`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// An improved tour, broadcast to the sender's neighbors
    /// (paper Fig. 1: `BROADCASTTONEIGHBORS(s_best)`).
    TourFound {
        /// Originating node.
        from: NodeId,
        /// Broadcast id, unique per originating broadcast
        /// (`origin << 32 | seq`). Nodes relay no received tour, so the
        /// id names the sender, and the event logs trace each adoption
        /// to its broadcast.
        id: u64,
        /// Tour length (precomputed by the sender so receivers can
        /// filter without touching the instance).
        length: i64,
        /// Visiting order.
        order: Vec<u32>,
    },
    /// The sender's local CLK discovered a tour matching the known
    /// optimum — every node may terminate (§2.3 criterion 2).
    OptimumFound {
        /// Originating node.
        from: NodeId,
        /// The optimal length found.
        length: i64,
    },
    /// The sender is leaving the network (budget exhausted).
    Leave {
        /// Departing node.
        from: NodeId,
    },
    /// Liveness probe: "are you still there?". The TCP transport
    /// answers these itself (with [`Message::Pong`]) and never
    /// surfaces them to the node loop; over in-memory transports the
    /// node driver answers.
    Ping {
        /// Probing node.
        from: NodeId,
    },
    /// Liveness probe answer. Refreshes the sender's last-seen clock
    /// on the receiving endpoint.
    Pong {
        /// Answering node.
        from: NodeId,
    },
    /// A solved subregion of a sharded (divide-and-optimize) run: the
    /// sub-tour of one spatial shard, sent by the worker that solved it
    /// to the collector node. Carried in *global* city ids; the
    /// collector validates membership against its own deterministic
    /// partition and recomputes the length before accepting, and
    /// winner-merges duplicates by `(length, shard id, sender)`.
    ShardResult {
        /// Worker that solved the shard.
        from: NodeId,
        /// Shard index in the deterministic partition.
        shard: u32,
        /// Sub-tour length as computed by the worker.
        length: i64,
        /// Sub-tour visiting order in global city ids.
        order: Vec<u32>,
    },
    /// A solve job, sent by a client on the hub's `JOB` command. The
    /// five job frames travel only on that client connection: the hub
    /// hands it to its registered job handler, which answers on the same
    /// stream. No job frame goes between nodes.
    JobSubmit {
        /// Submitting client connection (`0`; unread).
        from: NodeId,
        /// Job id, `client << 32 | seq` — the same composition as
        /// [`broadcast_id`], so `job >> 32` recovers the owning client.
        /// `0` on submission: the job handler assigns the id.
        job: u64,
        /// Client (tenant) the job belongs to; the fairness ledger is
        /// keyed by this.
        client: u64,
        /// RNG seed of the job's engine (per-job determinism).
        seed: u64,
        /// Kick budget per engine; `0` = unbounded (deadline-only).
        kicks: u64,
        /// Wall-clock deadline in milliseconds from acceptance;
        /// `0` = none.
        deadline_ms: u64,
        /// Target length (quality budget): the job stops as soon as a
        /// tour of this length or shorter is found. `i64::MIN` = none.
        target: i64,
        /// Payload format: 1 = TSPLIB text, 2 = JSON point list.
        payload_kind: u8,
        /// The instance payload bytes.
        payload: Vec<u8>,
    },
    /// The job handler accepted a job: the first frame of the job's
    /// stream back to the client.
    JobAccept {
        /// The job handler (`0`).
        from: NodeId,
        /// Job id.
        job: u64,
        /// The worker label the service placed the job on.
        worker: u64,
    },
    /// Anytime stream: the job's engine improved its best tour. Sent
    /// to the client for every strict improvement.
    JobImproved {
        /// The job handler (`0`).
        from: NodeId,
        /// Job id.
        job: u64,
        /// Improved tour length.
        length: i64,
        /// Visiting order.
        order: Vec<u32>,
    },
    /// Terminal frame of a job stream: budget exhausted, target
    /// reached, deadline expired, or cancelled — with the final best
    /// tour either way (anytime semantics).
    JobDone {
        /// The job handler (`0`).
        from: NodeId,
        /// Job id.
        job: u64,
        /// Why the job ended: 0 = budget exhausted, 1 = target
        /// reached, 2 = deadline expired, 3 = cancelled.
        reason: u8,
        /// Final best length.
        length: i64,
        /// Final best visiting order.
        order: Vec<u32>,
    },
    /// Cancel an in-flight job, sent by a client on a `JOB` connection
    /// of its own. The job's stream then ends with a
    /// [`Message::JobDone`] carrying its best-so-far.
    JobCancel {
        /// Requesting client connection (`0`; unread).
        from: NodeId,
        /// Job id.
        job: u64,
        /// Reason code, same scale as [`Message::JobDone::reason`]
        /// (clients send 3 = cancel).
        reason: u8,
    },
}

/// Compose a per-broadcast tour id from the originating node and its
/// local broadcast sequence number. The high half carries the origin,
/// so `id >> 32` recovers the node that found the tour.
pub fn broadcast_id(origin: NodeId, seq: u32) -> u64 {
    ((origin as u64) << 32) | seq as u64
}

/// Compose a job id from the owning client and the hub's per-client
/// submission sequence number — the [`broadcast_id`] composition
/// applied to the job layer, so `job >> 32` recovers the tenant
/// anywhere a job frame is observed.
pub fn job_id(client: u64, seq: u32) -> u64 {
    (client << 32) | seq as u64
}

impl Message {
    /// The sender of the message.
    pub fn from(&self) -> NodeId {
        match *self {
            Message::TourFound { from, .. }
            | Message::OptimumFound { from, .. }
            | Message::Leave { from }
            | Message::Ping { from }
            | Message::Pong { from }
            | Message::ShardResult { from, .. }
            | Message::JobSubmit { from, .. }
            | Message::JobAccept { from, .. }
            | Message::JobImproved { from, .. }
            | Message::JobDone { from, .. }
            | Message::JobCancel { from, .. } => from,
        }
    }

    /// Exact payload size in bytes (the frame is 4 bytes more): the
    /// codec's one layout run into a byte counter. Both transports count
    /// their traffic with it.
    pub fn wire_size(&self) -> usize {
        crate::codec::put(self, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_extracts_sender() {
        assert_eq!(Message::Leave { from: 3 }.from(), 3);
        assert_eq!(Message::OptimumFound { from: 7, length: 1 }.from(), 7);
        assert_eq!(
            Message::TourFound {
                from: 2,
                id: broadcast_id(2, 0),
                length: 10,
                order: vec![0, 1, 2]
            }
            .from(),
            2
        );
    }

    #[test]
    fn from_extracts_sender_liveness() {
        assert_eq!(Message::Ping { from: 4 }.from(), 4);
        assert_eq!(Message::Pong { from: 5 }.from(), 5);
    }

    #[test]
    fn liveness_wire_sizes() {
        assert_eq!(Message::Ping { from: 0 }.wire_size(), 9);
        assert_eq!(Message::Pong { from: 0 }.wire_size(), 9);
    }

    #[test]
    fn shard_result_sender_and_wire_size() {
        let msg = Message::ShardResult {
            from: 9,
            shard: 4,
            length: 321,
            order: (0..25).collect(),
        };
        assert_eq!(msg.from(), 9);
        // tag + from + shard + length + count + 25 cities.
        assert_eq!(msg.wire_size(), 1 + 8 + 4 + 8 + 4 + 4 * 25);
    }

    #[test]
    fn job_frames_sender_and_wire_size() {
        let submit = Message::JobSubmit {
            from: 0,
            job: job_id(7, 3),
            client: 7,
            seed: 42,
            kicks: 100,
            deadline_ms: 5_000,
            target: i64::MIN,
            payload_kind: 1,
            payload: b"NAME: t\n".to_vec(),
        };
        assert_eq!(submit.from(), 0);
        // Fixed header + kind byte + a length-prefixed payload.
        assert_eq!(submit.wire_size(), 1 + 7 * 8 + 1 + 4 + 8);
        assert_eq!(
            Message::JobAccept {
                from: 2,
                job: 1,
                worker: 2
            }
            .from(),
            2
        );
        assert_eq!(
            Message::JobAccept {
                from: 2,
                job: 1,
                worker: 2
            }
            .wire_size(),
            25
        );
        let improved = Message::JobImproved {
            from: 3,
            job: job_id(7, 3),
            length: 99,
            order: (0..12).collect(),
        };
        assert_eq!(improved.from(), 3);
        assert_eq!(improved.wire_size(), 1 + 8 + 8 + 8 + 4 + 4 * 12);
        let done = Message::JobDone {
            from: 3,
            job: 1,
            reason: 2,
            length: 99,
            order: (0..12).collect(),
        };
        assert_eq!(done.from(), 3);
        // JobDone = JobImproved + the reason byte.
        assert_eq!(done.wire_size(), improved.wire_size() + 1);
        let cancel = Message::JobCancel {
            from: 0,
            job: 1,
            reason: 3,
        };
        assert_eq!(cancel.from(), 0);
        assert_eq!(cancel.wire_size(), 18);
    }

    #[test]
    fn job_id_recovers_client() {
        let id = job_id(9, 41);
        assert_eq!(id >> 32, 9);
        assert_eq!(id & 0xffff_ffff, 41);
        assert_ne!(job_id(9, 41), job_id(41, 9));
    }

    #[test]
    fn broadcast_id_recovers_origin() {
        let id = broadcast_id(5, 17);
        assert_eq!(id >> 32, 5);
        assert_eq!(id & 0xffff_ffff, 17);
        assert_ne!(broadcast_id(5, 17), broadcast_id(17, 5));
    }

    #[test]
    fn wire_size_scales_with_tour() {
        let small = Message::TourFound {
            from: 0,
            id: 0,
            length: 0,
            order: vec![0; 10],
        };
        let big = Message::TourFound {
            from: 0,
            id: 0,
            length: 0,
            order: vec![0; 1000],
        };
        assert!(big.wire_size() > small.wire_size());
        assert_eq!(big.wire_size() - small.wire_size(), 4 * 990);
    }
}
