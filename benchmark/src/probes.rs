//! Micro-probes of single layers, run by the traced run of the
//! workloads they are predicted to move. Each times one public
//! operation in a loop on seeded inputs and reports the cost of one.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dist_clk::p2p::hub::bootstrap_local;
use dist_clk::p2p::{codec, wait_until, InMemoryNetwork, Message, Topology, Transport};
use dist_clk::tsp_core::{generate, TourOps, TwoLevelList};
use obs::Obs;

use crate::harness::Report;
use crate::input::{SplitMix, INSTANCE_SEED};
use crate::json::Json;
use crate::stats::median;

/// Median of `samples` timings of `f`, in seconds.
fn median_secs(samples: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// The probes every workload reports: the distance kernel under all of
/// them, and the cost of the product's own instrumentation.
pub fn common(report: &mut Report) {
    // 10 M distance evaluations between random city pairs at n = 50k:
    // the kernel without the locality a tour or a candidate list gives.
    let inst = generate::uniform(50_000, 1e6, INSTANCE_SEED);
    let mut rng = SplitMix(INSTANCE_SEED);
    let pairs: Vec<(u32, u32)> = (0..1 << 20)
        .map(|_| (rng.below(50_000) as u32, rng.below(50_000) as u32))
        .collect();
    let rounds = 10;
    let started = Instant::now();
    let mut sum = 0i64;
    for _ in 0..rounds {
        for &(a, b) in &pairs {
            sum += inst.dist(a as usize, b as usize);
        }
    }
    black_box(sum);
    report.set(
        "tsp_core.dist_ns",
        started.elapsed().as_secs_f64() * 1e9 / (rounds * pairs.len()) as f64,
    );

    let obs = Obs::for_node(0);
    let spans = 100_000;
    let started = Instant::now();
    for _ in 0..spans {
        obs.span("bench.probe").end();
    }
    report.set(
        "obs.span_ns",
        started.elapsed().as_secs_f64() * 1e9 / spans as f64,
    );
    let hist = obs.histogram("bench.probe.ns");
    let observations = 1_000_000u64;
    let started = Instant::now();
    for v in 0..observations {
        hist.observe(black_box(v));
    }
    report.set(
        "obs.histogram_observe_ns",
        started.elapsed().as_secs_f64() * 1e9 / observations as f64,
    );
}

/// Nanoseconds per `flip` between two random cities.
pub fn flip_ns<T: TourOps>(tour: &mut T) -> f64 {
    let n = tour.len() as u64;
    let mut rng = SplitMix(INSTANCE_SEED);
    let flips = 20_000;
    let pairs: Vec<(usize, usize)> = (0..flips)
        .map(|_| (rng.below(n) as usize, rng.below(n) as usize))
        .collect();
    let started = Instant::now();
    for &(a, b) in &pairs {
        if a != b {
            tour.flip(a, b);
        }
    }
    black_box(tour.next(0));
    started.elapsed().as_secs_f64() * 1e9 / flips as f64
}

/// Microseconds to rebuild a two-level list from a visiting order —
/// what a rejected kick pays today.
pub fn twolevel_from_order_us(order: &[u32]) -> f64 {
    1e6 * median_secs(21, || {
        black_box(TwoLevelList::from_order_slice(black_box(order)));
    })
}

fn tour_found(cities: u32) -> Message {
    Message::TourFound {
        from: 0,
        id: 1,
        length: 123_456_789,
        order: (0..cities).collect(),
    }
}

/// The transport layers under the service workload.
pub fn p2p(report: &mut Report, job_submit: &Message) {
    report.set(
        "p2p.codec.jobsubmit_roundtrip_us",
        1e6 * median_secs(2_001, || {
            let frame = codec::encode(black_box(job_submit));
            black_box(codec::decode(&frame[4..]).expect("own frame decodes"));
        }),
    );
    let cities = 50_000;
    let big = tour_found(cities);
    let frame = codec::encode(&big);
    report.set(
        "p2p.codec.encode_ns_per_city",
        1e9 * median_secs(101, || {
            black_box(codec::encode(black_box(&big)));
        }) / cities as f64,
    );
    report.set(
        "p2p.codec.decode_ns_per_city",
        1e9 * median_secs(101, || {
            black_box(codec::decode(black_box(&frame[4..])).expect("own frame decodes"));
        }) / cities as f64,
    );

    // One 2k-city tour there and back between two nodes, in memory and
    // over localhost TCP.
    let tour = tour_found(2_000);
    let (mut mem, _) = InMemoryNetwork::build(2, Topology::Ring);
    report.set(
        "p2p.mem.hop_us",
        1e6 * ping_pong(&mut mem, &tour, 2_001) / 2.0,
    );
    match bootstrap_local(2, Topology::Ring) {
        Ok(mut tcp) => {
            tcp.sort_by_key(|ep| ep.node_id());
            // The later joiner dials the earlier one, which learns of
            // the link when it accepts.
            if wait_until(
                || tcp.iter().all(|ep| !ep.neighbors().is_empty()),
                Duration::from_secs(5),
            ) {
                report.set("p2p.tcp.hop_rtt_us", 1e6 * ping_pong(&mut tcp, &tour, 501));
            } else {
                report.note(
                    "p2p.tcp.hop_rtt_us.error",
                    Json::str("link not up after 5 s"),
                );
            }
            for ep in &mut tcp {
                ep.shutdown();
            }
        }
        Err(e) => report.note("p2p.tcp.hop_rtt_us.error", Json::str(e.to_string())),
    }
}

/// Median seconds for `msg` to travel node 0 → node 1 → node 0.
fn ping_pong<T: Transport>(eps: &mut [T], msg: &Message, samples: usize) -> f64 {
    fn recv<T: Transport>(ep: &mut T) {
        let started = Instant::now();
        while ep.try_recv().is_none() {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "probe message lost"
            );
            std::hint::spin_loop();
        }
    }
    median_secs(samples, || {
        eps[0].send(1, msg.clone()).expect("send to a live peer");
        recv(&mut eps[1]);
        eps[1].send(0, msg.clone()).expect("send to a live peer");
        recv(&mut eps[0]);
    })
}
