//! End-to-end demo of the TCP transport on localhost: bind two
//! observability-instrumented endpoints, exchange tours over real
//! sockets, show that connecting to a dead address fails within the
//! configured deadline, and that shutdown returns promptly with all
//! threads joined. Finishes by dumping each node's wire metrics and
//! the merged structured event log as JSONL — the same artifacts the
//! `profile` bench experiment renders.
//!
//! ```text
//! cargo run -p p2p --example tcp_demo
//! ```

use std::time::{Duration, Instant};

use obs::Obs;
use p2p::tcp::{TcpConfig, TcpEndpoint};
use p2p::{Message, Transport};

fn recv_blocking(ep: &mut TcpEndpoint, deadline: Duration) -> Option<Message> {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if let Some(m) = ep.try_recv() {
            return Some(m);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    None
}

fn main() {
    // 1. Two endpoints on ephemeral localhost ports, one connect call.
    //    Each carries a live obs handle recording wire metrics/events.
    let obs_a = Obs::for_node(0);
    let obs_b = Obs::for_node(1);
    let mut a = TcpEndpoint::bind_with_obs(0, "127.0.0.1:0", TcpConfig::default(), obs_a.clone())
        .expect("bind a");
    let mut b = TcpEndpoint::bind_with_obs(1, "127.0.0.1:0", TcpConfig::default(), obs_b.clone())
        .expect("bind b");
    a.connect_to(1, b.listen_addr()).expect("connect a->b");
    println!(
        "connected: node 0 @ {} <-> node 1 @ {}",
        a.listen_addr(),
        b.listen_addr()
    );

    // 2. A tour each way over the wire.
    a.send(
        1,
        Message::TourFound {
            from: 0,
            id: p2p::broadcast_id(0, 1),
            length: 4242,
            order: (0..32).collect(),
        },
    )
    .expect("send a->b");
    match recv_blocking(&mut b, Duration::from_secs(2)) {
        Some(Message::TourFound {
            from,
            id,
            length,
            order,
        }) => {
            println!(
                "node 1 received tour: from={from} id={id:#x} length={length} cities={}",
                order.len()
            );
        }
        other => panic!("node 1 expected a tour, got {other:?}"),
    }
    b.send(
        0,
        Message::OptimumFound {
            from: 1,
            length: 4242,
        },
    )
    .expect("send b->a");
    match recv_blocking(&mut a, Duration::from_secs(2)) {
        Some(Message::OptimumFound { from, length }) => {
            println!("node 0 received optimum notice: from={from} length={length}");
        }
        other => panic!("node 0 expected an optimum notice, got {other:?}"),
    }

    // 3. Dead address: retries + backoff must stay within the deadline
    //    budget instead of hanging — and each retry is counted.
    let cfg = TcpConfig::fast_fail();
    let obs_dead = Obs::for_node(7);
    let dead = TcpEndpoint::bind_with_obs(7, "127.0.0.1:0", cfg.clone(), obs_dead.clone())
        .expect("bind dead-dialer");
    let start = Instant::now();
    let err = dead
        .connect_to(8, "127.0.0.1:9".parse().unwrap())
        .expect_err("connecting to a dead address must fail");
    let elapsed = start.elapsed();
    let budget = (cfg.connect_timeout + cfg.backoff_max) * (cfg.connect_retries + 1);
    println!(
        "dead-address connect failed in {elapsed:.2?} (budget {budget:.2?}, retries counted: {}): {err}",
        obs_dead.snapshot().counter("tcp.retries")
    );
    assert!(elapsed <= budget, "retry loop exceeded its deadline budget");

    // 4. Shutdown joins reader threads in bounded time.
    let start = Instant::now();
    a.shutdown();
    b.shutdown();
    println!("both endpoints shut down in {:.2?}", start.elapsed());
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown not bounded"
    );

    // 5. The observability artifacts: per-node wire metrics in
    //    Prometheus text format, then the merged event timeline as
    //    JSONL.
    println!("\n--- node 0 metrics ---\n{}", obs_a.prometheus_text());
    println!("--- node 1 metrics ---\n{}", obs_b.prometheus_text());
    println!("--- event log (jsonl) ---");
    let timeline = obs::merge_timelines(&[obs_a.events(), obs_b.events()]);
    let mut out = Vec::new();
    obs::write_jsonl(&mut out, &timeline).expect("serialize events");
    print!("{}", String::from_utf8(out).expect("jsonl is utf-8"));
    println!("ok");
}
