//! Small shared helpers.

use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll `pred` until it returns true or `deadline` passes, sleeping
/// between polls (no busy-wait). Returns whether the predicate held
/// before the deadline.
///
/// This is the crate's standard way to wait for an asynchronous
/// condition in tests (peer registration, counters catching up, queue
/// drains) — prefer it over hand-rolled `while Instant::now() < …`
/// spin loops.
pub fn wait_until(mut pred: impl FnMut() -> bool, deadline: Duration) -> bool {
    let end = Instant::now() + deadline;
    loop {
        if pred() {
            return true;
        }
        if Instant::now() >= end {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Pause after a failed `accept`, so a persistent error (`EMFILE`
/// under a connection flood) does not spin the accept thread.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(10);

/// The one accept loop of the crate (peer listener and hub): accept on
/// `listener` until `stop` is set and serve each stream on its own
/// thread named `name`; join those threads on the way out.
///
/// An accept error (`ECONNABORTED`, `EMFILE`, `WouldBlock` on a
/// non-blocking listener) or a failed thread spawn goes to `on_error`
/// and costs only that connection — the loop pauses briefly and keeps
/// listening. A blocking listener's owner sets `stop` and then dials the
/// listener once to wake the loop; that stream is closed unserved.
pub(crate) fn accept_loop(
    listener: &TcpListener,
    stop: &AtomicBool,
    name: &str,
    serve: impl Fn(TcpStream) + Send + Sync + 'static,
    mut on_error: impl FnMut(&dyn std::fmt::Display),
) {
    let serve = Arc::new(serve);
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                on_error(&e);
                std::thread::sleep(ACCEPT_ERROR_PAUSE);
                continue;
            }
        };
        if stop.load(Ordering::Acquire) {
            let _ = stream.shutdown(Shutdown::Both);
            break;
        }
        let serve = Arc::clone(&serve);
        conns.retain(|h| !h.is_finished());
        match std::thread::Builder::new()
            .name(name.into())
            .spawn(move || serve(stream))
        {
            Ok(handle) => conns.push(handle),
            // Out of threads: the closure was dropped and the stream
            // with it, so this client sees a closed connection.
            Err(e) => on_error(&e),
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn immediate_truth_returns_fast() {
        let start = Instant::now();
        assert!(wait_until(|| true, Duration::from_secs(5)));
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn eventual_truth_is_awaited() {
        let start = Instant::now();
        assert!(wait_until(
            || start.elapsed() > Duration::from_millis(20),
            Duration::from_secs(5)
        ));
    }

    #[test]
    fn deadline_expiry_returns_false() {
        assert!(!wait_until(|| false, Duration::from_millis(30)));
    }

    /// A non-blocking listener fails every empty poll with `WouldBlock`:
    /// the loop counts those errors, keeps listening, serves a client
    /// that shows up 50 ms later, and exits once stopped.
    #[test]
    fn accept_loop_outlives_accept_errors() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let loop_stop = Arc::clone(&stop);
        let server = std::thread::spawn(move || {
            let mut errors = 0usize;
            accept_loop(
                &listener,
                &loop_stop,
                "accept-test",
                move |mut stream| {
                    stream.set_nonblocking(false).unwrap();
                    let mut byte = [0u8; 1];
                    stream.read_exact(&mut byte).unwrap();
                    tx.send(byte[0]).unwrap();
                },
                |_| errors += 1,
            );
            errors
        });
        std::thread::sleep(Duration::from_millis(50));
        TcpStream::connect(addr).unwrap().write_all(b"x").unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(b'x'));
        stop.store(true, Ordering::Release);
        let errors = server.join().unwrap();
        assert!(errors >= 1, "no accept error was reported");
    }
}
