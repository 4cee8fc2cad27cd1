//! The TCP front end: a blocking accept loop feeding per-connection
//! threads, each reading newline-delimited JSON frames under a byte cap
//! and a read deadline. A `shutdown` request, once answered, wakes the
//! accept loop with one connection of its own so the loop sees the drain.
//! Degradation is graded, never silent:
//!
//! * malformed frame → `bad_request`, connection stays open;
//! * frame over the cap → `too_large`, connection closes (the stream
//!   position is unrecoverable);
//! * read deadline hit mid-frame (slow loris) → `timeout`, close;
//! * EOF mid-frame (torn frame) → counted, closed quietly;
//! * connection bound hit → `overloaded`, close;
//! * any of the above on one connection never perturbs another.

use crate::state::Shared;
use crate::store::{atomic_write, Store};
use crate::worker;
use crate::{protocol, Config, JobHandler};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long the accept loop backs off after an accept error (say, out of
/// file descriptors) before it accepts again.
const ACCEPT_RETRY: Duration = Duration::from_millis(20);

/// A running daemon. Construct with [`Server::start`], block on
/// [`Server::wait`]; a `shutdown` protocol op ends the wait.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: JoinHandle<()>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, recovers the durable queue, and starts accept + worker
    /// threads. The bound address (useful with port 0) is published to
    /// `<dir>/serve.addr` before this returns.
    ///
    /// # Errors
    ///
    /// Bind/listen and state-directory failures.
    pub fn start(cfg: Config, handler: Arc<dyn JobHandler>) -> io::Result<Server> {
        std::fs::create_dir_all(&cfg.dir)?;
        let store = Store::open(&cfg.dir)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        atomic_write(&cfg.dir.join("serve.addr"), addr.to_string().as_bytes())?;
        qufi_obs::log::info(&format!("serve: listening on {addr}"));

        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared::recover(cfg, store, handler));

        let mut worker_threads = Vec::with_capacity(workers);
        for slot in 0..workers {
            let shared = Arc::clone(&shared);
            worker_threads.push(
                thread::Builder::new()
                    .name(format!("qufi-serve-supervisor-{slot}"))
                    .spawn(move || worker::supervise_slot(&shared, slot))
                    .expect("spawn supervisor thread"),
            );
        }

        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("qufi-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, addr, &accept_shared))
            .expect("spawn accept thread");

        Ok(Server {
            addr,
            shared,
            accept_thread,
            worker_threads,
        })
    }

    /// The bound listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `shutdown` op drains the daemon: the accept loop
    /// exits, workers finish (or checkpoint) their jobs, and a final
    /// telemetry snapshot lands in `<dir>/metrics.json`. The durable
    /// queue keeps whatever was still pending.
    ///
    /// # Errors
    ///
    /// Never fails today; the `Result` reserves the right to report
    /// final-persistence problems.
    pub fn wait(self) -> io::Result<()> {
        let _ = self.accept_thread.join();
        for handle in self.worker_threads {
            let _ = handle.join();
        }
        qufi_obs::flush();
        let snapshot = qufi_obs::snapshot();
        let _ = atomic_write(
            &self.shared.cfg.dir.join("metrics.json"),
            snapshot.to_json().as_bytes(),
        );
        qufi_obs::log::info("serve: drained; exiting");
        Ok(())
    }
}

/// Accepts until the daemon drains. The loop blocks in `accept`, so the
/// connection that answers a `shutdown` opens one more connection to
/// `addr` ([`wake_accept`]) after its reply, and the loop checks the drain
/// flag after every accept.
fn accept_loop(listener: &TcpListener, addr: SocketAddr, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.draining() {
            qufi_obs::flush();
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                if !shared.conn_acquire() {
                    // Shed at the door: answer, then close. Writes are
                    // best-effort — the client may already be gone.
                    shed_connection(stream, shared);
                    continue;
                }
                let conn_shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name("qufi-serve-conn".to_string())
                    .spawn(move || {
                        handle_conn(stream, addr, &conn_shared);
                        conn_shared.conn_release();
                        qufi_obs::flush();
                    });
                if let Err(e) = spawned {
                    // Spawn failure (EAGAIN under resource exhaustion)
                    // drops the closure — and the stream with it. The
                    // slot must come back or conn_cap leaks away one
                    // failure at a time until the daemon sheds everyone.
                    shared.conn_release();
                    qufi_obs::add("serve.conn.spawn_failed", 1);
                    qufi_obs::log::warn(&format!("serve: connection thread spawn failed: {e}"));
                }
            }
            Err(_) => thread::sleep(ACCEPT_RETRY),
        }
    }
}

/// Opens (and drops) one connection to the daemon's own listen address,
/// so an accept loop blocked in `accept` returns and sees the drain flag.
/// An unspecified bind address (`0.0.0.0`, `::`) is reached on loopback.
fn wake_accept(addr: SocketAddr) {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match target {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    match TcpStream::connect(target) {
        // Refused: an earlier shutdown already ended the loop and closed
        // the listener.
        Ok(_) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionRefused => {}
        Err(e) => qufi_obs::log::warn(&format!("serve: could not wake the accept loop: {e}")),
    }
}

fn shed_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
    let _ = stream.write_all(
        protocol::error("overloaded", "connection limit reached; retry later").as_bytes(),
    );
}

/// One frame read under the cap and the deadline.
enum Frame {
    Line(String),
    /// Clean EOF at a frame boundary.
    Eof,
    /// Over the byte cap.
    TooLarge,
    /// Read deadline expired mid-frame.
    TimedOut,
    /// EOF (or transport error) mid-frame.
    Torn,
}

fn read_frame(stream: &mut TcpStream, buf: &mut Vec<u8>, cap: usize) -> Frame {
    buf.clear();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                return if buf.is_empty() {
                    Frame::Eof
                } else {
                    Frame::Torn
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    return Frame::Line(String::from_utf8_lossy(buf).into_owned());
                }
                if buf.len() >= cap {
                    return Frame::TooLarge;
                }
                buf.push(byte[0]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Frame::TimedOut;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Frame::Torn,
        }
    }
}

fn handle_conn(mut stream: TcpStream, addr: SocketAddr, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(shared.cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.io_timeout));
    // One-line replies must not wait out Nagle + delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut buf = Vec::new();
    loop {
        let mut wake = false;
        let response = match read_frame(&mut stream, &mut buf, shared.cfg.max_request) {
            Frame::Eof => return,
            Frame::Torn => {
                qufi_obs::add("serve.conn.torn", 1);
                return;
            }
            Frame::TimedOut => {
                qufi_obs::add("serve.conn.timeout", 1);
                let _ = stream
                    .write_all(protocol::error("timeout", "read deadline expired").as_bytes());
                return;
            }
            Frame::TooLarge => {
                qufi_obs::add("serve.req.too_large", 1);
                let _ = stream.write_all(
                    protocol::error(
                        "too_large",
                        &format!("request exceeds {} bytes", shared.cfg.max_request),
                    )
                    .as_bytes(),
                );
                // Swallow (bounded) what the client already sent before
                // closing: closing with unread bytes pending resets the
                // connection and can destroy the response in flight.
                discard_rest(&mut stream, shared.cfg.max_request.saturating_mul(4));
                return;
            }
            Frame::Line(line) => match protocol::parse_request(&line) {
                Err(message) => {
                    qufi_obs::add("serve.req.bad", 1);
                    protocol::error("bad_request", &message)
                }
                Ok(request) => {
                    wake = matches!(request, protocol::Request::Shutdown { .. });
                    dispatch(shared, request)
                }
            },
        };
        let written = stream.write_all(response.as_bytes());
        if wake {
            wake_accept(addr);
        }
        if written.is_err() {
            return;
        }
    }
}

/// Reads and discards up to `budget` bytes (or until EOF/deadline) so a
/// rejected connection closes without racing the client's final read.
fn discard_rest(stream: &mut TcpStream, budget: usize) {
    let mut sink = [0u8; 1024];
    let mut remaining = budget;
    while remaining > 0 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => return,
            Ok(n) => remaining = remaining.saturating_sub(n),
        }
    }
}

fn dispatch(shared: &Arc<Shared>, request: protocol::Request) -> String {
    use protocol::Request;
    match request {
        Request::Submit { manifest } => shared.submit(&manifest),
        Request::Status { job } => shared.status(&job),
        Request::Cancel { job } => shared.cancel(&job),
        Request::List => shared.list(),
        Request::Health => shared.health(),
        Request::Shutdown { drain } => shared.shutdown(drain),
    }
}
