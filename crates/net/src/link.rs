//! Shard links: one bidirectional, line-framed channel per shard.
//!
//! The coordinator owns a `Box<dyn ShardLink>` per shard slot and a
//! single mpsc receiver; every link forwards inbound lines as
//! [`LinkEvent`]s tagged with the shard index and the link's
//! *generation*. A TCP link bumps its generation on every (re)connect,
//! so events from a connection that was already torn down — a late
//! `Eof` from a reader thread that lost a race with `reconnect` — can
//! be recognized and ignored instead of killing a healthy replacement
//! connection.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prism_pipeline::{FaultPlan, NetFaultKind, Site};

use crate::handshake::client_handshake;

/// Largest protocol frame (one line, newline excluded) any reader
/// accepts. The largest frames are `artifact` frames carrying one
/// design-point or timing artifact (tens of KiB on the full registry),
/// so the cap leaves two orders of magnitude of headroom while keeping a
/// peer that never sends a newline from growing a reader without bound.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// An inbound frame longer than [`MAX_FRAME_BYTES`]: the inner error of
/// the [`io::ErrorKind::InvalidData`] error [`read_frames`] yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLong;

impl std::fmt::Display for FrameTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inbound frame exceeds {MAX_FRAME_BYTES} bytes")
    }
}

impl std::error::Error for FrameTooLong {}

/// The frames of `reader`, like [`BufRead::lines`] but bounded: a frame
/// longer than [`MAX_FRAME_BYTES`] yields a [`FrameTooLong`] error after
/// buffering at most the cap, and the caller ends the session.
pub fn read_frames<R: BufRead>(mut reader: R) -> impl Iterator<Item = io::Result<String>> {
    std::iter::from_fn(move || {
        let mut frame = Vec::new();
        // One byte of room past the cap for the newline.
        let limit = MAX_FRAME_BYTES as u64 + 1;
        match reader.by_ref().take(limit).read_until(b'\n', &mut frame) {
            Ok(0) => return None,
            Ok(_) => {}
            Err(e) => return Some(Err(e)),
        }
        if frame.last() == Some(&b'\n') {
            frame.pop();
            if frame.last() == Some(&b'\r') {
                frame.pop();
            }
        } else if frame.len() > MAX_FRAME_BYTES {
            return Some(Err(io::Error::new(
                io::ErrorKind::InvalidData,
                FrameTooLong,
            )));
        }
        Some(String::from_utf8(frame).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)))
    })
}

/// How long a `net.delay` fault holds a frame before delivering it —
/// long enough to trip any realistic heartbeat timeout in tests.
pub(crate) const DELAY_FAULT: Duration = Duration::from_millis(750);

/// The net layer's view of a [`FaultPlan`]: it reads only the
/// `net.<kind>.<shard>@N` entries, where `N` counts a link's inbound
/// frames (1-based, across reconnects, so each entry fires exactly
/// once). Other entries of the same plan are left to their own layers
/// (`crash.*` to [`prism_pipeline::crash_point`], which reads
/// `PRISM_FAULTS`; `grid.*` to the worker's `GridFaultPlan`).
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan(pub Option<Arc<FaultPlan>>);

impl NetFaultPlan {
    /// The fault (if any) that fires on `shard`'s `frame`-th inbound
    /// frame.
    fn action(&self, shard: usize, frame: u64) -> Option<NetFaultKind> {
        self.0
            .as_ref()?
            .armed_for(frame, shard)
            .find_map(|site| match site {
                Site::Net(kind, _) => Some(kind),
                _ => None,
            })
    }
}

/// An inbound event from one shard link, tagged with the link
/// generation that produced it (always 0 for non-TCP links).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkEvent {
    /// One protocol line (without the trailing newline).
    Line(u64, String),
    /// The link's read side ended — worker exit, connection cut, or
    /// local teardown. Sent exactly once per connection.
    Eof(u64),
}

/// A bidirectional, line-framed transport to one shard worker. The
/// trait ships opaque lines: framing is "one message per `\n`-terminated
/// line" and nothing here inspects message contents.
pub trait ShardLink: Send {
    /// Writes one protocol line (newline appended) and flushes.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the link is closed or the write fails.
    fn send_line(&mut self, line: &str) -> io::Result<()>;

    /// Tears the link down immediately (kill the subprocess / cut the
    /// socket). Idempotent; the reader thread will follow with its
    /// [`LinkEvent::Eof`].
    fn kill(&mut self);

    /// Closes only the coordinator→worker direction, letting the worker
    /// observe EOF and drain while its own sends still flow.
    fn shutdown_input(&mut self);

    /// Waits (until `deadline`) for the link's resources — subprocess,
    /// reader thread — to wind down, forcing teardown at the deadline.
    fn reap(&mut self, deadline: Instant);

    /// Re-establishes a torn-down link, returning the new generation.
    ///
    /// # Errors
    ///
    /// Returns the last dial error, or `Unsupported` for transports
    /// that cannot reconnect (a subprocess's pipes die with it).
    fn reconnect(&mut self) -> io::Result<u64>;

    /// Current link generation (see [`LinkEvent`]).
    fn generation(&self) -> u64;

    /// Whether the peer is on another host (and thus does not share the
    /// coordinator's artifact store).
    fn is_remote(&self) -> bool;

    /// Human-readable peer description for logs and stats.
    fn describe(&self) -> String;
}

// ---------------------------------------------------------------------
// Stdio subprocess link (the original grid transport).
// ---------------------------------------------------------------------

/// A local worker subprocess: protocol lines flow over its stdin/stdout
/// pipes. The caller configures the `Command` (argv, env); the link owns
/// the pipes and the stdout reader thread.
pub struct StdioLink {
    child: Child,
    stdin: Option<ChildStdin>,
    reader: Option<JoinHandle<()>>,
    desc: String,
}

impl StdioLink {
    /// Spawns `command` with piped stdin/stdout (stderr untouched) and
    /// starts a reader thread forwarding stdout lines to `tx` as events
    /// for `shard`.
    ///
    /// # Errors
    ///
    /// Returns the spawn error.
    pub fn spawn(
        mut command: Command,
        shard: usize,
        tx: &mpsc::Sender<(usize, LinkEvent)>,
    ) -> io::Result<StdioLink> {
        let desc = format!("{:?}", command.get_program());
        command.stdin(Stdio::piped()).stdout(Stdio::piped());
        let mut child = command.spawn()?;
        let stdin = child.stdin.take();
        let stdout = child
            .stdout
            .take()
            .ok_or_else(|| io::Error::other("child stdout not captured"))?;
        let tx = tx.clone();
        let reader = std::thread::spawn(move || {
            for line in read_frames(BufReader::new(stdout)) {
                let Ok(line) = line else { break };
                if tx.send((shard, LinkEvent::Line(0, line))).is_err() {
                    break;
                }
            }
            let _ = tx.send((shard, LinkEvent::Eof(0)));
        });
        Ok(StdioLink {
            child,
            stdin,
            reader: Some(reader),
            desc,
        })
    }
}

impl ShardLink for StdioLink {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        let Some(stdin) = self.stdin.as_mut() else {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "stdin closed"));
        };
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    fn kill(&mut self) {
        self.stdin = None;
        let _ = self.child.kill();
    }

    fn shutdown_input(&mut self) {
        self.stdin = None;
    }

    fn reap(&mut self, deadline: Instant) {
        self.stdin = None;
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) | Err(_) => break,
                Ok(None) => {
                    if Instant::now() >= deadline {
                        let _ = self.child.kill();
                        let _ = self.child.wait();
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }

    fn reconnect(&mut self) -> io::Result<u64> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "a subprocess link cannot reconnect",
        ))
    }

    fn generation(&self) -> u64 {
        0
    }

    fn is_remote(&self) -> bool {
        false
    }

    fn describe(&self) -> String {
        format!("local subprocess {}", self.desc)
    }
}

// ---------------------------------------------------------------------
// TCP link to a remote worker daemon.
// ---------------------------------------------------------------------

/// How many dial attempts one [`ShardLink::reconnect`] call makes, with
/// doubling backoff starting at [`RECONNECT_BACKOFF_START`].
pub const RECONNECT_ATTEMPTS: u32 = 4;

/// First backoff step of a reconnect (doubles per attempt: 50/100/200/400 ms).
pub const RECONNECT_BACKOFF_START: Duration = Duration::from_millis(50);

/// A remote worker daemon reached over TCP. Each (re)connect performs
/// the shared-secret handshake before any protocol frame flows, bumps
/// the link generation, and starts a fresh reader thread. The inbound
/// frame counter that drives [`NetFaultPlan`] persists across
/// reconnects, so an injected fault fires exactly once per plan entry.
pub struct TcpLink {
    addr: String,
    shard: usize,
    token: String,
    faults: NetFaultPlan,
    tx: mpsc::Sender<(usize, LinkEvent)>,
    stream: Option<TcpStream>,
    reader: Option<JoinHandle<()>>,
    gen: u64,
    frames: Arc<AtomicU64>,
}

impl TcpLink {
    /// Dials `addr`, runs the handshake as `shard` with `token`, and
    /// starts forwarding inbound lines to `tx`.
    ///
    /// # Errors
    ///
    /// Returns the connect or handshake error (no retries on the first
    /// dial — the caller decides whether a cold host is fatal).
    pub fn connect(
        addr: &str,
        shard: usize,
        token: &str,
        faults: NetFaultPlan,
        tx: mpsc::Sender<(usize, LinkEvent)>,
    ) -> io::Result<TcpLink> {
        let mut link = TcpLink {
            addr: addr.to_string(),
            shard,
            token: token.to_string(),
            faults,
            tx,
            stream: None,
            reader: None,
            gen: 0,
            frames: Arc::new(AtomicU64::new(0)),
        };
        link.dial()?;
        Ok(link)
    }

    fn dial(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(&self.addr)?;
        let _ = stream.set_nodelay(true);
        client_handshake(&stream, self.shard, &self.token)?;
        self.gen += 1;
        let gen = self.gen;
        let shard = self.shard;
        let faults = self.faults.clone();
        let frames = Arc::clone(&self.frames);
        let tx = self.tx.clone();
        let reader_stream = stream.try_clone()?;
        self.reader = Some(std::thread::spawn(move || {
            read_loop(&reader_stream, shard, gen, &faults, &frames, &tx);
        }));
        self.stream = Some(stream);
        Ok(())
    }
}

fn read_loop(
    stream: &TcpStream,
    shard: usize,
    gen: u64,
    faults: &NetFaultPlan,
    frames: &AtomicU64,
    tx: &mpsc::Sender<(usize, LinkEvent)>,
) {
    let Ok(clone) = stream.try_clone() else {
        let _ = tx.send((shard, LinkEvent::Eof(gen)));
        return;
    };
    for line in read_frames(BufReader::new(clone)) {
        let Ok(line) = line else { break };
        let frame = frames.fetch_add(1, Ordering::SeqCst) + 1;
        match faults.action(shard, frame) {
            Some(NetFaultKind::Drop) => {
                eprintln!(
                    "[prism-net] fault: dropping frame {frame} of shard {shard}, cutting link"
                );
                let _ = stream.shutdown(Shutdown::Both);
                break;
            }
            Some(NetFaultKind::Delay) => {
                eprintln!("[prism-net] fault: delaying frame {frame} of shard {shard}");
                std::thread::sleep(DELAY_FAULT);
                if tx.send((shard, LinkEvent::Line(gen, line))).is_err() {
                    break;
                }
            }
            Some(NetFaultKind::Disconnect) => {
                let _ = tx.send((shard, LinkEvent::Line(gen, line)));
                eprintln!("[prism-net] fault: disconnecting shard {shard} after frame {frame}");
                let _ = stream.shutdown(Shutdown::Both);
                break;
            }
            None => {
                if tx.send((shard, LinkEvent::Line(gen, line))).is_err() {
                    break;
                }
            }
        }
    }
    let _ = tx.send((shard, LinkEvent::Eof(gen)));
}

impl ShardLink for TcpLink {
    fn send_line(&mut self, line: &str) -> io::Result<()> {
        let Some(stream) = self.stream.as_mut() else {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "link closed"));
        };
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()
    }

    fn kill(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn shutdown_input(&mut self) {
        if let Some(stream) = self.stream.as_ref() {
            let _ = stream.shutdown(Shutdown::Write);
        }
    }

    fn reap(&mut self, deadline: Instant) {
        let Some(reader) = self.reader.take() else {
            return;
        };
        while !reader.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        if !reader.is_finished() {
            if let Some(stream) = self.stream.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        let _ = reader.join();
    }

    fn reconnect(&mut self) -> io::Result<u64> {
        self.kill();
        // The old reader sends its Eof and exits once the socket is cut;
        // join it so at most one reader is ever live per link.
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        let mut backoff = RECONNECT_BACKOFF_START;
        let mut last = io::Error::other("no reconnect attempt made");
        for _ in 0..RECONNECT_ATTEMPTS {
            std::thread::sleep(backoff);
            match self.dial() {
                Ok(()) => return Ok(self.gen),
                Err(e) => {
                    last = e;
                    backoff *= 2;
                }
            }
        }
        Err(last)
    }

    fn generation(&self) -> u64 {
        self.gen
    }

    fn is_remote(&self) -> bool {
        true
    }

    fn describe(&self) -> String {
        format!("remote host {}", self.addr)
    }
}

// ---------------------------------------------------------------------
// Dead placeholder link.
// ---------------------------------------------------------------------

/// A permanently dead link: fills a shard slot when a spawn or connect
/// fails, keeping the shard == slot-index invariant without a live peer.
pub struct DeadLink {
    desc: String,
}

impl DeadLink {
    /// A dead link described as `desc` in logs.
    #[must_use]
    pub fn new(desc: &str) -> DeadLink {
        DeadLink {
            desc: desc.to_string(),
        }
    }
}

impl ShardLink for DeadLink {
    fn send_line(&mut self, _line: &str) -> io::Result<()> {
        Err(io::Error::new(io::ErrorKind::BrokenPipe, "dead link"))
    }

    fn kill(&mut self) {}

    fn shutdown_input(&mut self) {}

    fn reap(&mut self, _deadline: Instant) {}

    fn reconnect(&mut self) -> io::Result<u64> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "dead link"))
    }

    fn generation(&self) -> u64 {
        0
    }

    fn is_remote(&self) -> bool {
        false
    }

    fn describe(&self) -> String {
        format!("dead slot ({})", self.desc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::accept_handshake;
    use std::net::TcpListener;

    /// A one-connection echo daemon: handshake, greet, then echo lines.
    fn echo_daemon(token: &'static str) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { break };
                let Ok(_shard) = accept_handshake(&stream, token) else {
                    continue;
                };
                let mut w = stream.try_clone().unwrap();
                if writeln!(w, "{{\"type\":\"greeting\"}}").is_err() {
                    continue;
                }
                for line in BufReader::new(stream).lines() {
                    let Ok(line) = line else { break };
                    if line == "quit" {
                        return;
                    }
                    // The peer may cut the link at any point (fault
                    // injection) — a failed echo just ends the session.
                    if writeln!(w, "{line}").is_err() {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    fn net_faults(spec: &str) -> NetFaultPlan {
        NetFaultPlan(Some(Arc::new(FaultPlan::parse(spec).unwrap())))
    }

    fn next_line(rx: &mpsc::Receiver<(usize, LinkEvent)>) -> (usize, LinkEvent) {
        rx.recv_timeout(Duration::from_secs(5)).unwrap()
    }

    #[test]
    fn tcp_link_round_trips_lines() {
        let (addr, daemon) = echo_daemon("tok");
        let (tx, rx) = mpsc::channel();
        let mut link = TcpLink::connect(&addr, 3, "tok", NetFaultPlan::default(), tx).unwrap();
        assert!(link.is_remote());
        assert_eq!(link.generation(), 1);
        assert_eq!(
            next_line(&rx),
            (3, LinkEvent::Line(1, "{\"type\":\"greeting\"}".into()))
        );
        link.send_line("hello").unwrap();
        assert_eq!(next_line(&rx), (3, LinkEvent::Line(1, "hello".into())));
        link.send_line("quit").unwrap();
        assert_eq!(next_line(&rx), (3, LinkEvent::Eof(1)));
        link.reap(Instant::now() + Duration::from_secs(2));
        daemon.join().unwrap();
    }

    #[test]
    fn tcp_link_reconnect_bumps_generation() {
        let (addr, daemon) = echo_daemon("");
        let (tx, rx) = mpsc::channel();
        let mut link = TcpLink::connect(&addr, 0, "", NetFaultPlan::default(), tx).unwrap();
        assert_eq!(
            next_line(&rx).1,
            LinkEvent::Line(1, "{\"type\":\"greeting\"}".into())
        );
        link.kill();
        assert_eq!(next_line(&rx).1, LinkEvent::Eof(1));
        let gen = link.reconnect().unwrap();
        assert_eq!(gen, 2);
        assert_eq!(
            next_line(&rx).1,
            LinkEvent::Line(2, "{\"type\":\"greeting\"}".into())
        );
        link.send_line("quit").unwrap();
        assert_eq!(next_line(&rx).1, LinkEvent::Eof(2));
        link.reap(Instant::now() + Duration::from_secs(2));
        daemon.join().unwrap();
    }

    #[test]
    fn disconnect_fault_cuts_after_the_nth_frame() {
        let (addr, _daemon) = echo_daemon("");
        let (tx, rx) = mpsc::channel();
        let mut link =
            TcpLink::connect(&addr, 0, "", net_faults("net.disconnect.0@2"), tx).unwrap();
        // Frame 1: greeting. Frame 2: first echo — delivered, then cut.
        assert_eq!(
            next_line(&rx).1,
            LinkEvent::Line(1, "{\"type\":\"greeting\"}".into())
        );
        link.send_line("a").unwrap();
        // The cut fires once "a" echoes back, racing this send — either
        // outcome is fine, the frames below are what the fault contracts.
        let _ = link.send_line("b");
        assert_eq!(next_line(&rx).1, LinkEvent::Line(1, "a".into()));
        assert_eq!(next_line(&rx).1, LinkEvent::Eof(1));
        link.kill();
    }

    #[test]
    fn drop_fault_discards_the_frame() {
        let (addr, _daemon) = echo_daemon("");
        let (tx, rx) = mpsc::channel();
        let mut link = TcpLink::connect(&addr, 0, "", net_faults("net.drop.0@1"), tx).unwrap();
        // Frame 1 (the greeting) is dropped and the link cut: the only
        // event ever seen is Eof.
        assert_eq!(next_line(&rx).1, LinkEvent::Eof(1));
        link.kill();
    }

    #[test]
    fn faults_armed_on_another_shard_leave_the_link_alone() {
        let (addr, daemon) = echo_daemon("");
        let (tx, rx) = mpsc::channel();
        let faults = net_faults("net.drop.1@1,net.disconnect.1@2");
        let mut link = TcpLink::connect(&addr, 0, "", faults, tx).unwrap();
        assert_eq!(
            next_line(&rx).1,
            LinkEvent::Line(1, "{\"type\":\"greeting\"}".into())
        );
        link.send_line("a").unwrap();
        assert_eq!(next_line(&rx).1, LinkEvent::Line(1, "a".into()));
        link.send_line("quit").unwrap();
        assert_eq!(next_line(&rx).1, LinkEvent::Eof(1));
        link.reap(Instant::now() + Duration::from_secs(2));
        daemon.join().unwrap();
    }

    #[test]
    fn delay_fault_delivers_the_frame_late_and_keeps_the_link() {
        let (addr, daemon) = echo_daemon("");
        let (tx, rx) = mpsc::channel();
        let mut link = TcpLink::connect(&addr, 0, "", net_faults("net.delay.0@2"), tx).unwrap();
        assert_eq!(
            next_line(&rx).1,
            LinkEvent::Line(1, "{\"type\":\"greeting\"}".into())
        );
        // Frame 2 (the first echo) is held back by the fault.
        let sent = Instant::now();
        link.send_line("late").unwrap();
        assert_eq!(next_line(&rx).1, LinkEvent::Line(1, "late".into()));
        assert!(sent.elapsed() >= DELAY_FAULT, "{:?}", sent.elapsed());
        // The link stays up: same generation, later frames flow on time.
        link.send_line("prompt").unwrap();
        assert_eq!(next_line(&rx).1, LinkEvent::Line(1, "prompt".into()));
        assert_eq!(link.generation(), 1);
        link.send_line("quit").unwrap();
        assert_eq!(next_line(&rx).1, LinkEvent::Eof(1));
        link.reap(Instant::now() + Duration::from_secs(2));
        daemon.join().unwrap();
    }

    #[test]
    fn frames_over_the_cap_are_a_typed_error() {
        let at_cap = "x".repeat(MAX_FRAME_BYTES);
        let input = format!("a\r\n{at_cap}\n{at_cap}y\nnever read\n");
        let mut frames = read_frames(input.as_bytes());
        assert_eq!(frames.next().unwrap().unwrap(), "a");
        assert_eq!(frames.next().unwrap().unwrap(), at_cap);
        let err = frames.next().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.get_ref().is_some_and(|e| e.is::<FrameTooLong>()),
            "{err}"
        );
        // An unterminated last frame is still a frame; then the end.
        let mut frames = read_frames("tail".as_bytes());
        assert_eq!(frames.next().unwrap().unwrap(), "tail");
        assert!(frames.next().is_none());
    }

    #[test]
    fn wrong_token_fails_the_connect() {
        let (addr, _daemon) = echo_daemon("right");
        let (tx, _rx) = mpsc::channel();
        let err = match TcpLink::connect(&addr, 0, "wrong", NetFaultPlan::default(), tx) {
            Err(e) => e,
            Ok(_) => panic!("connect with a wrong token must fail"),
        };
        assert!(err.to_string().contains("rejected"), "{err}");
    }

    #[test]
    fn dead_link_rejects_everything() {
        let mut link = DeadLink::new("connect refused");
        assert!(link.send_line("x").is_err());
        assert!(link.reconnect().is_err());
        assert!(!link.is_remote());
        assert_eq!(link.generation(), 0);
        assert!(link.describe().contains("connect refused"));
        link.kill();
        link.reap(Instant::now());
    }
}
