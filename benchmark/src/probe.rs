//! Grid protocol round trips measured over in-memory pipes.
//!
//! The probe drives `prism_grid::run_worker_io` as a coordinator would:
//! hello, then one assignment at a time. The worker's store is warmed by
//! an untimed first session, so every timed assignment is answered from
//! a stored design-point artifact and the round trip is protocol cost:
//! frame encode/decode, queueing and the artifact load.

use std::io::{BufRead, Read, Write};
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prism_exocore::{all_bsa_subsets, all_cores};
use prism_grid::{
    run_worker_io, FromWorker, GridFaultPlan, ToWorker, WorkerOptions, PROTO_VERSION,
};
use prism_sim::TracerConfig;

/// The probe's kernels: the microbenchmarks keep its warm-up cheap.
const PROBE_WORKLOADS: [&str; 3] = ["micro-fetch", "micro-chain", "micro-muldiv"];
/// Hello round trips timed (one worker session each).
const HELLO_SAMPLES: usize = 40;
/// Passes over the 64 design points in the timed assignment session.
const ASSIGN_PASSES: usize = 2;
/// A worker that stays silent this long is treated as hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Round-trip samples, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Rtts {
    /// Hello → HelloAck, one per fresh worker session.
    pub hello: Vec<f64>,
    /// Assign → UnitResult on a warm store.
    pub assign: Vec<f64>,
}

/// Reading end of an in-memory pipe.
struct PipeReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
    timeout: Option<Duration>,
}

impl PipeReader {
    fn new(rx: Receiver<Vec<u8>>, timeout: Option<Duration>) -> Self {
        PipeReader {
            rx,
            buf: Vec::new(),
            pos: 0,
            timeout,
        }
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PipeReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        while self.pos >= self.buf.len() {
            let next = match self.timeout {
                Some(t) => self.rx.recv_timeout(t),
                None => self.rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match next {
                Ok(bytes) => {
                    self.buf = bytes;
                    self.pos = 0;
                }
                // The writer hung up: end of stream.
                Err(RecvTimeoutError::Disconnected) => return Ok(&[]),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "grid worker sent nothing",
                    ))
                }
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// Writing end of an in-memory pipe.
struct PipeWriter(Sender<Vec<u8>>);

impl Write for PipeWriter {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0
            .send(bytes.to_vec())
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "reader gone"))?;
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The coordinator's end of one worker session.
struct Conn {
    to_worker: Sender<Vec<u8>>,
    from_worker: PipeReader,
    worker: JoinHandle<i32>,
}

impl Conn {
    fn open(store: &Path) -> Conn {
        let (to_worker, worker_in) = channel();
        let (worker_out, from_worker) = channel();
        let opts = WorkerOptions {
            expected_shard: Some(0),
            store_dir: Some(store.to_path_buf()),
            store_cap: None,
            faults: GridFaultPlan::default(),
        };
        let worker = std::thread::spawn(move || {
            run_worker_io(
                PipeReader::new(worker_in, None),
                PipeWriter(worker_out),
                &opts,
            )
        });
        Conn {
            to_worker,
            from_worker: PipeReader::new(from_worker, Some(REPLY_TIMEOUT)),
            worker,
        }
    }

    fn send(&self, msg: &ToWorker) -> Result<(), String> {
        self.to_worker
            .send(format!("{}\n", msg.encode()).into_bytes())
            .map_err(|_| "grid worker exited".to_string())
    }

    /// The next frame that is not a heartbeat.
    fn recv(&mut self) -> Result<FromWorker, String> {
        loop {
            let mut line = String::new();
            let n = self
                .from_worker
                .read_line(&mut line)
                .map_err(|e| format!("grid worker: {e}"))?;
            if n == 0 {
                return Err("grid worker closed its output".into());
            }
            match FromWorker::decode(line.trim_end()).map_err(|e| format!("bad frame: {e}"))? {
                FromWorker::Heartbeat { .. } => continue,
                FromWorker::Fatal { message } => return Err(format!("grid worker: {message}")),
                frame => return Ok(frame),
            }
        }
    }

    fn hello(&mut self, store: &Path) -> Result<(), String> {
        self.send(&ToWorker::Hello {
            proto: PROTO_VERSION,
            shard: 0,
            workloads: PROBE_WORKLOADS.iter().map(|s| (*s).to_string()).collect(),
            max_insts: TracerConfig::default().max_insts,
            artifact_dir: store.display().to_string(),
        })?;
        match self.recv()? {
            FromWorker::HelloAck { .. } => Ok(()),
            other => Err(format!("expected hello-ack, got {other:?}")),
        }
    }

    /// Assigns one unit and waits for its result.
    fn assign(&mut self, id: u64, core: &str, bsas: &str) -> Result<(), String> {
        self.send(&ToWorker::Assign {
            id,
            core: core.to_string(),
            bsas: bsas.to_string(),
        })?;
        loop {
            match self.recv()? {
                FromWorker::UnitResult { id: got, .. } if got == id => return Ok(()),
                FromWorker::UnitQuarantine { key, error, .. } => {
                    return Err(format!("probe unit {key} quarantined: {error:?}"))
                }
                _ => continue,
            }
        }
    }

    /// Shuts the session down and returns the worker thread to join.
    fn close(mut self) -> Result<JoinHandle<i32>, String> {
        self.send(&ToWorker::Shutdown)?;
        while !matches!(self.recv()?, FromWorker::Bye { .. }) {}
        Ok(self.worker)
    }
}

fn join(worker: JoinHandle<i32>) -> Result<(), String> {
    match worker.join() {
        Ok(0) => Ok(()),
        Ok(code) => Err(format!("grid worker session ended with code {code}")),
        Err(_) => Err("grid worker session panicked".into()),
    }
}

/// Measures hello and assignment round trips against a worker store
/// under `store`.
///
/// # Errors
///
/// Returns a message when a worker session fails, quarantines a unit or
/// stays silent.
pub fn measure(store: &Path) -> Result<Rtts, String> {
    let units: Vec<(String, String)> = all_cores()
        .iter()
        .flat_map(|c| {
            all_bsa_subsets()
                .into_iter()
                .map(move |s| (c.name.clone(), s.iter().map(|b| b.code()).collect()))
        })
        .collect();
    let mut rtts = Rtts::default();

    // Untimed: evaluate every unit once so the store holds its artifact.
    let mut conn = Conn::open(store);
    conn.hello(store)?;
    for (id, (core, bsas)) in units.iter().enumerate() {
        conn.assign(id as u64, core, bsas)?;
    }
    join(conn.close()?)?;

    let mut ended = Vec::with_capacity(HELLO_SAMPLES);
    for _ in 0..HELLO_SAMPLES {
        let mut conn = Conn::open(store);
        let start = Instant::now();
        conn.hello(store)?;
        rtts.hello.push(start.elapsed().as_secs_f64());
        // Sessions wind down on the worker's heartbeat tick; join them
        // together at the end instead of waiting for each.
        ended.push(conn.close()?);
    }
    for worker in ended {
        join(worker)?;
    }

    let mut conn = Conn::open(store);
    conn.hello(store)?;
    // Untimed: the session's first unit per core prepares the kernels
    // and measures that core's oracle tables.
    let mut id = 0u64;
    for core in all_cores() {
        conn.assign(id, &core.name, "")?;
        id += 1;
    }
    for _ in 0..ASSIGN_PASSES {
        for (core, bsas) in &units {
            let start = Instant::now();
            conn.assign(id, core, bsas)?;
            rtts.assign.push(start.elapsed().as_secs_f64());
            id += 1;
        }
    }
    join(conn.close()?)?;
    Ok(rtts)
}
