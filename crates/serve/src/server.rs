//! The daemon: one scheduler thread owning the online
//! [`Cluster`], a listener thread accepting TCP connections, and one
//! reader + one writer thread per connection.
//!
//! Every thread is joined before [`ServerHandle::wait`] returns. The
//! scheduler starts the listener and joins it last; the listener owns
//! the connection threads and, on `shutdown`, half-closes every
//! connection's read side (each reader sees EOF while its writer still
//! flushes queued replies) and joins them all.
//!
//! All cluster state lives on the scheduler thread; connections talk to
//! it through an mpsc channel and get answers through their connection's
//! bounded [`SubQueue`]. The scheduler therefore never blocks on a
//! socket: replies are queued unconditionally, stream records are
//! dropped-and-counted past the subscriber's bound (see [`crate::queue`]).
//!
//! Drain ordering: `drain` closes admission (subsequent `submit`s get an
//! error), steps the event clock until no live work remains — pumping
//! lifecycle events and transfer records to subscribers after every
//! event — and only then renders final stats into its reply, so a
//! subscriber's stream is always complete (modulo explicit `dropped`
//! markers) before the drain reply is observable.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc};
use std::thread;

use capuchin_cluster::{Cluster, ClusterConfig, ClusterTransfer, JobEvent, JobFileError, JobSpec};
use capuchin_sim::{Duration, Time};

use crate::protocol::{self, Envelope, Op};
use crate::queue::SubQueue;

/// Longest request line the daemon buffers, newline excluded. A client
/// that sends more without a newline gets an error reply and is
/// disconnected, so no client can grow daemon memory without bound.
const MAX_LINE_BYTES: usize = 1 << 20;

/// How long a stopping daemon lets a writer flush its queued lines
/// before cutting the connection. Only a client that stops reading
/// needs more than microseconds; it must not hold up `shutdown`.
const FLUSH_GRACE: std::time::Duration = std::time::Duration::from_secs(2);

/// How the daemon maps wall time onto the simulated event clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// The simulated clock advances only inside `drain`: a fixed
    /// submission sequence is fully deterministic and byte-identical to
    /// the batch run. The default, and what tests/benches use.
    Virtual,
    /// The simulated clock tracks real elapsed time since the daemon
    /// started: events fire as wall time passes them.
    Wall,
}

impl ClockMode {
    /// Wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ClockMode::Virtual => "virtual",
            ClockMode::Wall => "wall",
        }
    }

    /// Parses a `--clock` value.
    ///
    /// # Errors
    ///
    /// Returns a usage message for anything but `virtual` or `wall`.
    pub fn parse(s: &str) -> Result<ClockMode, String> {
        match s {
            "virtual" => Ok(ClockMode::Virtual),
            "wall" => Ok(ClockMode::Wall),
            other => Err(format!(
                "--clock must be `virtual` or `wall`, got `{other}`"
            )),
        }
    }
}

/// The `capuchin-serve` usage text: the flags [`ServeConfig::from_flags`]
/// accepts.
pub const USAGE: &str = "\
capuchin-serve — streaming scheduler daemon (line-delimited JSON over TCP)

USAGE:
    capuchin-serve [--addr <host:port>] [--clock virtual|wall]
                   [--gpus <n>] [--memory <bytes|GiB>]
                   [--admission tf-ori|capuchin] [--strategy fifo|best-fit]
                   [--preemption on|off] [--interconnect off|pcie|peer<k>]
                   [--elastic on|off] [--slo-aware on|off]
                   [--predictive on|off] [--min-samples <n>]

The cluster flags, their defaults and their messages are those of
`capuchin-cli cluster`: 4 × 16 GiB GPUs, capuchin admission, fifo
placement, SLO-aware scheduling on (--slo-aware off is the SLO-blind
baseline). Fixed: priorities age by 0.1 points per second waited, an
elastic job shrinks to a quarter of its batch at most, and a predicted
admission is padded by 15%. --addr defaults to 127.0.0.1:7070; use port 0
for an ephemeral port (printed on the `listening on` line). --clock
virtual (the default) only advances the simulated clock inside `drain`,
so a fixed submission sequence reproduces the batch run byte-for-byte;
--clock wall paces events against real time.

Requests (one JSON object per line): submit, cancel, status, stats,
subscribe, drain, shutdown.
";

/// Everything [`serve`] needs.
#[derive(Debug)]
pub struct ServeConfig {
    /// The simulated cluster to schedule on.
    pub cluster: ClusterConfig,
    /// Clock mode (default [`ClockMode::Virtual`]).
    pub clock: ClockMode,
    /// Bind address; use port 0 for an ephemeral port and read the real
    /// one from [`ServerHandle::addr`].
    pub addr: String,
}

impl ServeConfig {
    /// Builds a config from `--flag value` pairs: `addr`, `clock`, and
    /// the cluster knobs of [`ClusterConfig::from_flags`] — the same
    /// flags, defaults and messages as `capuchin-cli cluster`.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the offending flag.
    pub fn from_flags(flags: &HashMap<String, String>) -> Result<ServeConfig, String> {
        let accepted = || {
            ["addr", "clock"]
                .into_iter()
                .chain(ClusterConfig::FLAGS.iter().copied())
        };
        let mut unknown: Vec<&str> = flags
            .keys()
            .map(String::as_str)
            .filter(|k| !accepted().any(|a| a == *k))
            .collect();
        unknown.sort_unstable();
        if let Some(first) = unknown.first() {
            // A typo like `--preempt on` must be an error, not a silent
            // run with the flag's default.
            return Err(format!(
                "unknown flag `--{first}` (accepted: {})",
                accepted()
                    .map(|a| format!("--{a}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        Ok(ServeConfig {
            cluster: ClusterConfig::from_flags(flags)?,
            clock: match flags.get("clock") {
                Some(s) => ClockMode::parse(s)?,
                None => ClockMode::Virtual,
            },
            addr: flags
                .get("addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:7070".to_owned()),
        })
    }
}

/// A running daemon: the bound address plus the scheduler thread, which
/// outlives every other daemon thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    scheduler: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon stops (a client sent `shutdown`) and
    /// every one of its threads has exited. A panic on the scheduler
    /// thread is re-raised here, so the daemon's process fails with it.
    pub fn wait(self) {
        if let Err(panic) = self.scheduler.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

/// The cluster shape a wire submission is validated against: the same
/// [`JobSpec::validate`] checks a job file gets from `capuchin-cli
/// cluster`.
#[derive(Debug, Clone, Copy)]
struct SubmitLimits {
    gpus: usize,
    link_domain_gpus: usize,
}

impl SubmitLimits {
    fn of(cfg: &ClusterConfig) -> SubmitLimits {
        SubmitLimits {
            gpus: cfg.gpus,
            link_domain_gpus: cfg.link_domain_gpus(),
        }
    }

    fn check(&self, spec: &JobSpec) -> Result<(), JobFileError> {
        spec.validate(self.gpus, self.link_domain_gpus)
    }
}

enum Command {
    Request { env: Envelope, queue: Arc<SubQueue> },
    Hangup { queue: Arc<SubQueue> },
}

struct Subscriber {
    queue: Arc<SubQueue>,
    job: Option<u64>,
    /// The subscribed job's name — transfer records carry names, not ids.
    name: Option<String>,
    transfers: bool,
}

/// Starts the daemon and returns once the socket is bound and the
/// scheduler thread, which starts the listener, is running.
///
/// # Errors
///
/// Returns the bind error when `cfg.addr` is unusable.
pub fn serve(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let limits = SubmitLimits::of(&cfg.cluster);
    let scheduler = thread::spawn(move || {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<Command>();
        let accept = thread::spawn({
            let stop = Arc::clone(&stop);
            move || accept_loop(listener, &tx, &stop)
        });
        let mut cluster = Cluster::new(cfg.cluster);
        scheduler_loop(&mut cluster, limits, cfg.clock, &rx, &stop, addr);
        // The listener returns only once every connection thread has
        // exited; the cluster is freed after all of them.
        let _ = accept.join();
    });
    Ok(ServerHandle { addr, scheduler })
}

/// One accepted connection: a handle on its socket (to half-close it at
/// shutdown) and its two threads.
struct Conn {
    stream: TcpStream,
    reader: thread::JoinHandle<()>,
    writer: thread::JoinHandle<()>,
}

fn accept_loop(listener: TcpListener, tx: &Sender<Command>, stop: &AtomicBool) {
    let mut conns: Vec<Conn> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        conns.retain(|c| !(c.reader.is_finished() && c.writer.is_finished()));
        let Ok(stream) = conn else { continue };
        // Every line leaves in one write; Nagle would only hold it back
        // for the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        let (Ok(write_half), Ok(handle)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        let queue = SubQueue::new(protocol::DEFAULT_EVENT_QUEUE);
        let wq = Arc::clone(&queue);
        let writer = thread::spawn(move || writer_loop(write_half, &wq));
        let rtx = tx.clone();
        let reader = thread::spawn(move || reader_loop(stream, &rtx, &queue));
        conns.push(Conn {
            stream: handle,
            reader,
            writer,
        });
    }
    drop(listener);
    // EOF wakes every blocked reader, which closes its queue; the writer
    // then flushes what is queued (the `shutdown` reply among it) and
    // exits.
    for c in &conns {
        let _ = c.stream.shutdown(Shutdown::Read);
    }
    let deadline = std::time::Instant::now() + FLUSH_GRACE;
    for c in conns {
        let _ = c.reader.join();
        while !c.writer.is_finished() && std::time::Instant::now() < deadline {
            thread::sleep(std::time::Duration::from_millis(1));
        }
        if !c.writer.is_finished() {
            // A client that stopped reading: fail the blocked write.
            let _ = c.stream.shutdown(Shutdown::Both);
        }
        let _ = c.writer.join();
    }
}

fn reader_loop(stream: TcpStream, tx: &Sender<Command>, queue: &Arc<SubQueue>) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the bound tells an over-long line apart from one
        // that fits exactly.
        let limit = MAX_LINE_BYTES as u64 + 1;
        match reader.by_ref().take(limit).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.len() > MAX_LINE_BYTES && !line.ends_with(b"\n") {
            let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            queue.push_reply(protocol::reply_err("?", &None, &msg));
            // The writer sends the reply, then half-closes. Reading out
            // what the client already sent (bounded in bytes and time)
            // lets the socket close without a reset that could destroy
            // the reply in flight.
            queue.close();
            let _ = reader
                .get_ref()
                .set_read_timeout(Some(std::time::Duration::from_secs(1)));
            let _ = std::io::copy(&mut reader.take(limit), &mut std::io::sink());
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            break;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        match protocol::parse_request(trimmed) {
            Ok(env) => {
                let cmd = Command::Request {
                    env,
                    queue: Arc::clone(queue),
                };
                if tx.send(cmd).is_err() {
                    break;
                }
            }
            // Malformed lines are answered locally; the scheduler never
            // sees them.
            Err(msg) => queue.push_reply(protocol::reply_err("?", &None, &msg)),
        }
    }
    let _ = tx.send(Command::Hangup {
        queue: Arc::clone(queue),
    });
    queue.close();
}

fn writer_loop(mut stream: TcpStream, queue: &Arc<SubQueue>) {
    while let Some(mut line) = queue.pop() {
        // The line and its newline go out in one write.
        line.push('\n');
        if stream.write_all(line.as_bytes()).is_err() {
            // The consumer is gone; closing prunes this subscriber at the
            // scheduler's next pump.
            queue.close();
            break;
        }
        let pace = queue.pace_us();
        if pace > 0 {
            thread::sleep(std::time::Duration::from_micros(pace));
        }
    }
    let _ = stream.shutdown(Shutdown::Write);
}

fn scheduler_loop(
    cluster: &mut Cluster,
    limits: SubmitLimits,
    clock: ClockMode,
    rx: &Receiver<Command>,
    stop: &AtomicBool,
    addr: SocketAddr,
) {
    let mut subs: Vec<Subscriber> = Vec::new();
    let mut draining = false;
    let started = std::time::Instant::now();
    loop {
        let cmd = match clock {
            ClockMode::Virtual => match rx.recv() {
                Ok(cmd) => Some(cmd),
                Err(_) => break,
            },
            ClockMode::Wall => match rx.recv_timeout(std::time::Duration::from_millis(2)) {
                Ok(cmd) => Some(cmd),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            },
        };
        if clock == ClockMode::Wall {
            let elapsed = Duration::from_nanos(
                u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
            cluster.advance_to(Time::ZERO + elapsed);
            pump(cluster, &mut subs);
        }
        match cmd {
            None => {}
            Some(Command::Hangup { queue }) => {
                subs.retain(|s| !Arc::ptr_eq(&s.queue, &queue));
            }
            Some(Command::Request { env, queue }) => {
                let shutdown = handle(cluster, &limits, &mut subs, &mut draining, env, &queue);
                pump(cluster, &mut subs);
                if shutdown {
                    for sub in &subs {
                        sub.queue.close();
                    }
                    queue.close();
                    stop.store(true, Ordering::Relaxed);
                    // Unblock the listener's accept so it observes `stop`.
                    let _ = TcpStream::connect(addr);
                    break;
                }
            }
        }
    }
}

/// Fans freshly drained lifecycle events and transfer records out to the
/// matching subscribers. Runs after every command and every drain step —
/// also with no subscribers at all, so the side-channel buffers cannot
/// grow without bound in a long-lived daemon.
fn pump(cluster: &mut Cluster, subs: &mut Vec<Subscriber>) {
    let events = cluster.take_events();
    let transfers = cluster.take_transfers();
    if subs.is_empty() {
        return;
    }
    for e in &events {
        let line = protocol::event_line(e);
        for sub in subs.iter().filter(|s| s.wants_event(e)) {
            sub.queue.push_stream(line.clone());
        }
    }
    for t in &transfers {
        let line = protocol::transfer_line(t);
        for sub in subs.iter().filter(|s| s.wants_transfer(t)) {
            sub.queue.push_stream(line.clone());
        }
    }
    subs.retain(|s| !s.queue.is_closed());
}

impl Subscriber {
    fn wants_event(&self, e: &JobEvent) -> bool {
        self.job.is_none_or(|j| j == e.job)
    }

    fn wants_transfer(&self, t: &ClusterTransfer) -> bool {
        self.transfers && self.name.as_ref().is_none_or(|n| **n == *t.job)
    }
}

fn handle(
    cluster: &mut Cluster,
    limits: &SubmitLimits,
    subs: &mut Vec<Subscriber>,
    draining: &mut bool,
    env: Envelope,
    queue: &Arc<SubQueue>,
) -> bool {
    let Envelope { id, op } = env;
    match op {
        Op::Submit { spec } => {
            if *draining {
                queue.push_reply(protocol::reply_err(
                    "submit",
                    &id,
                    "draining: admission is closed",
                ));
            } else if let Err(e) = limits.check(&spec) {
                queue.push_reply(protocol::reply_err("submit", &id, &e.to_string()));
            } else {
                let job = cluster.submit(&spec) as u64;
                queue.push_reply(protocol::reply_ok("submit", &id, &[("job", &job)]));
            }
        }
        Op::Cancel { job } => {
            let reply = match usize::try_from(job)
                .map_err(|_| "job id out of range".to_owned())
                .and_then(|j| cluster.cancel(j).map_err(|e| e.to_string()))
            {
                Ok(()) => protocol::reply_ok("cancel", &id, &[]),
                Err(e) => protocol::reply_err("cancel", &id, &e),
            };
            queue.push_reply(reply);
        }
        Op::Status { job } => {
            let status = usize::try_from(job).ok().and_then(|j| cluster.status(j));
            let reply = match status {
                Some(st) => protocol::reply_ok("status", &id, &[("status", &st)]),
                None => {
                    protocol::reply_err("status", &id, &format!("job {job} was never submitted"))
                }
            };
            queue.push_reply(reply);
        }
        Op::Stats => {
            queue.push_reply(protocol::reply_ok(
                "stats",
                &id,
                &[("stats", &cluster.stats())],
            ));
        }
        Op::Subscribe(opts) => {
            let name = opts
                .job
                .and_then(|j| usize::try_from(j).ok())
                .and_then(|j| cluster.status(j))
                .map(|st| st.name);
            if let (Some(job), None) = (opts.job, &name) {
                queue.push_reply(protocol::reply_err(
                    "subscribe",
                    &id,
                    &format!("job {job} was never submitted"),
                ));
            } else {
                queue.set_cap(opts.queue);
                queue.set_pace_us(opts.pace_us);
                subs.push(Subscriber {
                    queue: Arc::clone(queue),
                    job: opts.job,
                    name,
                    transfers: opts.transfers,
                });
                queue.push_reply(protocol::reply_ok("subscribe", &id, &[]));
            }
        }
        Op::Drain => {
            *draining = true;
            // Step-and-pump rather than `Cluster::drain`, so subscribers
            // watch the run retire instead of getting one burst at the
            // end (and so bounded queues exercise their drop path).
            while cluster.step() {
                pump(cluster, subs);
            }
            queue.push_reply(protocol::reply_ok(
                "drain",
                &id,
                &[("stats", &cluster.stats())],
            ));
        }
        Op::Shutdown => {
            queue.push_reply(protocol::reply_ok("shutdown", &id, &[]));
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_reraises_a_scheduler_panic() {
        let handle = ServerHandle {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            scheduler: thread::spawn(|| panic!("scheduler failed")),
        };
        let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.wait()));
        assert!(waited.is_err(), "wait must not swallow the panic");
    }
}
