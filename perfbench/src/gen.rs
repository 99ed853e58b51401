//! The benchmark's own open-loop load generator.
//!
//! Requests are issued on a fixed schedule (request `k` is due at
//! `start + k / rate`) whatever the replies do, and each latency is
//! timed from the request's *due* instant, so a stall is charged to
//! every request it delays. One thread sends, one thread receives: the
//! receiver blocks in `poll(2)` on the reply descriptors, so a reply is
//! stamped when it arrives, and the sender sleeps to an absolute
//! deadline just before each due instant and then spins until it, so
//! sends are not rounded to the millisecond grain of a poll timeout
//! (`serve::mux` rounds every wait up to at least 1 ms). How late the
//! sender ran, and how much CPU it took, is reported with every run.

use std::ffi::{c_int, c_long, c_ulong};
use std::io::Read;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use strent_serve::sys::{poll_fds, PollFd, POLLIN};
use strent_serve::wire::{
    self, FrameDecoder, OP_BUSY, OP_CLOSE, OP_HELLO, OP_HELLO_OK, OP_OK, OP_RATE_LIMITED, OP_REQ,
    OP_SHEDDING,
};
use strent_serve::{BackpressureClass, CompletionQueue, Connector, EntropyClient};

/// Below this distance to the due instant the sender stops sleeping
/// and spins instead. It covers the wake-up latency of an absolute
/// deadline sleep once the thread's timer slack is 1 ns (the default
/// slack of 50 µs would be added to every sleep). The spin does not
/// yield: a yield hands the CPU to a runnable service thread and the
/// send waits for the sender's next time slice.
const SPIN: Duration = Duration::from_micros(50);

/// How long replies may trail the last due instant before the requests
/// still unanswered count as lost.
const DRAIN: Duration = Duration::from_secs(10);

/// One open-loop phase: `rate` requests per second of `nbytes` each,
/// spread round-robin over `conns` connections, for `duration`.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub rate: f64,
    pub duration: Duration,
    pub nbytes: u32,
    pub conns: usize,
}

impl OpenLoop {
    fn requests(&self) -> u64 {
        (self.rate * self.duration.as_secs_f64()).round().max(1.0) as u64
    }
}

/// What one open-loop phase observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Grant latency from the due instant, ns, one per full grant.
    pub latency_ns: Vec<u64>,
    /// Send instant minus due instant, ns, one per issued request.
    pub late_ns: Vec<u64>,
    pub issued: u64,
    pub granted: u64,
    pub short: u64,
    pub busy: u64,
    pub rate_limited: u64,
    pub shed: u64,
    pub errors: u64,
    pub lost: u64,
    pub dead_conns: u64,
    /// The most requests outstanding at once, sampled whenever the
    /// receiver wakes.
    pub max_outstanding: u64,
    /// From the first due instant to the last reply.
    pub elapsed: Duration,
    /// CPU time the sender thread used, and its wall time.
    pub sender_cpu: Duration,
    pub sender_wall: Duration,
}

impl Tally {
    /// Requests that did not end in a full grant.
    pub fn failed(&self) -> u64 {
        self.short + self.busy + self.rate_limited + self.shed + self.errors + self.lost
    }
}

/// How one reply ended.
enum Outcome {
    Granted(usize),
    Refused(BackpressureClass),
    Error,
}

struct Schedule {
    start: Instant,
    rate: f64,
}

impl Schedule {
    fn due(&self, k: u64) -> Instant {
        self.start + Duration::from_secs_f64(k as f64 / self.rate)
    }
}

impl Tally {
    fn record(&mut self, schedule: &Schedule, k: u64, outcome: Outcome, nbytes: usize) {
        match outcome {
            Outcome::Granted(len) if len == nbytes => {
                self.granted += 1;
                let late = Instant::now().saturating_duration_since(schedule.due(k));
                self.latency_ns.push(late.as_nanos() as u64);
            }
            Outcome::Granted(_) => self.short += 1,
            Outcome::Refused(BackpressureClass::Busy) => self.busy += 1,
            Outcome::Refused(BackpressureClass::RateLimited) => self.rate_limited += 1,
            Outcome::Refused(BackpressureClass::Shedding) => self.shed += 1,
            Outcome::Error => self.errors += 1,
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// The clock `Instant` reads on Linux.
const CLOCK_MONOTONIC: c_int = 1;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
const TIMER_ABSTIME: c_int = 1;
const PR_SET_TIMERSLACK: c_int = 29;
const EINTR: c_int = 4;

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    fn clock_nanosleep(
        clock: c_int,
        flags: c_int,
        req: *const Timespec,
        rem: *mut Timespec,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Reads `clock`, in nanoseconds.
fn clock_ns(clock: c_int) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // the call only writes.
    unsafe { clock_gettime(clock, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Sets the calling thread's timer slack to 1 ns, so its sleeps end
/// when asked instead of up to 50 µs later.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // no memory of the caller.
    unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
}

/// Sleeps until `due` with an absolute deadline on the monotonic clock.
fn sleep_until(due: Instant) {
    let now = Instant::now();
    let Some(left) = due.checked_duration_since(now) else {
        return;
    };
    let target = clock_ns(CLOCK_MONOTONIC) + left.as_nanos() as u64;
    let ts = Timespec {
        tv_sec: (target / 1_000_000_000) as c_long,
        tv_nsec: (target % 1_000_000_000) as c_long,
    };
    // SAFETY: `ts` is a valid `struct timespec` the call only reads; no
    // remainder is asked for with TIMER_ABSTIME.
    while unsafe { clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, std::ptr::null_mut()) }
        == EINTR
    {}
}

fn wait_until(due: Instant) {
    if let Some(wake) = due.checked_sub(SPIN) {
        sleep_until(wake);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// What the sender measured: the lateness of each send, its CPU time
/// and its wall time.
struct Sent {
    late_ns: Vec<u64>,
    cpu: Duration,
    wall: Duration,
}

impl Tally {
    fn absorb_sent(&mut self, sent: Sent) {
        self.late_ns = sent.late_ns;
        self.sender_cpu = sent.cpu;
        self.sender_wall = sent.wall;
    }
}

/// The sender half: issues every request at its due instant. Stops
/// early on the first issue error (the receiver then counts the rest as
/// never issued).
fn send_all(
    schedule: &Schedule,
    n: u64,
    issued: &AtomicU64,
    done: &AtomicBool,
    mut issue: impl FnMut(u64) -> bool,
) -> Sent {
    tighten_timer_slack();
    let (wall, cpu) = (Instant::now(), clock_ns(CLOCK_THREAD_CPUTIME_ID));
    let mut late = Vec::with_capacity(n as usize);
    for k in 0..n {
        let due = schedule.due(k);
        wait_until(due);
        let sent = Instant::now();
        // Counted before the send so the receiver never sees a reply
        // for a request it does not know was issued.
        issued.fetch_add(1, Ordering::SeqCst);
        if !issue(k) {
            issued.fetch_sub(1, Ordering::SeqCst);
            break;
        }
        late.push(sent.saturating_duration_since(due).as_nanos() as u64);
    }
    done.store(true, Ordering::SeqCst);
    Sent {
        late_ns: late,
        cpu: Duration::from_nanos(clock_ns(CLOCK_THREAD_CPUTIME_ID) - cpu),
        wall: wall.elapsed(),
    }
}

/// Opens `conns` connections and registers client ids
/// `first_id..first_id + conns`.
fn connect_all(path: &Path, first_id: u32, conns: usize) -> Result<Vec<UnixStream>, String> {
    let mut streams = Vec::with_capacity(conns);
    for c in 0..conns {
        let id = first_id + c as u32;
        let stream = UnixStream::connect(path).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| format!("read timeout: {e}"))?;
        wire::write_frame(&mut &stream, OP_HELLO, &id.to_le_bytes())
            .map_err(|e| format!("hello: {e}"))?;
        let (op, _) = wire::read_frame(&mut &stream).map_err(|e| format!("hello reply: {e}"))?;
        if op != OP_HELLO_OK {
            return Err(format!("client {id} refused with opcode 0x{op:02x}"));
        }
        streams.push(stream);
    }
    Ok(streams)
}

fn close_all(streams: &[UnixStream]) {
    for stream in streams {
        let _ = wire::write_frame(&mut &*stream, OP_CLOSE, &[]);
    }
}

fn classify(op: u8, payload_len: usize) -> Outcome {
    match op {
        OP_OK => Outcome::Granted(payload_len),
        OP_BUSY => Outcome::Refused(BackpressureClass::Busy),
        OP_RATE_LIMITED => Outcome::Refused(BackpressureClass::RateLimited),
        OP_SHEDDING => Outcome::Refused(BackpressureClass::Shedding),
        _ => Outcome::Error,
    }
}

/// Drives one phase against the socket frontend at `path`, registering
/// client ids `first_id..first_id + conns`.
pub fn run_socket(path: &Path, first_id: u32, load: &OpenLoop) -> Result<Tally, String> {
    let streams = connect_all(path, first_id, load.conns)?;
    let schedule = Schedule {
        start: Instant::now() + Duration::from_millis(2),
        rate: load.rate,
    };
    let issued = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let nbytes = load.nbytes;
    let mut tally = Tally::default();
    let sent = thread::scope(|scope| {
        let sender = scope.spawn(|| {
            send_all(&schedule, load.requests(), &issued, &done, |k| {
                let stream = &streams[(k % load.conns as u64) as usize];
                wire::write_frame(&mut &*stream, OP_REQ, &nbytes.to_le_bytes()).is_ok()
            })
        });
        receive_socket(
            &streams,
            &schedule,
            &issued,
            &done,
            nbytes as usize,
            &mut tally,
        );
        tally.elapsed = schedule.start.elapsed();
        sender.join().expect("sender thread panicked")
    });
    close_all(&streams);
    tally.issued = issued.load(Ordering::SeqCst);
    tally.absorb_sent(sent);
    Ok(tally)
}

fn receive_socket(
    streams: &[UnixStream],
    schedule: &Schedule,
    issued: &AtomicU64,
    done: &AtomicBool,
    nbytes: usize,
    tally: &mut Tally,
) {
    let conns = streams.len() as u64;
    let mut decoders: Vec<FrameDecoder> = streams.iter().map(|_| FrameDecoder::new()).collect();
    let mut replies = vec![0u64; streams.len()];
    let mut alive = vec![true; streams.len()];
    let mut completed = 0u64;
    let mut buf = vec![0u8; 64 * 1024];
    let mut drain_deadline = None;
    loop {
        let finished = done.load(Ordering::SeqCst);
        let outstanding = issued.load(Ordering::SeqCst) - completed;
        tally.max_outstanding = tally.max_outstanding.max(outstanding);
        if finished && outstanding == 0 {
            break;
        }
        if finished {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() >= deadline || !alive.iter().any(|&a| a) {
                tally.lost += outstanding;
                break;
            }
        }
        let live: Vec<usize> = (0..streams.len()).filter(|&c| alive[c]).collect();
        let mut fds: Vec<PollFd> = live
            .iter()
            .map(|&c| PollFd::new(streams[c].as_raw_fd(), POLLIN))
            .collect();
        if poll_fds(&mut fds, 20).is_err() {
            tally.errors += 1;
            continue;
        }
        for (fd, &c) in fds.iter().zip(&live) {
            if !(fd.readable() || fd.failed()) {
                continue;
            }
            // Readable: this read returns what is buffered, it does not
            // wait for more.
            let n = match (&streams[c]).read(&mut buf) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("connection {c}: read failed: {e}");
                    0
                }
            };
            if n == 0 {
                eprintln!("connection {c} closed");
                alive[c] = false;
                tally.dead_conns += 1;
                continue;
            }
            decoders[c].feed(&buf[..n]);
            while let Ok(Some((op, payload))) = decoders[c].next_frame() {
                // Replies on one connection come back in request order.
                let k = replies[c] * conns + c as u64;
                replies[c] += 1;
                completed += 1;
                tally.record(schedule, k, classify(op, payload.len()), nbytes);
            }
        }
    }
}

/// Drives one phase against the scheduler in-process, through
/// `EntropyClient::request_queued` and a completion queue — the same
/// request path the socket frontend uses, without the socket.
pub fn run_inproc(connector: &Connector, first_id: u32, load: &OpenLoop) -> Result<Tally, String> {
    let clients: Vec<EntropyClient> = (0..load.conns)
        .map(|c| connector.connect(first_id + c as u32))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let (wake_tx, wake_rx) = UnixStream::pair().map_err(|e| format!("wake pair: {e}"))?;
    wake_tx
        .set_nonblocking(true)
        .and_then(|()| wake_rx.set_nonblocking(true))
        .map_err(|e| format!("wake nonblocking: {e}"))?;
    let queue = Arc::new(CompletionQueue::new(wake_tx));
    let schedule = Schedule {
        start: Instant::now() + Duration::from_millis(2),
        rate: load.rate,
    };
    let issued = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let nbytes = load.nbytes as usize;
    let mut tally = Tally::default();
    let sent = thread::scope(|scope| {
        let sender = scope.spawn(|| {
            send_all(&schedule, load.requests(), &issued, &done, |k| {
                clients[(k % load.conns as u64) as usize]
                    .request_queued(nbytes, &queue, k)
                    .is_ok()
            })
        });
        let mut completed = 0u64;
        let mut drain_deadline = None;
        let mut scratch = [0u8; 4096];
        loop {
            let finished = done.load(Ordering::SeqCst);
            let outstanding = issued.load(Ordering::SeqCst) - completed;
            tally.max_outstanding = tally.max_outstanding.max(outstanding);
            if finished && outstanding == 0 {
                break;
            }
            if finished {
                let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
                if Instant::now() >= deadline {
                    tally.lost += outstanding;
                    break;
                }
            }
            let mut fds = [PollFd::new(wake_rx.as_raw_fd(), POLLIN)];
            if poll_fds(&mut fds, 20).is_err() {
                tally.errors += 1;
                continue;
            }
            while matches!((&wake_rx).read(&mut scratch), Ok(n) if n > 0) {}
            for completion in queue.drain() {
                completed += 1;
                let outcome = match completion.result {
                    Ok(bytes) => Outcome::Granted(bytes.len()),
                    Err(e) => e.backpressure().map_or(Outcome::Error, Outcome::Refused),
                };
                tally.record(&schedule, completion.token, outcome, nbytes);
            }
        }
        tally.elapsed = schedule.start.elapsed();
        sender.join().expect("sender thread panicked")
    });
    tally.issued = issued.load(Ordering::SeqCst);
    tally.absorb_sent(sent);
    Ok(tally)
}
