//! The experiment server: cache → run in process.
//!
//! Each connection gets its own handler thread, which reads one request
//! and writes one reply. A submission whose key is cached is answered
//! at once. A fresh key is marked in flight and run right there, on the
//! handler thread, through [`exp::run_measured`] — the same measured run
//! a direct `experiments` invocation makes, so the report bytes and the
//! row's simulated cycles are the same. A duplicate that arrives while
//! the key is in flight coalesces: it waits for the running job instead
//! of starting another.
//!
//! Jobs share the process but not state: a run's modes travel in its
//! `Suite`, and its simulated cycles go to the run's own tally
//! (`capstan_sim::stats::count_simulated_cycles`). A job that panics is
//! caught; the submitter and every coalesced waiter get
//! [`ProtoError::WorkerFailed`], the in-flight mark is cleared so a
//! resubmission runs again, and the server keeps serving.
//!
//! Completed outcomes land in the content-addressed [`ResultCache`];
//! every waiter on the job's key (the submitter plus any coalesced
//! duplicates) receives the same `Arc`'d outcome.

use crate::cache::{JobOutcome, ResultCache};
use crate::key::RunSpec;
use crate::proto::{self, FrameReader, ProtoError, Request, MAGIC};
use capstan_bench::experiments as exp;
use capstan_bench::gate::BenchEntry;
use capstan_core::config::PlanMode;
use capstan_plan::PlannedConfig;
use capstan_tensor::stats::TensorStats;
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning and test knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-connection socket read timeout (a stalled client gets
    /// [`ProtoError::Timeout`], never a hung handler thread).
    pub read_timeout: Duration,
    /// Request-frame length cap.
    pub max_frame: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_secs(10),
            max_frame: proto::MAX_FRAME,
        }
    }
}

impl ServerConfig {
    /// The production defaults, as [`ServerConfig::default`]. Both
    /// arguments are ignored: jobs run in the server process, so there
    /// is no worker binary and no scratch directory. Kept because the
    /// `perfbench` benchmark still calls it; once that moves to
    /// [`ServerConfig::default`], this can go.
    pub fn new(_worker_exe: PathBuf, _work_dir: PathBuf) -> ServerConfig {
        ServerConfig::default()
    }
}

/// Request counters reported by `STATS` (cache hits and misses live in
/// [`ResultCache`]).
#[derive(Debug, Default)]
struct Counters {
    submits: u64,
    coalesced: u64,
    errors: u64,
    plans_computed: u64,
    plan_cache_hits: u64,
}

type Delivery = Result<Arc<JobOutcome>, ProtoError>;

/// What a miss runs in unit tests (production always runs [`run_job`]).
#[cfg(test)]
type Runner = Box<dyn Fn(&RunSpec) -> Result<JobOutcome, ProtoError> + Send + Sync>;

/// Mutable server state behind the one lock.
#[derive(Default)]
struct State {
    cache: ResultCache,
    /// Keys being run, each with the coalesced waiters to deliver to.
    inflight: HashMap<u64, Vec<mpsc::Sender<Delivery>>>,
    counters: Counters,
    /// Memoized planner decisions keyed by the raw stats blob: the
    /// planner is a pure function of the statistics, so a dataset
    /// resubmitted with identical stats reuses its plan (and, because
    /// the blob never joins the cache key, its cached result too).
    plan_cache: HashMap<String, PlannedConfig>,
}

/// Everything the accept loop and the handler threads share.
struct Shared {
    config: ServerConfig,
    state: Mutex<State>,
    stop: AtomicBool,
    #[cfg(test)]
    runner: Runner,
}

impl Shared {
    fn new(config: ServerConfig) -> Shared {
        Shared {
            config,
            state: Mutex::new(State::default()),
            stop: AtomicBool::new(false),
            #[cfg(test)]
            runner: Box::new(run_job),
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A running server (see [`Server::spawn`]): the bound address plus the
/// accept-loop thread.
pub struct ServerHandle {
    /// The actually bound address (resolves port `0` to the kernel's
    /// pick).
    pub addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// Waits for the server to exit (after a `SHUTDOWN` request).
    pub fn join(self) -> std::io::Result<()> {
        self.thread
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("server thread panicked")))
    }
}

impl Server {
    /// Binds `addr`, which may use port `0` to let the kernel pick
    /// (tests); query [`Server::local_addr`] for the result.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            shared: Arc::new(Shared::new(config)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the current thread until a `SHUTDOWN`
    /// request arrives, then waits for the handler threads (and the
    /// jobs they run) and returns.
    pub fn run(self) -> std::io::Result<()> {
        // Non-blocking accept so the loop can observe the stop flag; a
        // 5 ms poll is far below human-visible latency and costs
        // nothing next to a simulation.
        self.listener.set_nonblocking(true)?;
        let shared = self.shared;
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !shared.stop.load(Ordering::SeqCst) {
            // Join finished handlers as we go: an unjoined thread keeps
            // its stack mapped, so a long-lived server would grow by one
            // stack per connection.
            let (done, running) = handlers.into_iter().partition(|h| h.is_finished());
            handlers = running;
            for h in done {
                let _ = h.join();
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&shared);
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(&shared, stream)
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }

    /// Spawns [`Server::run`] on a new thread and returns the handle
    /// (test harness convenience).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle { addr, thread })
    }
}

/// Serves one connection: one request frame, one reply, close. Every
/// failure becomes a best-effort `ERR` line — never a panic, never a
/// hung thread (the read timeout bounds stalled peers).
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = FrameReader::new(reader_stream);
    let request = reader
        .read_line(shared.config.max_frame)
        .and_then(|line| proto::parse_request(&line));
    let request_failed = request.is_err();
    let reply: Vec<u8> = match request {
        Err(e) => e.to_wire().into_bytes(),
        Ok(Request::Ping) => format!("{MAGIC} OK pong\n").into_bytes(),
        Ok(Request::Stats) => stats_line(shared).into_bytes(),
        Ok(Request::Shutdown) => {
            shared.stop.store(true, Ordering::SeqCst);
            format!("{MAGIC} OK bye\n").into_bytes()
        }
        Ok(Request::Submit(spec)) => match submit(shared, spec) {
            Ok((cache_tag, key, outcome)) => {
                proto::format_submit_reply(cache_tag, key, &outcome.row, &outcome.report)
            }
            Err(e) => e.to_wire().into_bytes(),
        },
    };
    let mut stream = stream;
    let _ = stream.write_all(&reply);
    let _ = stream.flush();
    if request_failed {
        drain_bounded(&mut stream);
    }
}

/// Best-effort bounded drain of unread request bytes after an error
/// reply: closing a socket with unread data in its receive buffer
/// resets the connection, which can destroy the just-written `ERR`
/// line before the peer reads it (e.g. after an oversized flood). The
/// drain is bounded in both bytes and time (the socket's read timeout),
/// so a hostile peer cannot pin the handler.
fn drain_bounded(stream: &mut TcpStream) {
    use std::io::Read;
    let mut sink = [0u8; 1024];
    let mut budget = 64 * 1024;
    while budget > 0 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget -= n.min(budget),
        }
    }
}

/// The `STATS` reply line, straight from the counters.
fn stats_line(shared: &Shared) -> String {
    let st = shared.state.lock().expect("state lock");
    let c = &st.counters;
    format!(
        "{MAGIC} STATS submits={} cache_hits={} coalesced={} misses={} errors={} \
         plans_computed={} plan_cache_hits={}\n",
        c.submits,
        st.cache.hits(),
        c.coalesced,
        st.cache.misses(),
        c.errors,
        c.plans_computed,
        c.plan_cache_hits
    )
}

/// Routes one submission: cache hit → answer immediately; duplicate of
/// an in-flight job → wait for it; otherwise run the job on this
/// thread and deliver its outcome to every waiter.
fn submit(
    shared: &Shared,
    mut spec: RunSpec,
) -> Result<(&'static str, u64, Arc<JobOutcome>), ProtoError> {
    // An `Auto` submission arrives with dataset statistics instead of a
    // memory configuration; materialize the planner's choice into the
    // spec *before* keying, so equal-planning data content-addresses
    // the same result. Plans are memoized by the raw stats blob.
    if spec.plan == PlanMode::Auto {
        let blob = spec
            .stats
            .clone()
            .ok_or_else(|| ProtoError::BadRequest("plan=auto needs a stats= field".to_string()))?;
        let stats = TensorStats::parse(&blob).ok_or_else(|| {
            ProtoError::BadRequest("stats blob is not a valid encoded TensorStats".to_string())
        })?;
        let planned = {
            let mut st = shared.state.lock().expect("state lock");
            match st.plan_cache.get(&blob).copied() {
                Some(p) => {
                    st.counters.plan_cache_hits += 1;
                    p
                }
                None => {
                    let p = capstan_plan::plan_request(&stats);
                    st.counters.plans_computed += 1;
                    st.plan_cache.insert(blob, p);
                    p
                }
            }
        };
        spec.mem = planned.mem;
        spec.addresses = planned.addresses;
        spec.channels = planned.channels;
    }
    // The protocol layer validated the scale spec, so keying cannot
    // fail on a wire request; belt-and-suspenders for direct callers.
    let key = spec.cache_key().map_err(ProtoError::BadRequest)?;
    if shared.stop.load(Ordering::SeqCst) {
        return Err(ProtoError::Internal("server is shutting down".to_string()));
    }
    let joined = {
        let mut st = shared.state.lock().expect("state lock");
        st.counters.submits += 1;
        if let Some(outcome) = st.cache.lookup(key) {
            return Ok(("hit", key, outcome));
        }
        if let Some(waiters) = st.inflight.get_mut(&key) {
            let (tx, rx) = mpsc::channel();
            waiters.push(tx);
            st.counters.coalesced += 1;
            Some(rx)
        } else {
            st.cache.record_miss();
            st.inflight.insert(key, Vec::new());
            None
        }
    };
    if let Some(rx) = joined {
        // The running submitter always delivers (a panicking job is
        // caught), so a closed channel means a broken invariant.
        return match rx.recv() {
            Ok(delivery) => delivery.map(|outcome| ("join", key, outcome)),
            Err(_) => Err(ProtoError::Internal(
                "the job ended without delivering".to_string(),
            )),
        };
    }

    #[cfg(not(test))]
    let runner = run_job;
    #[cfg(test)]
    let runner = &shared.runner;
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner(&spec)));
    let delivery: Delivery = match run {
        Ok(outcome) => outcome.map(Arc::new),
        Err(payload) => Err(ProtoError::WorkerFailed(panic_detail(payload.as_ref()))),
    };
    let waiters = {
        let mut st = shared.state.lock().expect("state lock");
        match &delivery {
            Ok(outcome) => st.cache.insert(key, Arc::clone(outcome)),
            Err(_) => st.counters.errors += 1,
        }
        st.inflight.remove(&key).unwrap_or_default()
    };
    for w in waiters {
        let _ = w.send(delivery.clone());
    }
    delivery.map(|outcome| ("miss", key, outcome))
}

/// Runs one job in this process: the measured run a direct invocation
/// makes, with the row named for the spec's record group.
fn run_job(spec: &RunSpec) -> Result<JobOutcome, ProtoError> {
    let suite = spec.suite().map_err(ProtoError::BadRequest)?;
    let run = exp::run_measured(&spec.experiment, &suite)
        .ok_or_else(|| ProtoError::UnknownExperiment(spec.experiment.clone()))?;
    Ok(JobOutcome {
        row: BenchEntry::new(spec.row_name(), run.wall_seconds, run.simulated_cycles),
        report: run.report,
    })
}

/// A one-line `worker-failed` detail from a caught panic's payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a non-text panic payload".to_string());
    format!("job panicked: {}", msg.replace(['\n', '\r'], " "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn spec() -> RunSpec {
        let mut spec = RunSpec::new("table5");
        spec.scale = "small".to_string();
        spec
    }

    /// Polls until `ready` holds on the server state.
    fn wait_for(shared: &Shared, ready: impl Fn(&State) -> bool) {
        while !ready(&shared.state.lock().expect("state lock")) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_panicking_job_fails_every_waiter_and_a_resubmit_runs_again() {
        let runs = Arc::new(AtomicUsize::new(0));
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let go_rx = Mutex::new(go_rx);
        let mut shared = Shared::new(ServerConfig::default());
        let counted = Arc::clone(&runs);
        shared.runner = Box::new(move |spec: &RunSpec| {
            if counted.fetch_add(1, Ordering::SeqCst) == 0 {
                // Hold the first run until a duplicate has coalesced.
                go_rx.lock().unwrap().recv().unwrap();
                panic!("injected job panic\nsecond line");
            }
            Ok(JobOutcome {
                row: BenchEntry::new(spec.row_name(), 0.0, 7),
                report: "ok\n".to_string(),
            })
        });
        let shared = Arc::new(shared);
        let key = spec().cache_key().unwrap();

        let (first, joined) = std::thread::scope(|scope| {
            let first = scope.spawn(|| submit(&shared, spec()));
            wait_for(&shared, |st| st.inflight.contains_key(&key));
            let joined = scope.spawn(|| submit(&shared, spec()));
            wait_for(&shared, |st| st.inflight[&key].len() == 1);
            go_tx.send(()).unwrap();
            (first.join().unwrap(), joined.join().unwrap())
        });
        for (who, result) in [("submitter", first), ("coalesced waiter", joined)] {
            match result {
                Err(ProtoError::WorkerFailed(detail)) => {
                    assert_eq!(
                        detail, "job panicked: injected job panic second line",
                        "{who}"
                    );
                }
                other => panic!("{who}: expected worker-failed, got {other:?}"),
            }
        }

        // The mark is cleared: a resubmission runs the job again.
        let (tag, _, outcome) = submit(&shared, spec()).expect("resubmit");
        assert_eq!((tag, outcome.report.as_str()), ("miss", "ok\n"));
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        let st = shared.state.lock().unwrap();
        assert!(st.inflight.is_empty());
        assert_eq!(
            (
                st.counters.submits,
                st.counters.coalesced,
                st.cache.misses()
            ),
            (3, 1, 2)
        );
        assert_eq!(st.counters.errors, 1);
    }
}
