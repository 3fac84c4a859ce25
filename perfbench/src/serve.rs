//! The served side of a workload: one fresh in-process `Server` with
//! production defaults and the `experiments` binary as its worker, and
//! two closed-loop clients following a schedule generated from the seed.

use crate::util::{ratio, Rng};
use crate::Outcome;
use capstan_core::config::{MemAddressing, MemTiming, PlanMode};
use capstan_serve::client;
use capstan_serve::key::RunSpec;
use capstan_serve::proto::SubmitReply;
use capstan_serve::server::{Server, ServerConfig, ServerHandle};
use capstan_tensor::gen;
use capstan_tensor::stats::TensorStats;
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// The experiments fresh keys cycle through. Two in three run in about
/// a millisecond, so the service path dominates the median miss; the
/// four that simulate set the tail.
const EXPERIMENTS: [&str; 12] = [
    "table5",
    "table7",
    "table8",
    "table5",
    "table7",
    "table8",
    "table5",
    "table7",
    "fig4",
    "table13-atomics",
    "table13-channels",
    "table-multitenant",
];

/// Suite scales a key can carry: `small` and custom specs that nudge
/// the graph factor, so one experiment has many distinct keys.
fn scales() -> Vec<String> {
    let mut out = vec!["small".to_string()];
    for k in 1..24 {
        out.push(format!(
            "la=0.04,graph={:.4},spmspm=0.5,conv=0.1",
            0.015 + 0.0001 * k as f64
        ));
    }
    out
}

/// Closed-loop clients: at most `nproc` (2 here) connections at a time.
const CLIENTS: usize = 2;
/// Phases of cache hits per round.
const HIT_PHASES: usize = 40;
/// The loop runs until it has at least this many misses and hits, so
/// `miss_ms.p90` and `hit_ms.p90` each have more than ten samples
/// beyond them.
const MIN_MISSES: usize = 110;
const MIN_HITS: usize = 1000;
/// Hard stop on loop time, well inside the benchmark's time limit.
const MAX_LOOP_S: f64 = 100.0;
/// Stats matrices per run; `plan=auto` submissions draw from them with
/// replacement, so some carry identical stats.
const MATRICES: usize = 6;

/// Set-up of the served side: the stats blobs and a bound server.
pub struct Setup {
    blobs: Vec<String>,
    server: Server,
    work_dir: PathBuf,
    pub gen_s: f64,
    pub stats_s: f64,
    pub nnz: u64,
}

/// Generates the seeded stats matrices, encodes their `TensorStats`, and
/// binds a fresh server on a kernel-picked local port. One matrix per
/// run crosses the planner's multi-channel threshold.
pub fn setup(seed: u64, worker: &Path, work_dir: &Path) -> std::io::Result<Setup> {
    let mut rng = Rng::new(seed ^ 0x0005_7A75);
    let (mut gen_s, mut stats_s, mut nnz) = (0.0, 0.0, 0u64);
    let mut blobs = Vec::with_capacity(MATRICES);
    for i in 0..MATRICES {
        let mseed = rng.next_u64();
        let n = 2000 + rng.below(4000);
        let per_row = 4 + rng.below(9);
        let t = Instant::now();
        let m = match (i, rng.below(4)) {
            (0, _) => gen::uniform(4000, 4000, 1_000_000 + rng.below(200_000), mseed),
            (_, 0) => gen::uniform(n, n, n * per_row, mseed),
            (_, 1) => gen::circuit(n, n * per_row, mseed),
            (_, 2) => gen::banded(n, n * per_row, mseed),
            _ => gen::power_law(n, n * per_row, 2.2, mseed),
        };
        gen_s += t.elapsed().as_secs_f64();
        nnz += m.nnz() as u64;
        let t = Instant::now();
        blobs.push(TensorStats::compute(&m).encode());
        stats_s += t.elapsed().as_secs_f64();
    }
    std::fs::create_dir_all(work_dir)?;
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig::new(worker.to_path_buf(), work_dir.to_path_buf()),
    )?;
    Ok(Setup {
        blobs,
        server,
        work_dir: work_dir.to_path_buf(),
        gen_s,
        stats_s,
        nnz,
    })
}

fn fixed_spec(
    experiment: &str,
    scale: &str,
    variant: (MemTiming, MemAddressing, usize, usize),
) -> RunSpec {
    let mut spec = RunSpec::new(experiment);
    spec.scale = scale.to_string();
    (spec.mem, spec.addresses, spec.channels, spec.tenants) = variant;
    spec
}

/// A spec the in-process default config reproduces, so its served
/// report can be compared with a direct `run_by_name`.
fn is_default_analytic(spec: &RunSpec) -> bool {
    spec.plan == PlanMode::Fixed
        && spec.mem == MemTiming::Analytic
        && spec.addresses == MemAddressing::Synthetic
        && spec.channels == 1
        && spec.tenants == 1
}

/// The seeded schedule. Fresh keys follow [`EXPERIMENTS`] in order, and
/// every third fresh key of an experiment is the analytic default
/// (whose served report is checked in process), so the cost mix of the
/// misses is the same for every seed; the seed picks the scales, the
/// memory variants, the stats blobs and the order of phases.
struct Schedule {
    rng: Rng,
    /// Per experiment: unused analytic-default keys and unused keys of
    /// the other memory variants, taken from the back.
    pools: BTreeMap<&'static str, (Vec<RunSpec>, Vec<RunSpec>)>,
    fresh_issued: usize,
    autos_issued: usize,
    scales: Vec<String>,
    blobs: Vec<String>,
    issued: Vec<RunSpec>,
}

/// One round of lockstep phases. In each phase every client sends at
/// most one request, and the next phase starts when both are answered,
/// so which requests overlap is fixed by the schedule, not by timing.
/// Each request follows a seeded think time, so arrivals do not lock to
/// the phase of any periodic wait inside the server.
#[derive(Clone)]
struct Round {
    phases: Vec<[Option<(RunSpec, Duration)>; CLIENTS]>,
}

/// Think times are uniform in `0..MAX_THINK_US` microseconds.
const MAX_THINK_US: usize = 5000;

impl Schedule {
    fn new(seed: u64, blobs: Vec<String>) -> Schedule {
        let mut rng = Rng::new(seed ^ 0x5E4E_0001);
        let scales = scales();
        // Timing modes alternate, so any run of consecutive variants
        // mixes analytic and cycle-level misses evenly.
        let mut variants = Vec::new();
        for addresses in [MemAddressing::Synthetic, MemAddressing::Recorded] {
            for channels in [1, 2, 4] {
                for tenants in [1, 2] {
                    for mem in [MemTiming::Analytic, MemTiming::CycleLevel] {
                        variants.push((mem, addresses, channels, tenants));
                    }
                }
            }
        }
        let mut pools = BTreeMap::new();
        for experiment in EXPERIMENTS {
            if pools.contains_key(experiment) {
                continue;
            }
            let mut order = scales.clone();
            rng.shuffle(&mut order);
            let turn = rng.below(variants.len());
            variants.rotate_left(turn);
            let (mut analytic, mut other) = (Vec::new(), Vec::new());
            for scale in order.iter().rev() {
                for &variant in variants.iter().rev() {
                    let spec = fixed_spec(experiment, scale, variant);
                    if is_default_analytic(&spec) {
                        analytic.push(spec);
                    } else {
                        other.push(spec);
                    }
                }
            }
            pools.insert(experiment, (analytic, other));
        }
        Schedule {
            rng,
            pools,
            fresh_issued: 0,
            autos_issued: 0,
            scales,
            blobs,
            issued: Vec::new(),
        }
    }

    fn fresh(&mut self) -> Option<RunSpec> {
        let experiment = EXPERIMENTS[self.fresh_issued % EXPERIMENTS.len()];
        let nth = self.fresh_issued / EXPERIMENTS.len();
        self.fresh_issued += 1;
        let (analytic, other) = self.pools.get_mut(experiment)?;
        let spec = if nth.is_multiple_of(3) {
            analytic.pop()
        } else {
            None
        };
        let spec = spec.or_else(|| other.pop())?;
        self.issued.push(spec.clone());
        Some(spec)
    }

    fn auto(&mut self) -> RunSpec {
        let mut spec = RunSpec::new(EXPERIMENTS[self.autos_issued % EXPERIMENTS.len()]);
        self.autos_issued += 1;
        spec.scale = self.scales[self.rng.below(self.scales.len())].clone();
        spec.tenants = 1 + self.rng.below(2);
        spec.plan = PlanMode::Auto;
        spec.stats = Some(self.blobs[self.rng.below(self.blobs.len())].clone());
        spec
    }

    /// The next round, or `None` once the fresh keys run out: a key both
    /// clients send at once (coalesced), a fresh key from each client
    /// alone, a fresh key from both (batched), `plan=auto` from both,
    /// and cache hits from both.
    fn next_round(&mut self) -> Option<Round> {
        // Only keys of finished rounds are repeated, so a repeat is a
        // cache hit rather than a join onto an in-flight job.
        let earlier = self.issued.len();
        let together = self.fresh()?;
        let mut phases = vec![
            [Some(together.clone()), Some(together)],
            [Some(self.fresh()?), None],
            [None, Some(self.fresh()?)],
            [Some(self.fresh()?), Some(self.fresh()?)],
            [Some(self.auto()), Some(self.auto())],
        ];
        if earlier > 0 {
            for _ in 0..HIT_PHASES {
                phases.push(std::array::from_fn(|_| {
                    Some(self.issued[self.rng.below(earlier)].clone())
                }));
            }
        }
        self.rng.shuffle(&mut phases);
        let phases = phases
            .into_iter()
            .map(|phase| {
                phase.map(|spec| {
                    let think = Duration::from_micros(self.rng.below(MAX_THINK_US) as u64);
                    spec.map(|spec| (spec, think))
                })
            })
            .collect();
        Some(Round { phases })
    }
}

/// One completed submission.
struct Sample {
    spec: RunSpec,
    cache: String,
    ms: f64,
}

/// What the closed loop measured.
pub struct Served {
    pub miss_ms: Vec<f64>,
    pub hit_ms: Vec<f64>,
    pub served_per_s: f64,
    pub direct_ms: Vec<f64>,
    pub overhead_ms: Vec<f64>,
    pub plan_request_s: f64,
    pub stats: HashMap<String, u64>,
}

struct LoopState {
    schedule: Schedule,
    round: Option<Round>,
    samples: Vec<Sample>,
    first: HashMap<u64, SubmitReply>,
    attempted: u64,
    failed: Vec<String>,
}

/// A closed loop on a spawned server, run in segments (see
/// [`Loop::run_segment`]) so that its samples can be spread over a run.
pub struct Loop {
    handle: ServerHandle,
    addr: String,
    state: Mutex<LoopState>,
    /// Host seconds spent inside segments.
    loop_s: f64,
    work_dir: PathBuf,
    plan_request_s: f64,
}

/// Spawns the server set up by [`setup`]. `None`, after printing why,
/// when it does not start.
pub fn start(setup: Setup, seed: u64, out: &mut Outcome) -> Option<Loop> {
    let Setup {
        blobs,
        server,
        work_dir,
        ..
    } = setup;
    let plan_request_s = time_plans(&blobs);
    let handle = match server.spawn() {
        Ok(h) => h,
        Err(e) => {
            out.fail(format!("cannot start the server: {e}"));
            return None;
        }
    };
    Some(Loop {
        addr: handle.addr.to_string(),
        handle,
        state: Mutex::new(LoopState {
            schedule: Schedule::new(seed, blobs),
            round: None,
            samples: Vec::new(),
            first: HashMap::new(),
            attempted: 0,
            failed: Vec::new(),
        }),
        loop_s: 0.0,
        work_dir,
        plan_request_s,
    })
}

impl Loop {
    /// Runs whole rounds until the loop as a whole has met the share
    /// `part` of its targets: `part x min_seconds` of loop time and
    /// `part` of the sample minimums. The last segment takes `part = 1`.
    pub fn run_segment(&mut self, part: f64, min_seconds: f64) {
        let target = Target {
            seconds: part * min_seconds,
            misses: (part * MIN_MISSES as f64).ceil() as usize,
            hits: (part * MIN_HITS as f64).ceil() as usize,
            loop_s: self.loop_s,
        };
        let barrier = Barrier::new(CLIENTS);
        let start = Instant::now();
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let (state, barrier, addr, target) =
                    (&self.state, &barrier, self.addr.as_str(), &target);
                s.spawn(move || client_loop(c, addr, state, barrier, start, target));
            }
        });
        self.loop_s += start.elapsed().as_secs_f64();
    }

    /// Checks the outputs, reads `STATS`, and shuts the server down.
    pub fn finish(self, out: &mut Outcome) -> Served {
        let st = self
            .state
            .into_inner()
            .expect("no client panicked holding the state");
        out.attempted += st.attempted;
        for why in st.failed {
            out.fail(why);
        }
        let stats = match client::stats(&self.addr) {
            Ok(pairs) => pairs.into_iter().collect(),
            Err(e) => {
                out.fail(format!("STATS failed: {e}"));
                HashMap::new()
            }
        };
        if let Err(e) = client::shutdown(&self.addr) {
            out.fail(format!("SHUTDOWN failed: {e}"));
        }
        if let Err(e) = self.handle.join() {
            out.fail(format!("server exited with {e}"));
        }
        let _ = std::fs::remove_dir_all(&self.work_dir);

        let by_tag = |tag: &str| -> Vec<f64> {
            st.samples
                .iter()
                .filter(|s| s.cache == tag)
                .map(|s| s.ms)
                .collect()
        };
        let (direct_ms, overhead_ms) = check_direct(&st.samples, &st.first, out);
        Served {
            miss_ms: by_tag("miss"),
            hit_ms: by_tag("hit"),
            served_per_s: st.samples.len() as f64 / self.loop_s,
            direct_ms,
            overhead_ms,
            plan_request_s: self.plan_request_s,
            stats,
        }
    }
}

/// Where a segment stops: loop time and sample counts of the whole loop.
struct Target {
    seconds: f64,
    misses: usize,
    hits: usize,
    /// Loop time spent in earlier segments.
    loop_s: f64,
}

impl Served {
    pub fn stat(&self, name: &str) -> f64 {
        self.stats.get(name).copied().unwrap_or(0) as f64
    }

    pub fn jobs_per_batch(&self) -> f64 {
        ratio(self.stat("misses"), self.stat("batches"))
    }

    pub fn hit_ratio(&self) -> f64 {
        ratio(self.stat("cache_hits"), self.stat("submits"))
    }
}

/// Host seconds the planner spends on each distinct stats blob: the
/// `plan_request` calls a server makes for this run's blobs.
fn time_plans(blobs: &[String]) -> f64 {
    let mut distinct: Vec<&String> = blobs.iter().collect();
    distinct.sort();
    distinct.dedup();
    let t = Instant::now();
    for blob in distinct {
        let stats = TensorStats::parse(blob).expect("the benchmark encoded this blob");
        std::hint::black_box(capstan_plan::plan_request(&stats));
    }
    t.elapsed().as_secs_f64()
}

fn client_loop(
    c: usize,
    addr: &str,
    state: &Mutex<LoopState>,
    barrier: &Barrier,
    start: Instant,
    target: &Target,
) {
    loop {
        if barrier.wait().is_leader() {
            let mut st = state.lock().expect("state lock");
            let count = |tag: &str| st.samples.iter().filter(|s| s.cache == tag).count();
            let loop_s = target.loop_s + start.elapsed().as_secs_f64();
            let done = loop_s >= target.seconds
                && count("miss") >= target.misses
                && count("hit") >= target.hits;
            // A failed op already makes the run incorrect; stop early.
            st.round = if done || loop_s > MAX_LOOP_S || !st.failed.is_empty() {
                None
            } else {
                st.schedule.next_round()
            };
        }
        barrier.wait();
        let Some(round) = state.lock().expect("state lock").round.clone() else {
            return;
        };
        for phase in &round.phases {
            if let Some((spec, think)) = &phase[c] {
                std::thread::sleep(*think);
                submit(addr, spec, state);
            }
            barrier.wait();
        }
    }
}

/// Sends one SUBMIT and records it. Every reply for a key must carry the
/// exact row and report bytes of the first reply for that key.
fn submit(addr: &str, spec: &RunSpec, state: &Mutex<LoopState>) {
    let t = Instant::now();
    let reply = client::submit(addr, spec, Some(Duration::from_secs(120)));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let mut st = state.lock().expect("state lock");
    st.attempted += 1;
    let reply = match reply {
        Ok(r) => r,
        Err(e) => {
            st.failed
                .push(format!("SUBMIT {} failed: {e}", spec.row_name()));
            return;
        }
    };
    match st.first.get(&reply.key) {
        Some(first) if !same_result(first, &reply) => st.failed.push(format!(
            "{} reply for {} differs from the first reply for its key",
            reply.cache, reply.row.name
        )),
        Some(_) => {}
        None => {
            st.first.insert(reply.key, reply.clone());
        }
    }
    st.samples.push(Sample {
        spec: spec.clone(),
        cache: reply.cache,
        ms,
    });
}

fn same_result(a: &SubmitReply, b: &SubmitReply) -> bool {
    a.row.name == b.row.name
        && a.row.simulated_cycles == b.row.simulated_cycles
        && a.row.wall_seconds.to_bits() == b.row.wall_seconds.to_bits()
        && a.row.cycles_per_second.to_bits() == b.row.cycles_per_second.to_bits()
        && a.report == b.report
}

/// Runs each served analytic-default miss in process with
/// `run_by_name` (which also prints its report), checks the served
/// report against it, and returns the direct times and each miss's
/// latency beyond its direct time.
fn check_direct(
    samples: &[Sample],
    first: &HashMap<u64, SubmitReply>,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<f64>) {
    let mut direct = Vec::new();
    let mut overhead = Vec::new();
    for sample in samples
        .iter()
        .filter(|s| s.cache == "miss" && is_default_analytic(&s.spec))
    {
        out.attempted += 1;
        let key = sample.spec.cache_key().expect("benchmark scales parse");
        let suite = sample.spec.suite().expect("benchmark scales parse");
        let t = Instant::now();
        let text = capstan_bench::experiments::run_by_name(&sample.spec.experiment, &suite);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match (text, first.get(&key)) {
            (Some(text), Some(reply)) if text == reply.report => {
                direct.push(ms);
                overhead.push(sample.ms - ms);
            }
            _ => out.fail(format!(
                "served report for {} ({}) differs from the in-process run",
                sample.spec.row_name(),
                sample.spec.scale
            )),
        }
    }
    (direct, overhead)
}
