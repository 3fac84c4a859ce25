//! The repo benchmark. One process runs one workload:
//!
//! ```text
//! capstan-perfbench --workload paper-sweep|mem-drain|serve-mix --seed N
//!     --seconds S --trace 0|1 --worker PATH/TO/experiments --work-dir DIR
//! ```
//!
//! Every workload has an engine side (record each dataset once, then
//! simulate every dataset x config pair) and a served side (a fresh
//! in-process server and two closed-loop clients). `--trace 0` times
//! both untraced and prints the end-to-end metrics; `--trace 1` adds a
//! traced engine pass that replays each layer's inputs through its
//! public entry point, and prints the per-layer metrics. The last line
//! of standard output is the JSON result; `perfbench/README.md` maps
//! every metric to its layer.

mod engine;
mod serve;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use util::{median, percentile, ratio};

/// Set-up repeats per group; an untraced run sets up in three groups,
/// and `setup_s` is the median of all of them.
const SETUP_REPS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: PathBuf,
    work_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut map = std::collections::HashMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            map.insert(name.to_string(), value);
        }
        let mut take = |name: &str| map.remove(name).ok_or_else(|| format!("missing --{name}"));
        let args = Args {
            workload: take("workload")?,
            seed: take("seed")?
                .parse()
                .map_err(|_| "--seed takes an integer")?,
            seconds: take("seconds")?
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s >= 0.0)
                .ok_or("--seconds takes a non-negative number")?,
            trace: match take("trace")?.as_str() {
                "0" => false,
                "1" => true,
                _ => return Err("--trace takes 0 or 1".to_string()),
            },
            worker: take("worker")?.into(),
            work_dir: take("work-dir")?.into(),
        };
        match map.keys().next() {
            Some(extra) => Err(format!("unknown flag --{extra}")),
            None => Ok(args),
        }
    }
}

/// Ops attempted and failed, and the metrics to print.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Counts one failed op: a panic, an `ERR` reply or transport error,
    /// or an output that differs from what it must be.
    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: FAILED: {why}");
        self.failed += 1;
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn print(&self) {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The inputs come from the command line alone: drop every
    // `CAPSTAN_*` knob (thread count, drain mode, fault injection) before
    // anything reads it, so neither this process nor the server's
    // workers inherit one.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CAPSTAN_") {
            std::env::remove_var(key);
        }
    }
    let set = match args.workload.as_str() {
        "paper-sweep" | "serve-mix" => engine::paper_sweep(args.seed),
        "mem-drain" => engine::mem_drain(args.seed),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let serve_mix = args.workload == "serve-mix";
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = Outcome::default();

    // An untraced run interleaves its measurements, so that each metric
    // samples the host's load across the whole run rather than one
    // stretch of it:
    //
    //   set-up x2, 1-thread pass, loop 1/4, nproc pass, set-up x2,
    //   loop 2/4, 1-thread pass, loop 3/4, set-up x2, nproc pass, loop 4/4
    //
    // The server of the first set-up serves the loop; the later ones are
    // timed and dropped unspawned. Serve-mix keeps its loop going for
    // `--seconds`; elsewhere the loop stops at its sample minimums. The
    // traced run times one pass of each kind, then runs the traced pass
    // and the whole loop.
    let mut setup_s = Vec::new();
    let set_up = |setup_s: &mut Vec<f64>, dir: &str| {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            set.build_inputs();
            last = Some(serve::setup(
                args.seed,
                &args.worker,
                &args.work_dir.join(dir),
            )?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        Ok::<_, std::io::Error>(last.expect("SETUP_REPS > 0"))
    };
    let served_setup = match set_up(&mut setup_s, "serve") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot set up the server: {e}");
            return ExitCode::from(1);
        }
    };
    let (gen_s, stats_s, nnz) = (served_setup.gen_s, served_setup.stats_s, served_setup.nnz);
    let set_up_again = |setup_s: &mut Vec<f64>, out: &mut Outcome| {
        if let Err(e) = set_up(setup_s, "setup-rep") {
            out.fail(format!("cannot set up the server: {e}"));
        }
        let _ = std::fs::remove_dir_all(args.work_dir.join("setup-rep"));
    };

    let (mut sweep_s, mut sweep_t1_s, mut sim_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut t1_pass = |out: &mut Outcome| {
        let t1 = engine::run_pass(&set, 1, out);
        sweep_t1_s.push(t1.wall_s);
        sim_ms.extend(t1.sim_s.iter().map(|s| s * 1e3));
    };
    let mut par_pass = |out: &mut Outcome| {
        sweep_s.push(engine::run_pass(&set, threads, out).wall_s);
    };
    t1_pass(&mut out);
    // Read before any pass runs on several threads, whose peak depends
    // on which pairs happen to overlap.
    let peak_rss_mib = util::peak_rss_mib();
    let mut trace = engine::LayerTrace::default();
    if args.trace {
        par_pass(&mut out);
        engine::traced_pass(&set, &mut trace, &mut out);
    }
    let Some(mut served_loop) = serve::start(served_setup, args.seed, &mut out) else {
        return ExitCode::from(1);
    };
    if args.trace {
        served_loop.run_segment(1.0, 0.0);
    } else {
        let serve_seconds = if serve_mix { args.seconds } else { 0.0 };
        served_loop.run_segment(0.25, serve_seconds);
        par_pass(&mut out);
        set_up_again(&mut setup_s, &mut out);
        served_loop.run_segment(0.5, serve_seconds);
        t1_pass(&mut out);
        served_loop.run_segment(0.75, serve_seconds);
        set_up_again(&mut setup_s, &mut out);
        par_pass(&mut out);
        served_loop.run_segment(1.0, serve_seconds);
    }
    let served = served_loop.finish(&mut out);

    if args.trace {
        let m = &mut out;
        m.metric("tensor.gen_s", trace.gen_s + gen_s, "s");
        m.metric("tensor.nnz", (trace.nnz + nnz) as f64, "count");
        m.metric("tensor.stats_s", trace.stats_s + stats_s, "s");
        m.metric("record.busy_s", trace.record_s, "s");
        m.metric("record.tiles", trace.tiles as f64, "count");
        m.metric("record.sram_vectors", trace.sram_vectors as f64, "count");
        m.metric(
            "record.shuffle_vectors",
            trace.shuffle_vectors as f64,
            "count",
        );
        m.metric("record.lane_work", trace.lane_work as f64, "count");
        m.metric("perf.calls", trace.perf_calls as f64, "count");
        m.metric("perf.simulate_s", trace.simulate_s, "s");
        // One untraced 1-thread pass ran before the traced one.
        m.metric("perf.untraced_s", sim_ms.iter().sum::<f64>() / 1e3, "s");
        m.metric("perf.self_s", trace.self_s(), "s");
        m.metric("spmu.calls", trace.spmu.calls as f64, "count");
        m.metric("spmu.busy_s", trace.spmu.busy_s, "s");
        m.metric("spmu.vectors", trace.spmu_vectors as f64, "count");
        m.metric("spmu.cycles", trace.spmu_cycles as f64, "count");
        m.metric("spmu.bank_util", trace.bank_util(), "ratio");
        m.metric("spmu.repeat_share", trace.spmu.repeats.share(), "ratio");
        m.metric("shuffle.calls", trace.shuffle.calls as f64, "count");
        m.metric("shuffle.busy_s", trace.shuffle.busy_s, "s");
        m.metric(
            "shuffle.vectors",
            trace.shuffle_vectors_routed as f64,
            "count",
        );
        m.metric("shuffle.cycles", trace.shuffle_cycles as f64, "count");
        m.metric(
            "shuffle.repeat_share",
            trace.shuffle.repeats.share(),
            "ratio",
        );
        m.metric("memdrv.calls", trace.memdrv.calls as f64, "count");
        m.metric("memdrv.busy_s", trace.memdrv.busy_s, "s");
        m.metric("memdrv.drain_cycles", trace.drain_cycles as f64, "count");
        m.metric("memdrv.cycles_per_s", trace.cycles_per_s(), "1/s");
        m.metric("memdrv.row_hit_ratio", trace.row_hit_ratio(), "ratio");
        m.metric("memdrv.ag_fetches", trace.ag_fetches as f64, "count");
        m.metric("memdrv.coalesce_ratio", trace.coalesce_ratio(), "ratio");
        m.metric(
            "memdrv.contention_cycles",
            trace.contention_cycles as f64,
            "count",
        );
        m.metric("memdrv.repeat_share", trace.memdrv.repeats.share(), "ratio");
        m.metric("par.threads", threads as f64, "count");
        m.metric(
            "par.speedup",
            ratio(median(&sweep_t1_s), median(&sweep_s)),
            "x",
        );
        m.metric("plan.request_s", served.plan_request_s, "s");
        m.metric("plan.computed", served.stat("plans_computed"), "count");
        m.metric("plan.cache_hits", served.stat("plan_cache_hits"), "count");
        m.metric("serve.submits", served.stat("submits"), "count");
        m.metric("serve.hits", served.stat("cache_hits"), "count");
        m.metric("serve.misses", served.stat("misses"), "count");
        m.metric("serve.coalesced", served.stat("coalesced"), "count");
        m.metric("serve.batches", served.stat("batches"), "count");
        m.metric("serve.jobs_per_batch", served.jobs_per_batch(), "ratio");
        m.metric("serve.worker_spawns", served.stat("worker_spawns"), "count");
        m.metric(
            "serve.worker_retries",
            served.stat("worker_retries"),
            "count",
        );
        m.metric("serve.errors", served.stat("errors"), "count");
        m.metric("serve.hit_ratio", served.hit_ratio(), "ratio");
        m.metric("serve.direct_ms.p50", median(&served.direct_ms), "ms");
        m.metric("serve.overhead_ms.p50", median(&served.overhead_ms), "ms");
    } else {
        let m = &mut out;
        m.metric("setup_s", median(&setup_s), "s");
        m.metric("sweep_s", median(&sweep_s), "s");
        m.metric("sweep_t1_s", median(&sweep_t1_s), "s");
        m.metric("sim_ms.p50", percentile(&sim_ms, 0.5), "ms");
        m.metric("sim_ms.p90", percentile(&sim_ms, 0.9), "ms");
        m.metric("peak_rss_mb", peak_rss_mib, "MiB");
        m.metric("miss_ms.p50", percentile(&served.miss_ms, 0.5), "ms");
        m.metric("miss_ms.p90", percentile(&served.miss_ms, 0.9), "ms");
        m.metric("hit_ms.p50", percentile(&served.hit_ms, 0.5), "ms");
        m.metric("hit_ms.p90", percentile(&served.hit_ms, 0.9), "ms");
        m.metric("served_per_s", served.served_per_s, "req/s");
    }
    out.print();
    ExitCode::SUCCESS
}
