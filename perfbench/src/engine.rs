//! The engine side of a workload: record each dataset once, then
//! simulate every (dataset x config) pair, untraced through
//! `capstan_par` or traced on one thread with every layer replayed.

use crate::util::{ratio, Fnv, RepeatCounter, Rng};
use crate::Outcome;
use capstan_arch::memdrv::{MemSysConfig, MemSysSim, TenantId, TileTraffic, MAX_TENANTS};
use capstan_arch::shuffle::{ButterflyNetwork, RouteScratch, ShuffleVector};
use capstan_arch::spmu::driver::run_vectors;
use capstan_arch::spmu::{AccessVector, LaneRequest};
use capstan_bench::{AppId, Suite};
use capstan_core::config::{
    CapstanConfig, MemAddressing, MemTiming, MemoryKind, PlanMode, TenantPartition,
};
use capstan_core::perf::simulate;
use capstan_core::program::{TileWork, Workload};
use capstan_core::report::PerfReport;
use capstan_sim::dram::{DramModel, BURST_BYTES};
use capstan_sim::network::NetworkModel;
use capstan_tensor::gen::Dataset;
use capstan_tensor::stats::TensorStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One workload's engine inputs: what to record, under which config,
/// and which configs to simulate each recording under.
pub struct EngineSet {
    suite: Suite,
    inputs: Vec<(AppId, Dataset)>,
    record_cfg: CapstanConfig,
    configs: Vec<CapstanConfig>,
    /// The seeded order in which the `(input, config)` pairs are issued.
    order: Vec<(usize, usize)>,
    /// Digest of every report of a correct run (see [`digest`]).
    pinned: u64,
}

// Report digests of correct runs, captured at the commit that added the
// benchmark. Simulated results must not change, so any other digest is
// a failed check. `mem-drain` has one per queue-depth rotation.
const PAPER_SWEEP_DIGEST: u64 = 0x4ede_cb7e_dd9e_853d;
const MEM_DRAIN_DIGESTS: [u64; 13] = [
    0xe281_e77d_e083_cb92,
    0x3831_6bf6_4edc_c2a4,
    0xbef7_8d16_8e7e_6aee,
    0xa1c7_cd84_00b7_43b6,
    0xb64a_9487_594e_11e9,
    0x3eca_5b0d_9341_e6e2,
    0x0867_2f56_d0dd_253d,
    0x6210_bbb2_0502_3a93,
    0xa7b0_9e3e_4619_7d5f,
    0xcbe9_14c8_e338_dcdd,
    0xbb55_abc4_a9f3_e85a,
    0x4aaa_2215_1d0e_3f70,
    0x6f24_f766_b72d_e1e9,
];

/// Sets every memory field of `cfg`, so no config depends on the
/// process-wide defaults `CapstanConfig::new` reads.
fn with_memory(
    mut cfg: CapstanConfig,
    timing: MemTiming,
    addresses: MemAddressing,
    channels: usize,
    tenants: usize,
) -> CapstanConfig {
    cfg.mem_timing = timing;
    cfg.mem_addresses = addresses;
    cfg.mem_channels = channels;
    cfg.mem_tenants = tenants;
    cfg.mem_tenant_partition = TenantPartition::Shared;
    cfg.mem_fast_forward = true;
    cfg
}

fn analytic(cfg: CapstanConfig) -> CapstanConfig {
    with_memory(cfg, MemTiming::Analytic, MemAddressing::Synthetic, 1, 1)
}

fn seeded_order(inputs: usize, configs: usize, rng: &mut Rng) -> Vec<(usize, usize)> {
    let mut order: Vec<(usize, usize)> = (0..inputs)
        .flat_map(|wi| (0..configs).map(move |ci| (wi, ci)))
        .collect();
    rng.shuffle(&mut order);
    order
}

/// `paper-sweep`: all 11 apps on their three Table 6 datasets at
/// `small`, recorded at the paper default and simulated on the five
/// Table 12 platforms. The inputs are fixed by the paper; the seed only
/// orders the pairs. Also the engine side of `serve-mix`.
pub fn paper_sweep(seed: u64) -> EngineSet {
    let inputs: Vec<(AppId, Dataset)> = AppId::ALL
        .iter()
        .flat_map(|&app| app.datasets().iter().map(move |&d| (app, d)))
        .collect();
    let configs = vec![
        analytic(CapstanConfig::ideal()),
        analytic(CapstanConfig::new(MemoryKind::Hbm2e)),
        analytic(CapstanConfig::new(MemoryKind::Hbm2)),
        analytic(CapstanConfig::new(MemoryKind::Ddr4)),
        analytic(capstan_baselines::plasticine::config(MemoryKind::Hbm2e)),
    ];
    let order = seeded_order(inputs.len(), configs.len(), &mut Rng::new(seed));
    EngineSet {
        suite: Suite::small(),
        inputs,
        record_cfg: analytic(CapstanConfig::paper_default()),
        configs,
        order,
        pinned: PAPER_SWEEP_DIGEST,
    }
}

/// Graph factor of `mem-drain`: above `small` (0.015), and large enough
/// that the cycle-level drain is the majority of `simulate`.
const DRAIN_GRAPH_SCALE: f64 = 0.02;

/// SRAM vectors recorded per tile in `mem-drain`. Below the paper
/// default (384) so the SpMU replay, which costs the same at any graph
/// scale, stays a minority next to the drain.
const DRAIN_SRAM_SAMPLES: usize = 96;

/// Distinct SpMU queue depths, one per `mem-drain` point, so no two
/// points replay the same SpMU input.
const DRAIN_DEPTHS: [usize; 13] = [4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];

/// `mem-drain`: the graph apps on the power-law graphs, shuffle-less
/// under the cycle-level memory mode, at 13 points: channels {1, 2, 4,
/// 8} x (synthetic, recorded, synthetic with two shared tenants), plus
/// recorded with two tenants on one channel. 8 inputs x 13 points give
/// 104 `simulate` calls a pass, enough for `sim_ms.p90`. The seed
/// rotates which SpMU queue depth each point gets and orders the pairs.
pub fn mem_drain(seed: u64) -> EngineSet {
    let mut rng = Rng::new(seed);
    let rotation = rng.below(DRAIN_DEPTHS.len());
    let apps = [AppId::PrPull, AppId::PrEdge, AppId::Bfs, AppId::Sssp];
    let inputs: Vec<(AppId, Dataset)> = apps
        .iter()
        .flat_map(|&app| [(app, Dataset::WebStanford), (app, Dataset::Flickr)])
        .collect();
    let mut points = Vec::new();
    for channels in [1, 2, 4, 8] {
        for (addresses, tenants) in [
            (MemAddressing::Synthetic, 1),
            (MemAddressing::Recorded, 1),
            (MemAddressing::Synthetic, 2),
        ] {
            points.push((channels, addresses, tenants));
        }
    }
    points.push((1, MemAddressing::Recorded, 2));
    let configs: Vec<CapstanConfig> = points
        .into_iter()
        .enumerate()
        .map(|(i, (channels, addresses, tenants))| {
            let mut cfg = with_memory(
                CapstanConfig::new(MemoryKind::Hbm2e),
                MemTiming::CycleLevel,
                addresses,
                channels,
                tenants,
            );
            cfg.shuffle = None;
            cfg.spmu.queue_depth = DRAIN_DEPTHS[(i + rotation) % DRAIN_DEPTHS.len()];
            cfg
        })
        .collect();
    let mut record_cfg = analytic(CapstanConfig::paper_default());
    record_cfg.sram_sample_limit = DRAIN_SRAM_SAMPLES;
    let order = seeded_order(inputs.len(), configs.len(), &mut rng);
    let mut suite = Suite::small();
    suite.graph_scale = DRAIN_GRAPH_SCALE;
    EngineSet {
        suite,
        inputs,
        record_cfg,
        configs,
        order,
        pinned: MEM_DRAIN_DIGESTS[rotation],
    }
}

impl EngineSet {
    /// The set-up share of the engine: every dataset generated and every
    /// app built once (`Suite::build` with the plan mode spelled out).
    pub fn build_inputs(&self) {
        for &(app, dataset) in &self.inputs {
            std::hint::black_box(self.suite.build_planned(app, dataset, PlanMode::Fixed));
        }
    }

    fn record(&self, input: (AppId, Dataset)) -> Workload {
        let (app, dataset) = input;
        self.suite
            .build_planned(app, dataset, PlanMode::Fixed)
            .build(&self.record_cfg)
    }
}

/// One untraced record+simulate pass.
pub struct Pass {
    pub wall_s: f64,
    /// Host seconds of each `simulate` call, in issue order.
    pub sim_s: Vec<f64>,
}

/// Exact digest of a pass: every report's `Debug` text, in canonical
/// pair order, so a digest is independent of issue order and threads.
fn digest(reports: &[Option<PerfReport>]) -> Option<u64> {
    let mut h = Fnv::new();
    for r in reports {
        h.debug(r.as_ref()?);
    }
    Some(h.finish())
}

/// Records every input and simulates every pair through
/// `capstan_par::par_map_threads` at `threads`, checking the reports
/// against the pinned digest. Each record and simulate call is one op.
pub fn run_pass(set: &EngineSet, threads: usize, out: &mut Outcome) -> Pass {
    let start = Instant::now();
    let recorded = capstan_par::par_map_threads(&set.inputs, threads, |&input| {
        catch_unwind(AssertUnwindSafe(|| set.record(input))).ok()
    });
    out.attempted += recorded.len() as u64;
    let workloads: Vec<Workload> = match recorded.into_iter().collect::<Option<Vec<_>>>() {
        Some(w) => w,
        None => {
            out.fail("a recording panicked".to_string());
            return Pass {
                wall_s: start.elapsed().as_secs_f64(),
                sim_s: Vec::new(),
            };
        }
    };
    let results = capstan_par::par_map_threads(&set.order, threads, |&(wi, ci)| {
        let t = Instant::now();
        let report = catch_unwind(AssertUnwindSafe(|| {
            simulate(&workloads[wi], &set.configs[ci])
        }));
        (report.ok(), t.elapsed().as_secs_f64())
    });
    let wall_s = start.elapsed().as_secs_f64();
    out.attempted += results.len() as u64;
    let mut slots: Vec<Option<PerfReport>> = vec![None; set.order.len()];
    let mut sim_s = Vec::with_capacity(results.len());
    for (&(wi, ci), (report, secs)) in set.order.iter().zip(results) {
        if report.is_none() {
            out.fail(format!("simulate panicked on pair ({wi}, {ci})"));
        }
        slots[wi * set.configs.len() + ci] = report;
        sim_s.push(secs);
    }
    match digest(&slots) {
        Some(d) if d == set.pinned => {}
        Some(d) => out.fail(format!(
            "report digest {d:016x} at {threads} thread(s), pinned {:016x}",
            set.pinned
        )),
        None => {}
    }
    Pass { wall_s, sim_s }
}

/// Per-layer counters of a traced pass. Times are host seconds summed
/// over spans around calls into each layer's public entry point.
#[derive(Debug, Default)]
pub struct LayerTrace {
    pub gen_s: f64,
    pub nnz: u64,
    pub stats_s: f64,
    pub record_s: f64,
    pub tiles: u64,
    pub sram_vectors: u64,
    pub shuffle_vectors: u64,
    pub lane_work: u64,
    pub perf_calls: u64,
    pub simulate_s: f64,
    pub spmu: Spans,
    pub spmu_vectors: u64,
    pub spmu_cycles: u64,
    util_weighted: f64,
    util_weight: f64,
    pub shuffle: Spans,
    pub shuffle_vectors_routed: u64,
    pub shuffle_cycles: u64,
    pub memdrv: Spans,
    pub drain_cycles: u64,
    row_hits: u64,
    served_bursts: u64,
    pub ag_fetches: u64,
    atomic_words: u64,
    pub contention_cycles: u64,
}

/// Calls into one layer: count, busy seconds and input repeats.
#[derive(Debug, Default)]
pub struct Spans {
    pub calls: u64,
    pub busy_s: f64,
    pub repeats: RepeatCounter,
}

impl Spans {
    fn time<R>(&mut self, input_hash: u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.busy_s += t.elapsed().as_secs_f64();
        self.calls += 1;
        self.repeats.record(input_hash);
        r
    }
}

impl LayerTrace {
    pub fn self_s(&self) -> f64 {
        self.simulate_s - self.spmu.busy_s - self.shuffle.busy_s - self.memdrv.busy_s
    }

    /// Vector-weighted bank utilization over every `run_vectors` call.
    pub fn bank_util(&self) -> f64 {
        ratio(self.util_weighted, self.util_weight)
    }

    pub fn cycles_per_s(&self) -> f64 {
        ratio(self.drain_cycles as f64, self.memdrv.busy_s)
    }

    pub fn row_hit_ratio(&self) -> f64 {
        ratio(self.row_hits as f64, self.served_bursts as f64)
    }

    /// Atomic words per burst the AGs fetched.
    pub fn coalesce_ratio(&self) -> f64 {
        ratio(self.atomic_words as f64, self.ag_fetches as f64)
    }
}

/// The traced pass, on one thread: generates each distinct matrix
/// (tensor layer), records each input (record layer), then for every
/// pair calls `simulate` and replays that pair's SRAM, shuffle and DRAM
/// inputs through the public layer functions exactly as `perf` feeds
/// them. A replay whose result differs from the report fails the run:
/// the layer times would then belong to different work.
pub fn traced_pass(set: &EngineSet, trace: &mut LayerTrace, out: &mut Outcome) {
    // Each Table 6 dataset belongs to one app class, and a class shares
    // one scale factor, so a dataset identifies its matrix. Conv builds
    // from layer descriptors, not a matrix.
    let mut seen: Vec<Dataset> = Vec::new();
    for &(app, dataset) in &set.inputs {
        if app == AppId::Conv || seen.contains(&dataset) {
            continue;
        }
        seen.push(dataset);
        let t = Instant::now();
        let m = set.suite.build_matrix_for(app, dataset);
        trace.gen_s += t.elapsed().as_secs_f64();
        trace.nnz += m.nnz() as u64;
        let t = Instant::now();
        std::hint::black_box(TensorStats::compute(&m));
        trace.stats_s += t.elapsed().as_secs_f64();
    }

    let mut workloads = Vec::with_capacity(set.inputs.len());
    for &(app, dataset) in &set.inputs {
        let instance = set.suite.build_planned(app, dataset, PlanMode::Fixed);
        let t = Instant::now();
        let wl = instance.build(&set.record_cfg);
        trace.record_s += t.elapsed().as_secs_f64();
        trace.tiles += wl.tiles.len() as u64;
        for tile in &wl.tiles {
            trace.sram_vectors += tile.sram.total_vectors;
            trace.shuffle_vectors += tile.remote.total_vectors;
            trace.lane_work += tile.lane_work;
        }
        workloads.push(wl);
    }
    out.attempted += workloads.len() as u64;

    let mut masked: Vec<AccessVector> = Vec::new();
    for &(wi, ci) in &set.order {
        let (wl, cfg) = (&workloads[wi], &set.configs[ci]);
        let t = Instant::now();
        let report = simulate(wl, cfg);
        trace.simulate_s += t.elapsed().as_secs_f64();
        trace.perf_calls += 1;
        out.attempted += 1;

        let util = replay_sram(wl, cfg, &mut masked, trace);
        if util.to_bits() != report.sram_bank_utilization.to_bits() {
            out.fail(format!(
                "pair ({wi}, {ci}): replayed bank utilization {util} != reported {}",
                report.sram_bank_utilization
            ));
        }
        let network = replay_shuffle(wl, cfg, trace);
        if network != report.breakdown.network {
            out.fail(format!(
                "pair ({wi}, {ci}): replayed network cycles {network} != reported {}",
                report.breakdown.network
            ));
        }
        if let Some((stats, tenants)) = replay_memdrv(wl, cfg, trace) {
            if Some(stats) != report.mem || tenants != report.mem_tenants {
                out.fail(format!(
                    "pair ({wi}, {ci}): replayed drain of {} cycles != reported {:?}",
                    stats.cycles,
                    report.mem.map(|m| m.cycles)
                ));
            }
        } else if report.mem.is_some() {
            out.fail(format!(
                "pair ({wi}, {ci}): drain reported but not replayed"
            ));
        }
    }
}

/// Masks a sampled SRAM trace into the SpMU's local address space, as
/// `perf` does before its replay.
fn mask_into(dst: &mut Vec<AccessVector>, sampled: &[AccessVector], capacity: u32) {
    dst.clear();
    dst.extend(sampled.iter().map(|v| {
        AccessVector {
            lanes: v
                .lanes
                .iter()
                .map(|l| {
                    l.map(|r| LaneRequest {
                        addr: r.addr % capacity,
                        ..r
                    })
                })
                .collect(),
        }
    }));
}

/// Replays every tile's SRAM trace through `run_vectors` and returns the
/// vector-weighted bank utilization `simulate` reports.
fn replay_sram(
    wl: &Workload,
    cfg: &CapstanConfig,
    masked: &mut Vec<AccessVector>,
    trace: &mut LayerTrace,
) -> f64 {
    let mut util_weighted = 0.0f64;
    let mut util_weight = 0.0f64;
    for tile in &wl.tiles {
        let sram = &tile.sram;
        if sram.total_vectors == 0 {
            continue;
        }
        let util = if cfg.serialized_sram {
            1.0 / cfg.spmu.banks as f64
        } else if !cfg.spmu.ideal_conflict_free && !sram.sampled.is_empty() {
            mask_into(masked, &sram.sampled, cfg.spmu.capacity_words() as u32);
            let mut h = Fnv::new();
            h.debug(&cfg.spmu);
            for v in masked.iter() {
                h.u64(v.lanes.len() as u64);
                for lane in &v.lanes {
                    match lane {
                        Some(r) => {
                            h.bytes(&[1, r.op as u8]);
                            h.bytes(&r.addr.to_le_bytes());
                            h.bytes(&r.operand.to_bits().to_le_bytes());
                        }
                        None => h.bytes(&[0]),
                    }
                }
            }
            let result = trace
                .spmu
                .time(h.finish(), || run_vectors(cfg.spmu, masked));
            trace.spmu_vectors += masked.len() as u64;
            trace.spmu_cycles += result.cycles;
            trace.util_weighted += result.bank_utilization * sram.total_vectors as f64;
            trace.util_weight += sram.total_vectors as f64;
            result.bank_utilization
        } else {
            0.0
        };
        util_weighted += util * sram.total_vectors as f64;
        util_weight += sram.total_vectors as f64;
    }
    ratio(util_weighted, util_weight)
}

/// Routes the workload's sampled shuffle traffic through the butterfly
/// (tile `i` injects at port `i mod ports`) and returns the Network
/// component `simulate` reports.
fn replay_shuffle(wl: &Workload, cfg: &CapstanConfig, trace: &mut LayerTrace) -> u64 {
    if cfg.ideal_net_and_mem {
        return 0;
    }
    let round_trips =
        wl.dependent_rounds * NetworkModel::new(cfg.network, cfg.grid.side).round_trip_cycles(1);
    let mut excess = 0u64;
    let total_entries: u64 = wl.tiles.iter().map(|t| t.remote.total_entries).sum();
    if let Some(shuffle_cfg) = cfg.shuffle.filter(|_| total_entries > 0) {
        let ports = shuffle_cfg.ports;
        let mut streams: Vec<Vec<&ShuffleVector>> = vec![Vec::new(); ports];
        let mut sample_entries = 0u64;
        for (i, tile) in wl.tiles.iter().enumerate() {
            for v in &tile.remote.sampled {
                sample_entries += v.iter().flatten().count() as u64;
                streams[i % ports].push(v);
            }
        }
        if sample_entries > 0 {
            let mut h = Fnv::new();
            h.debug(&shuffle_cfg);
            for stream in &streams {
                h.u64(stream.len() as u64);
                for v in stream {
                    h.u64(v.len() as u64);
                    for e in v.iter() {
                        match e {
                            Some(e) => {
                                h.u64(u64::from(e.dest) + 1);
                                h.u64(e.lane as u64);
                            }
                            None => h.u64(0),
                        }
                    }
                }
            }
            let cycles = trace.shuffle.time(h.finish(), || {
                let mut scratch = RouteScratch::default();
                ButterflyNetwork::new(shuffle_cfg)
                    .route_ref(&streams, &mut scratch)
                    .cycles
            });
            trace.shuffle_vectors_routed += streams.iter().map(|s| s.len() as u64).sum::<u64>();
            trace.shuffle_cycles += cycles;
            let ideal = streams.iter().map(|s| s.len() as u64).max().unwrap_or(1);
            let scale = total_entries as f64 / sample_entries as f64;
            excess = (cycles.saturating_sub(ideal) as f64 * scale).round() as u64;
        }
    }
    (excess as f64 + round_trips as f64).round() as u64
}

/// Drains the workload's DRAM traffic through a fresh `MemSysSim` when
/// `simulate` would (cycle-level mode, real memory): per-tile traffic
/// after compression, tenants round-robin over tiles, recorded
/// addresses when asked, and the shuffle-less fallback atomics. Returns
/// the drain's stats for comparison with the report.
fn replay_memdrv(
    wl: &Workload,
    cfg: &CapstanConfig,
    trace: &mut LayerTrace,
) -> Option<(
    capstan_arch::memdrv::MemStats,
    Vec<capstan_arch::memdrv::TenantStats>,
)> {
    if cfg.ideal_net_and_mem
        || cfg.mem_timing != MemTiming::CycleLevel
        || matches!(cfg.memory, MemoryKind::Ideal)
    {
        return None;
    }
    let model = DramModel::new(cfg.memory);
    let mut mcfg = MemSysConfig::with_channels(&model, cfg.mem_channels);
    mcfg.tenants = cfg.mem_tenants.clamp(1, MAX_TENANTS);
    mcfg.partition = cfg.mem_tenant_partition;
    mcfg.fast_forward = cfg.mem_fast_forward;
    let recorded = cfg.mem_addresses == MemAddressing::Recorded;
    let stream_bytes = |t: &TileWork| {
        if cfg.compression {
            t.dram_stream_bytes - t.dram_compressible_bytes + t.dram_compressed_bytes
        } else {
            t.dram_stream_bytes
        }
    };
    let mut sim = MemSysSim::with_config(model, mcfg);
    let mut h = Fnv::new();
    h.debug(&model);
    h.debug(&mcfg);
    h.u64(u64::from(recorded));
    for (i, tile) in wl.tiles.iter().enumerate() {
        let tenant = TenantId(i % mcfg.tenants);
        let traffic = TileTraffic {
            stream_bursts: stream_bytes(tile).div_ceil(BURST_BYTES),
            random_bursts: tile.dram_random_words,
            atomic_words: tile.dram_atomic_words,
        };
        h.debug(&(tenant, traffic));
        if recorded {
            h.debug(&(&tile.dram_random_addrs, &tile.dram_atomic_addrs));
            sim.add_tile_recorded_for(
                tenant,
                traffic,
                &tile.dram_random_addrs,
                &tile.dram_atomic_addrs,
            );
        } else {
            sim.add_tile_for(tenant, traffic);
        }
    }
    let fallback: u64 = if cfg.shuffle.is_none() {
        wl.tiles.iter().map(|t| t.remote.total_entries).sum()
    } else {
        0
    };
    if fallback > 0 {
        h.u64(fallback);
        if recorded {
            for tile in &wl.tiles {
                h.debug(&tile.remote.addr_sampled);
                sim.add_tile_recorded(TileTraffic::default(), &[], &tile.remote.addr_sampled);
            }
        }
        sim.add_tile(TileTraffic {
            atomic_words: fallback,
            ..Default::default()
        });
    }
    let stats = trace.memdrv.time(h.finish(), || sim.run());
    let tenants = (0..sim.tenants())
        .map(|t| sim.tenant_stats(TenantId(t)))
        .collect();
    trace.drain_cycles += stats.cycles;
    trace.ag_fetches += stats.ag_bursts_fetched;
    trace.atomic_words += stats.atomic_words;
    trace.contention_cycles += stats.contention_cycles;
    for c in 0..mcfg.channels {
        let ch = sim.channel_stats(c);
        trace.row_hits += ch.row_hits;
        trace.served_bursts += ch.served;
    }
    Some((stats, tenants))
}
