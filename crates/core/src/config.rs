//! System-level Capstan configuration.

use capstan_arch::grid::GridConfig;
pub use capstan_arch::memdrv::{TenantPartition, MAX_TENANTS};
use capstan_arch::scanner::{BitVecScanner, DataScanner};
use capstan_arch::shuffle::ShuffleConfig;
use capstan_arch::spmu::SpmuConfig;
pub use capstan_sim::dram::MemoryKind;
use capstan_sim::network::NetworkConfig;

/// How the performance engine prices DRAM time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MemTiming {
    /// Closed-form bandwidth/latency model (`DramModel::transfer_cycles`)
    /// — fast, and the mode every committed golden value was captured
    /// under.
    #[default]
    Analytic,
    /// Cycle-level: each tile's DRAM traffic is replayed through
    /// [`CapstanConfig::mem_channels`] region channels — banked DRAM
    /// channels behind a deterministic crossbar — and per-region
    /// `AddressGenerator`s ([`capstan_arch::memdrv::MemSysSim`]),
    /// capturing bank contention, row conflicts, atomics serialization,
    /// and multi-channel parallelism. Simulated cycles stay
    /// machine-independent and report text stays byte-identical across
    /// `CAPSTAN_THREADS` settings, but cycle counts differ from the
    /// analytic mode by design — golden baselines are pinned per mode
    /// (and per channel count).
    CycleLevel,
}

/// How the cycle-level memory mode picks scattered (random-read and
/// atomic) DRAM addresses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MemAddressing {
    /// Synthetic uniform SplitMix streams (`AddressStream` in
    /// `capstan_arch::memdrv`) — the mode every committed golden value
    /// was captured under. Cheap and distribution-free: every scattered
    /// access is an independent uniform draw, so hub-heavy workloads
    /// cannot show the open-burst coalescing the paper's AGs exploit.
    #[default]
    Synthetic,
    /// Replay the *real* sampled address vectors the workload recorder
    /// captured (`TileWork::dram_random_addrs` /
    /// `TileWork::dram_atomic_addrs` / `RemoteWork::addr_sampled` in
    /// `capstan_core::program`): the bounded deterministic sample is
    /// cycled to cover the full traffic total, so power-law destination
    /// skew reaches the per-region `AddressGenerator`s and coalesces in
    /// their open-burst caches. Tiles with **no** recorded addresses
    /// fall back to the synthetic streams bit-for-bit, so this mode is
    /// a strict refinement: it only changes results for workloads that
    /// actually record addresses. Ignored by the analytic timing mode.
    Recorded,
}

/// Where a run's format/memory configuration comes from: fixed by hand
/// (flags and hardcoded experiment choices — the historical default) or
/// derived per-dataset by the planning layer (`capstan-plan`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlanMode {
    /// Configurations are taken verbatim from flags and experiment code
    /// — the mode every committed golden value was captured under.
    #[default]
    Fixed,
    /// The planner derives the sparse format (and, in the serving layer,
    /// the memory configuration) from per-dataset statistics
    /// (`capstan_tensor::stats`). Planned runs form their own bench
    /// record group (`+plan`): the planner may legitimately pick a
    /// different format than the hardcoded one, so cycle counts can
    /// differ by design.
    Auto,
}

impl PlanMode {
    /// Canonical one-word name (see [`MemTiming::tag`]).
    pub fn tag(self) -> &'static str {
        match self {
            PlanMode::Fixed => "fixed",
            PlanMode::Auto => "auto",
        }
    }

    /// Parses [`tag`](Self::tag)'s spelling; `None` for anything else.
    pub fn parse(s: &str) -> Option<PlanMode> {
        match s {
            "fixed" => Some(PlanMode::Fixed),
            "auto" => Some(PlanMode::Auto),
            _ => None,
        }
    }
}

impl MemTiming {
    /// Canonical one-word name — the `--mem` CLI value, the wire-protocol
    /// field value, and the token hashed into content-addressed cache
    /// keys. One spelling everywhere, so a config can never round-trip
    /// into a different one.
    pub fn tag(self) -> &'static str {
        match self {
            MemTiming::Analytic => "analytic",
            MemTiming::CycleLevel => "cycle",
        }
    }

    /// Parses [`tag`](Self::tag)'s spelling; `None` for anything else.
    pub fn parse(s: &str) -> Option<MemTiming> {
        match s {
            "analytic" => Some(MemTiming::Analytic),
            "cycle" => Some(MemTiming::CycleLevel),
            _ => None,
        }
    }
}

impl MemAddressing {
    /// Canonical one-word name (see [`MemTiming::tag`]).
    pub fn tag(self) -> &'static str {
        match self {
            MemAddressing::Synthetic => "synthetic",
            MemAddressing::Recorded => "recorded",
        }
    }

    /// Parses [`tag`](Self::tag)'s spelling; `None` for anything else.
    pub fn parse(s: &str) -> Option<MemAddressing> {
        match s {
            "synthetic" => Some(MemAddressing::Synthetic),
            "recorded" => Some(MemAddressing::Recorded),
            _ => None,
        }
    }
}

/// Upper bound on a run's region-channel count — the widest topology
/// the memory model is exercised at, with headroom; an absurd channel
/// count would otherwise make a run allocate per-channel state
/// unboundedly.
pub const MAX_CHANNELS: usize = 1024;

/// The run-wide modes one invocation simulates under: memory timing,
/// scattered addressing, region channels, memory tenants, the drain
/// loop's fast-forward switch, and the plan mode. The paper's sweeps
/// change one subsystem at a time, so these are one value handed to
/// every configuration a run builds ([`RunModes::apply`]) rather than
/// process state. The default is the mode every committed golden value
/// was captured under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunModes {
    /// DRAM timing mode (see [`MemTiming`]).
    pub timing: MemTiming,
    /// Scattered-address mode (see [`MemAddressing`]).
    pub addresses: MemAddressing,
    /// Region channels of the cycle-level mode (`1..=MAX_CHANNELS`).
    pub channels: usize,
    /// Memory tenants of the cycle-level mode (`1..=MAX_TENANTS`).
    pub tenants: usize,
    /// Event-driven fast-forward of the cycle-level drain. Bit-identical
    /// to per-cycle ticking, so it never changes a row's suffix.
    pub fast_forward: bool,
    /// Where format/memory choices come from (see [`PlanMode`]).
    pub plan: PlanMode,
}

impl Default for RunModes {
    fn default() -> Self {
        RunModes {
            timing: MemTiming::Analytic,
            addresses: MemAddressing::Synthetic,
            channels: 1,
            tenants: 1,
            fast_forward: true,
            plan: PlanMode::Fixed,
        }
    }
}

impl RunModes {
    /// Each field's CLI flag and wire-protocol key, in canonical order.
    pub const FLAGS: [(&'static str, &'static str); 6] = [
        ("--mem", "mem"),
        ("--mem-addresses", "addresses"),
        ("--mem-channels", "channels"),
        ("--mem-tenants", "tenants"),
        ("--mem-fastforward", "fastforward"),
        ("--plan", "plan"),
    ];

    /// `cfg` with its memory-mode fields set to these modes (the plan
    /// mode is not a config field; `Suite::build` reads it).
    pub fn apply(self, mut cfg: CapstanConfig) -> CapstanConfig {
        cfg.mem_timing = self.timing;
        cfg.mem_addresses = self.addresses;
        cfg.mem_channels = self.channels;
        cfg.mem_tenants = self.tenants;
        cfg.mem_fast_forward = self.fast_forward;
        cfg
    }

    /// The bench-row suffix a run under these modes carries: `+cycle`
    /// for the cycle-level timing mode, `+rec` for recorded addressing,
    /// `+chN` for N > 1 region channels, `+mtN` for N > 1 memory
    /// tenants, `+plan` for planner-derived configurations,
    /// concatenated in that fixed order. Fast-forward adds nothing: it
    /// never changes simulated cycles. Rows with different suffixes
    /// form separate record groups (their simulated cycles
    /// intentionally differ), so every place that names a row — the
    /// `experiments` CLI, its resume journal, and the serving layer —
    /// derives it here.
    pub fn suffix(&self) -> String {
        let mut suffix = String::new();
        if self.timing == MemTiming::CycleLevel {
            suffix.push_str("+cycle");
        }
        if self.addresses == MemAddressing::Recorded {
            suffix.push_str("+rec");
        }
        if self.channels > 1 {
            suffix.push_str(&format!("+ch{}", self.channels));
        }
        if self.tenants > 1 {
            suffix.push_str(&format!("+mt{}", self.tenants));
        }
        if self.plan == PlanMode::Auto {
            suffix.push_str("+plan");
        }
        suffix
    }

    /// Parses `value` into the field whose wire key (see
    /// [`RunModes::FLAGS`]) is `key`. The one validation rule for the
    /// CLI and the wire protocol alike: a bad value is an error, never
    /// a silent fallback to a default.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let count = |max: usize| {
            value
                .parse()
                .ok()
                .filter(|n| (1..=max).contains(n))
                .ok_or_else(|| format!("{key} must be an integer in 1..={max}, got `{value}`"))
        };
        match key {
            "mem" => {
                self.timing = MemTiming::parse(value)
                    .ok_or_else(|| format!("unknown memory mode `{value}` (analytic|cycle)"))?;
            }
            "addresses" => {
                self.addresses = MemAddressing::parse(value).ok_or_else(|| {
                    format!("unknown addressing mode `{value}` (synthetic|recorded)")
                })?;
            }
            "channels" => self.channels = count(MAX_CHANNELS)?,
            "tenants" => self.tenants = count(MAX_TENANTS)?,
            "fastforward" => {
                self.fast_forward = match value {
                    "on" => true,
                    "off" => false,
                    _ => return Err(format!("unknown fast-forward mode `{value}` (on|off)")),
                };
            }
            "plan" => {
                self.plan = PlanMode::parse(value)
                    .ok_or_else(|| format!("unknown plan mode `{value}` (fixed|auto)"))?;
            }
            _ => return Err(format!("unknown run-mode field `{key}`")),
        }
        Ok(())
    }
}

/// Full configuration of a simulated Capstan system.
///
/// The default values are the paper's design point (Table 7): a 20x20
/// CU/MU checkerboard with 80 AGs, 16-lane vectors, 16-bank SpMUs with a
/// 16-deep allocated issue queue, a 256-bit/16-output scanner, and Mrg-1
/// shuffle networks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapstanConfig {
    /// Attached memory system.
    pub memory: MemoryKind,
    /// Chip grid (unit counts, lanes, SRAM geometry).
    pub grid: GridConfig,
    /// Sparse memory unit configuration.
    pub spmu: SpmuConfig,
    /// Bit-vector scanner configuration.
    pub scanner: BitVecScanner,
    /// Data scanner configuration.
    pub data_scanner: DataScanner,
    /// Shuffle network (`None` models a machine without one — Table 11's
    /// "None" column, where cross-tile updates fall back to DRAM).
    pub shuffle: Option<ShuffleConfig>,
    /// On-chip network parameters.
    pub network: NetworkConfig,
    /// Read-only DRAM compression for pointer tiles (§3.4, Fig. 5c).
    pub compression: bool,
    /// Outer-parallel pipelines used by applications (bounded by the
    /// grid's resources; Fig. 5b sweeps this).
    pub outer_par: usize,
    /// Model an ideal network and memory ("Capstan (Ideal Net & Mem)",
    /// Table 12).
    pub ideal_net_and_mem: bool,
    /// Maximum access vectors per tile replayed through the cycle-level
    /// SpMU (longer traces are sampled and extrapolated).
    pub sram_sample_limit: usize,
    /// Maximum request vectors per tile routed through the cycle-level
    /// shuffle network model.
    pub shuffle_sample_limit: usize,
    /// Model sparse loop headers as *scalar stream-joins* (one
    /// compare-dequeue decision per cycle) instead of the vectorized
    /// scanner. This is how Plasticine — which has no scanner — must
    /// iterate sparse data (paper §5 "Plasticine & Spatial").
    pub scalar_stream_join: bool,
    /// Extra bubble cycles per read-modify-write request, for fabrics
    /// without an RMW pipeline where "each read must block on the
    /// preceding write" (paper §5). Zero on Capstan.
    pub rmw_bubble_cycles: u64,
    /// Statically banked SRAM that serves only one random access per
    /// cycle per memory (Plasticine, paper §5). Replaces the allocated
    /// SpMU replay with full serialization.
    pub serialized_sram: bool,
    /// How DRAM time is priced: the closed-form analytic model or the
    /// cycle-level AG-backed replay (see [`MemTiming`]).
    pub mem_timing: MemTiming,
    /// Region channels of the cycle-level memory mode: each pairs one
    /// banked DRAM channel with one AG region behind a deterministic
    /// crossbar (`capstan_arch::memdrv`). 1 — the default — reproduces
    /// the single-channel topology every committed golden value was
    /// captured under bit-for-bit; the paper's grid has one channel per
    /// AG (`capstan_arch::memdrv::PAPER_CHANNELS` = 80). Ignored by the
    /// analytic mode.
    pub mem_channels: usize,
    /// How the cycle-level mode picks scattered DRAM addresses:
    /// synthetic uniform streams (the default every committed golden
    /// value was captured under) or replay of the recorder's real
    /// sampled address vectors (see [`MemAddressing`]). Ignored by the
    /// analytic mode.
    pub mem_addresses: MemAddressing,
    /// Memory tenants of the cycle-level mode: each tile's DRAM traffic
    /// is attributed to one of `mem_tenants` tenants (round-robin over
    /// tile index in `perf`), and the driver interleaves the tenants'
    /// traffic in a deterministic weighted round-robin
    /// (`capstan_arch::memdrv::TenantId`). 1 — the default — reproduces
    /// the single-tenant driver every committed golden value was
    /// captured under bit-for-bit. Ignored by the analytic mode.
    pub mem_tenants: usize,
    /// Channel partitioning policy across memory tenants: `Shared` (all
    /// tenants contend on every region channel — the default) or
    /// `Dedicated` (channels split into one private group per tenant;
    /// requires `mem_channels % mem_tenants == 0`). Ignored when
    /// `mem_tenants` is 1 and by the analytic mode.
    pub mem_tenant_partition: TenantPartition,
    /// Whether the cycle-level memory mode may jump over provably inert
    /// tick stretches (event-driven fast-forward) instead of ticking
    /// every cycle. Bit-identical in simulated cycles and statistics to
    /// the per-cycle reference loop — only wall-clock speed changes —
    /// so it defaults to on. Ignored by the analytic mode.
    pub mem_fast_forward: bool,
    /// Maximum recorded DRAM addresses retained per tile *per traffic
    /// class* (random reads, atomics, remote-update destinations). The
    /// recorder keeps a deterministic decimating sample of this size;
    /// the cycle-level recorded-address replay cycles through it to
    /// cover the class's full traffic total.
    pub addr_sample_limit: usize,
}

impl CapstanConfig {
    /// The paper's design point attached to the given memory system.
    pub fn new(memory: MemoryKind) -> Self {
        CapstanConfig {
            memory,
            grid: GridConfig::default(),
            spmu: SpmuConfig::default(),
            scanner: BitVecScanner::default(),
            data_scanner: DataScanner::default(),
            shuffle: Some(ShuffleConfig::default()),
            network: NetworkConfig::default(),
            compression: true,
            outer_par: 32,
            ideal_net_and_mem: false,
            sram_sample_limit: 384,
            shuffle_sample_limit: 128,
            scalar_stream_join: false,
            rmw_bubble_cycles: 0,
            serialized_sram: false,
            mem_timing: MemTiming::Analytic,
            mem_channels: 1,
            mem_tenants: 1,
            mem_tenant_partition: TenantPartition::default(),
            mem_addresses: MemAddressing::Synthetic,
            mem_fast_forward: true,
            addr_sample_limit: 512,
        }
    }

    /// The primary configuration evaluated in the paper (HBM2E).
    pub fn paper_default() -> Self {
        CapstanConfig::new(MemoryKind::Hbm2e)
    }

    /// The "Ideal Net & Mem" configuration (Table 12 row 1).
    pub fn ideal() -> Self {
        let mut cfg = CapstanConfig::new(MemoryKind::Ideal);
        cfg.ideal_net_and_mem = true;
        cfg.spmu.ideal_conflict_free = false; // SRAM conflicts still modeled
        cfg
    }

    /// Number of outer-parallel pipelines actually usable, given that a
    /// pipeline needs `cus_per_pipeline` CUs.
    pub fn effective_outer_par(&self, cus_per_pipeline: usize) -> usize {
        self.outer_par
            .min(self.grid.max_outer_parallel(cus_per_pipeline))
            .max(1)
    }
}

impl Default for CapstanConfig {
    fn default() -> Self {
        CapstanConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_hbm2e() {
        let cfg = CapstanConfig::paper_default();
        assert_eq!(cfg.memory, MemoryKind::Hbm2e);
        assert_eq!(cfg.grid.compute_units(), 200);
        assert_eq!(cfg.spmu.queue_depth, 16);
        assert_eq!(cfg.scanner.width, 256);
        assert!(cfg.shuffle.is_some());
    }

    #[test]
    fn ideal_config_disables_memory_costs() {
        let cfg = CapstanConfig::ideal();
        assert!(cfg.ideal_net_and_mem);
        assert_eq!(cfg.memory, MemoryKind::Ideal);
    }

    #[test]
    fn mem_timing_defaults_to_analytic() {
        // Every golden value in the repo was captured under the analytic
        // mode; the default must not drift.
        assert_eq!(MemTiming::default(), MemTiming::Analytic);
        assert_eq!(
            CapstanConfig::paper_default().mem_timing,
            MemTiming::Analytic
        );
        assert_eq!(RunModes::default().timing, MemTiming::Analytic);
    }

    #[test]
    fn mem_channels_defaults_to_the_bit_compatible_single_channel() {
        // The golden pins were captured under one region channel; the
        // default must not drift.
        assert_eq!(CapstanConfig::paper_default().mem_channels, 1);
        assert_eq!(RunModes::default().channels, 1);
    }

    #[test]
    fn mem_addressing_defaults_to_synthetic() {
        // Every golden value was captured under synthetic scattered
        // addressing; the default must not drift.
        assert_eq!(MemAddressing::default(), MemAddressing::Synthetic);
        assert_eq!(
            CapstanConfig::paper_default().mem_addresses,
            MemAddressing::Synthetic
        );
        assert_eq!(RunModes::default().addresses, MemAddressing::Synthetic);
        assert!(CapstanConfig::paper_default().addr_sample_limit > 0);
    }

    #[test]
    fn mem_fast_forward_defaults_to_on() {
        // Fast-forward is bit-identical to per-cycle ticking, so the
        // fast path is the safe default.
        assert!(CapstanConfig::paper_default().mem_fast_forward);
        assert!(RunModes::default().fast_forward);
    }

    #[test]
    fn mem_mode_tags_round_trip_and_reject_garbage() {
        for timing in [MemTiming::Analytic, MemTiming::CycleLevel] {
            assert_eq!(MemTiming::parse(timing.tag()), Some(timing));
        }
        for addressing in [MemAddressing::Synthetic, MemAddressing::Recorded] {
            assert_eq!(MemAddressing::parse(addressing.tag()), Some(addressing));
        }
        for plan in [PlanMode::Fixed, PlanMode::Auto] {
            assert_eq!(PlanMode::parse(plan.tag()), Some(plan));
        }
        assert_eq!(MemTiming::parse("psychic"), None);
        assert_eq!(MemTiming::parse("Analytic"), None);
        assert_eq!(MemAddressing::parse("vibes"), None);
        assert_eq!(PlanMode::parse("Auto"), None);
        assert_eq!(PlanMode::parse("manual"), None);
    }

    #[test]
    fn plan_mode_defaults_to_fixed() {
        // Every golden value was captured with hand-fixed
        // configurations; the default must not drift.
        assert_eq!(PlanMode::default(), PlanMode::Fixed);
        assert_eq!(RunModes::default().plan, PlanMode::Fixed);
    }

    /// The five suffix-bearing modes as one positional call, so the
    /// committed spellings below read as a table.
    fn mem_record_suffix(
        timing: MemTiming,
        addresses: MemAddressing,
        channels: usize,
        tenants: usize,
        plan: PlanMode,
    ) -> String {
        RunModes {
            timing,
            addresses,
            channels,
            tenants,
            plan,
            ..RunModes::default()
        }
        .suffix()
    }

    #[test]
    fn record_suffixes_match_the_committed_baseline_spellings() {
        // The committed BENCH_core.json carries rows named with exactly
        // these suffixes; a drifted spelling would silently open a new,
        // ungated record group.
        use MemAddressing::*;
        use MemTiming::*;
        use PlanMode::*;
        assert_eq!(mem_record_suffix(Analytic, Synthetic, 1, 1, Fixed), "");
        assert_eq!(
            mem_record_suffix(CycleLevel, Synthetic, 1, 1, Fixed),
            "+cycle"
        );
        assert_eq!(
            mem_record_suffix(CycleLevel, Recorded, 1, 1, Fixed),
            "+cycle+rec"
        );
        assert_eq!(
            mem_record_suffix(CycleLevel, Synthetic, 4, 1, Fixed),
            "+cycle+ch4"
        );
        assert_eq!(mem_record_suffix(Analytic, Synthetic, 4, 1, Fixed), "+ch4");
        assert_eq!(
            mem_record_suffix(CycleLevel, Recorded, 2, 1, Fixed),
            "+cycle+rec+ch2"
        );
        assert_eq!(
            mem_record_suffix(CycleLevel, Synthetic, 1, 2, Fixed),
            "+cycle+mt2"
        );
        assert_eq!(
            mem_record_suffix(CycleLevel, Recorded, 4, 3, Fixed),
            "+cycle+rec+ch4+mt3"
        );
        assert_eq!(mem_record_suffix(Analytic, Synthetic, 1, 1, Auto), "+plan");
        assert_eq!(
            mem_record_suffix(CycleLevel, Recorded, 4, 3, Auto),
            "+cycle+rec+ch4+mt3+plan"
        );
    }

    #[test]
    fn mem_tenants_defaults_to_the_bit_compatible_single_tenant() {
        // The golden pins were captured under the single-tenant driver;
        // the default must not drift.
        assert_eq!(CapstanConfig::paper_default().mem_tenants, 1);
        assert_eq!(RunModes::default().tenants, 1);
        assert_eq!(
            CapstanConfig::paper_default().mem_tenant_partition,
            TenantPartition::Shared
        );
    }

    #[test]
    fn default_modes_leave_every_config_unchanged() {
        let modes = RunModes::default();
        for cfg in [
            CapstanConfig::paper_default(),
            CapstanConfig::ideal(),
            CapstanConfig::new(MemoryKind::Ddr4),
        ] {
            assert_eq!(modes.apply(cfg), cfg);
        }
        assert_eq!(modes.suffix(), "");
    }

    #[test]
    fn run_mode_values_parse_with_one_bound_per_field() {
        let mut modes = RunModes::default();
        modes.set("mem", "cycle").unwrap();
        modes.set("addresses", "recorded").unwrap();
        modes.set("channels", &MAX_CHANNELS.to_string()).unwrap();
        modes.set("tenants", &MAX_TENANTS.to_string()).unwrap();
        modes.set("fastforward", "off").unwrap();
        modes.set("plan", "auto").unwrap();
        let expected = RunModes {
            timing: MemTiming::CycleLevel,
            addresses: MemAddressing::Recorded,
            channels: MAX_CHANNELS,
            tenants: MAX_TENANTS,
            fast_forward: false,
            plan: PlanMode::Auto,
        };
        assert_eq!(modes, expected);
        let over_channels = (MAX_CHANNELS + 1).to_string();
        let over_tenants = (MAX_TENANTS + 1).to_string();
        for (key, bad) in [
            ("mem", "psychic"),
            ("addresses", "vibes"),
            ("channels", "0"),
            ("channels", over_channels.as_str()),
            ("channels", "many"),
            ("tenants", "0"),
            ("tenants", over_tenants.as_str()),
            ("fastforward", "maybe"),
            ("plan", "manual"),
            ("zoom", "2"),
        ] {
            assert!(modes.set(key, bad).is_err(), "{key}={bad} must be rejected");
        }
        assert_eq!(
            modes, expected,
            "a rejected value leaves the modes as they were"
        );
    }

    #[test]
    fn effective_outer_par_is_resource_bounded() {
        let mut cfg = CapstanConfig::paper_default();
        cfg.outer_par = 1000;
        assert_eq!(cfg.effective_outer_par(1), 200);
        assert_eq!(cfg.effective_outer_par(2), 100);
        cfg.outer_par = 8;
        assert_eq!(cfg.effective_outer_par(1), 8);
    }
}
