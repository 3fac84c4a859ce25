//! Differential tests for the stage memo `perf::simulate` keeps on each
//! `Workload` (SpMU replays keyed by `SpmuConfig`, the shuffle-network
//! excess keyed by `ShuffleConfig`).
//!
//! A memo hit must be invisible: every report's `Debug` text has to be
//! the same whether the workload is fresh, already warm, a clone, swept
//! in forward or reverse config order, or simulated from four threads at
//! once, and a hit must count exactly as many simulated cycles as a
//! miss.

use capstan::apps::pagerank::{PrEdge, PrPull};
use capstan::apps::spmv::CsrSpmv;
use capstan::apps::App;
use capstan::arch::shuffle::MergeShift;
use capstan::baselines::plasticine;
use capstan::core::config::{CapstanConfig, MemoryKind};
use capstan::core::perf::simulate;
use capstan::core::program::Workload;
use capstan::sim::stats::count_simulated_cycles;
use capstan::tensor::gen::Dataset;

/// Apps with SRAM traces, and two with cross-tile shuffle traffic.
fn apps() -> Vec<Box<dyn App>> {
    let matrix = Dataset::Ckt11752.generate_scaled(0.02);
    let graph = Dataset::WebStanford.generate_scaled(0.006);
    vec![
        Box::new(CsrSpmv::new(&matrix)),
        Box::new(PrPull::new(&graph)),
        Box::new(PrEdge::new(&graph)),
    ]
}

/// Every Table 12 platform, Plasticine, an ideal conflict-free SpMU and
/// a shuffle-less machine, plus one more SpMU key and one more shuffle
/// key so each stage sees several distinct keys on one workload.
fn configs() -> Vec<CapstanConfig> {
    let hbm2e = CapstanConfig::new(MemoryKind::Hbm2e);
    let mut conflict_free = hbm2e;
    conflict_free.spmu.ideal_conflict_free = true;
    let mut shuffle_less = hbm2e;
    shuffle_less.shuffle = None;
    let mut shallow = hbm2e;
    shallow.spmu.queue_depth = 8;
    let mut rigid = hbm2e;
    if let Some(s) = rigid.shuffle.as_mut() {
        s.shift = MergeShift::None;
    }
    vec![
        CapstanConfig::ideal(),
        hbm2e,
        CapstanConfig::new(MemoryKind::Hbm2),
        CapstanConfig::new(MemoryKind::Ddr4),
        plasticine::config(MemoryKind::Hbm2e),
        conflict_free,
        shuffle_less,
        shallow,
        rigid,
    ]
}

fn record(app: &dyn App) -> Workload {
    app.build(&CapstanConfig::paper_default())
}

/// `(report Debug text, simulated cycles the call counted)`.
fn run(w: &Workload, cfg: &CapstanConfig) -> (String, u64) {
    count_simulated_cycles(|| format!("{:?}", simulate(w, cfg)))
}

/// Each `(app, config)` pair simulated on a workload recorded for that
/// pair alone, so every stage misses.
fn fresh(apps: &[Box<dyn App>], configs: &[CapstanConfig]) -> Vec<Vec<(String, u64)>> {
    apps.iter()
        .map(|app| configs.iter().map(|c| run(&record(&**app), c)).collect())
        .collect()
}

#[test]
fn memo_hits_match_fresh_runs_in_text_and_cycles() {
    let (apps, configs) = (apps(), configs());
    let expected = fresh(&apps, &configs);
    for (app, want) in apps.iter().zip(&expected) {
        let name = app.name();
        assert!(
            want.iter().any(|(_, cycles)| *cycles > 0),
            "{name}: no config replays through the SpMU"
        );
        let w = record(&**app);
        let recorded_text = format!("{w:?}");
        // First sweep fills the memo (Ideal, HBM2 and DDR4 already hit
        // HBM2E's entries); the second hits on every stage.
        for sweep in ["filling", "warm"] {
            for (cfg, want) in configs.iter().zip(want) {
                assert_eq!(&run(&w, cfg), want, "{name}: {sweep} sweep diverged");
            }
        }
        assert_eq!(
            format!("{w:?}"),
            recorded_text,
            "{name}: the memo leaked into the workload's Debug text"
        );
        let clone = w.clone();
        for (cfg, want) in configs.iter().zip(want) {
            assert_eq!(&run(&clone, cfg), want, "{name}: clone diverged");
        }
    }
}

#[test]
fn memo_is_independent_of_config_order() {
    let (apps, configs) = (apps(), configs());
    let expected = fresh(&apps, &configs);
    for (app, want) in apps.iter().zip(&expected) {
        let w = record(&**app);
        for (cfg, want) in configs.iter().zip(want).rev() {
            assert_eq!(
                &run(&w, cfg),
                want,
                "{}: reverse-order sweep diverged",
                app.name()
            );
        }
    }
}

#[test]
fn concurrent_callers_share_the_memo_without_changing_results() {
    let (apps, configs) = (apps(), configs());
    let expected = fresh(&apps, &configs);
    let workloads: Vec<Workload> = apps.iter().map(|app| record(&**app)).collect();
    // Every pair twice, so same-key callers race on one memo entry.
    let pairs: Vec<(usize, usize)> = (0..2)
        .flat_map(|_| (0..apps.len()).flat_map(|a| (0..configs.len()).map(move |c| (a, c))))
        .collect();
    let (texts, added) = count_simulated_cycles(|| {
        capstan_par::par_map_threads(&pairs, 4, |&(a, c)| {
            format!("{:?}", simulate(&workloads[a], &configs[c]))
        })
    });
    for (&(a, c), text) in pairs.iter().zip(&texts) {
        assert_eq!(
            text,
            &expected[a][c].0,
            "{} on config {c}: parallel run diverged",
            apps[a].name()
        );
    }
    let serial_cycles: u64 = expected.iter().flatten().map(|(_, n)| n).sum();
    assert_eq!(
        added,
        2 * serial_cycles,
        "parallel runs lost or gained cycles"
    );
}
