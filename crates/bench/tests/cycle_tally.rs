//! Simulated cycles are counted per run, not per process: experiments
//! running concurrently in one process each count exactly their own
//! cycles — the serial count and the committed baseline's row.

use capstan_bench::{experiments, gate, Suite};
use capstan_core::config::{MemTiming, RunModes};
use capstan_sim::stats::count_simulated_cycles;

#[test]
fn concurrent_runs_count_their_own_cycles() {
    let suite = Suite {
        modes: RunModes {
            timing: MemTiming::CycleLevel,
            ..RunModes::default()
        },
        ..Suite::small()
    };
    let names = ["table13-atomics", "fig7", "table13-atomics", "fig7"];
    let count = |name: &&str| {
        count_simulated_cycles(|| experiments::run_by_name(name, &suite).expect("known experiment"))
            .1
    };
    let serial: Vec<u64> = names.iter().map(count).collect();
    let (concurrent, total) =
        count_simulated_cycles(|| capstan_par::par_map_threads(&names, 4, count));
    assert_eq!(
        concurrent, serial,
        "concurrent runs saw each other's cycles"
    );
    assert_eq!(
        total,
        serial.iter().sum::<u64>(),
        "nested counts reach the outer tally"
    );

    let baseline = gate::parse_record(include_str!("../../../BENCH_core.json")).expect("baseline");
    for (name, cycles) in names.iter().zip(&serial) {
        let row = format!("{name}{}", suite.modes.suffix());
        let committed = baseline
            .experiments
            .iter()
            .find(|r| r.name == row)
            .unwrap_or_else(|| panic!("no `{row}` row in BENCH_core.json"));
        assert_eq!(*cycles, committed.simulated_cycles, "{row}");
    }
}
