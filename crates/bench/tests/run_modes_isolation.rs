//! Run modes are a value, not process state: two suites with different
//! modes can run concurrently in one process, and each report still
//! equals its own serial run.

use capstan_bench::{experiments, Suite};
use capstan_core::config::{MemTiming, RunModes};

#[test]
fn concurrent_suites_with_different_modes_match_their_serial_runs() {
    let cycle_ch4 = RunModes {
        timing: MemTiming::CycleLevel,
        channels: 4,
        ..RunModes::default()
    };
    let jobs: Vec<(&str, Suite)> = [RunModes::default(), cycle_ch4]
        .into_iter()
        .flat_map(|modes| {
            let suite = Suite {
                modes,
                ..Suite::small()
            };
            [("table13-atomics", suite), ("fig7", suite)]
        })
        .collect();
    let run = |(name, suite): &(&str, Suite)| {
        experiments::run_by_name(name, suite).expect("known experiment")
    };
    let serial: Vec<String> = jobs.iter().map(run).collect();
    let concurrent = capstan_par::par_map_threads(&jobs, 4, run);
    for ((name, suite), (alone, together)) in jobs.iter().zip(serial.iter().zip(&concurrent)) {
        assert_eq!(
            together, alone,
            "{name} under {:?} changed when run next to other modes",
            suite.modes
        );
    }
    // The modes reached the experiments: the cycle-level 4-channel
    // reports differ from the default ones.
    assert_ne!(serial[0], serial[2]);
    assert_ne!(serial[1], serial[3]);
}
