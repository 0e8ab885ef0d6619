//! The consolidation cells the benchmark times, pinned at its scale.
//!
//! perfbench's `scaled-grid` runs a credit consolidation cell on each
//! measured hypervisor at ratios 1, 4 and 16, and checks each cell's
//! makespan and transition count against `perfbench/golden.txt`. This
//! test reads those same lines (it never writes them) and requires the
//! same two figures from all 12 cells, with the loop compiler on and
//! off. A change to the schedulers or to the cell's step loop that
//! moves one decision moves a makespan, and fails here as well as in
//! the benchmark.

use hvx::core::SchedPolicy;
use hvx::suite::bench_grid::DEFAULT_SCALE;
use hvx::suite::consolidation::{run_cell, TRANSACTIONS_PER_VM};
use hvx::suite::paper::COLUMNS;

/// The ratios `scaled-grid` samples: the endpoints and the knee.
const RATIOS: [u32; 3] = [1, 4, 16];

/// Runs the 12 cells and compares each with its golden line.
fn cells_match_the_golden_lines(compile: bool) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/perfbench/golden.txt");
    let golden = std::fs::read_to_string(path).expect("read perfbench/golden.txt");
    let txns = (DEFAULT_SCALE * 2).max(TRANSACTIONS_PER_VM);
    for kind in COLUMNS {
        for ratio in RATIOS {
            let key = format!(
                "grid.{DEFAULT_SCALE}.consol/{}/{ratio}",
                kind.to_string().replace(' ', "-")
            );
            let want = golden
                .lines()
                .find_map(|l| l.strip_prefix(&key)?.strip_prefix(' '))
                .unwrap_or_else(|| panic!("{key} is not in perfbench/golden.txt"));
            let before = hvx::engine::thread_transitions();
            let cell = run_cell(kind, ratio, SchedPolicy::Credit, txns, compile).unwrap();
            let transitions = hvx::engine::thread_transitions() - before;
            assert_eq!(
                format!("{} {transitions}", cell.makespan_cycles),
                want,
                "{key} with the loop compiler {}: makespan transitions",
                if compile { "on" } else { "off" }
            );
        }
    }
}

#[test]
fn compiled_cells_match_the_benchmark_golden() {
    cells_match_the_golden_lines(true);
}

#[test]
fn interpreted_cells_match_the_benchmark_golden() {
    cells_match_the_golden_lines(false);
}
