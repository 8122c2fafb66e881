//! Extension experiment: does the Section-5 model recover the paper's
//! per-dataset `N_r` choices?
//!
//! ```text
//! cargo run --release -p scalefbp-bench -- layout_search
//! ```
//!
//! The paper picks `N_r = 16` (coffee bean), `8` (coffee bean 2x,
//! bumblebee) and `4` (tomo_00029) without explaining the search. This
//! harness ranks every divisor split `(N_r, N_g)` of 1024 GPUs by
//! projected runtime — the paper's choices should land on (or next to)
//! the model's optimum.

use scalefbp::ReduceMode;
use scalefbp_geom::DatasetPreset;
use scalefbp_perfmodel::{MachineParams, PerfModel};

pub fn run(_: &crate::Options) {
    let model = PerfModel::new(MachineParams::abci_v100());
    println!("layout search at 1024 GPUs, N_c = 8 (projected runtimes, Eq 17)\n");
    for (name, paper_nr) in [
        ("coffee_bean", 16usize),
        ("bumblebee", 8),
        ("tomo_00029", 4),
    ] {
        let geom = DatasetPreset::by_name(name)
            .unwrap()
            .geometry
            .with_volume(4096, 4096, 4096);
        let ranked = model.optimal_layout(&geom, 1024, 8, ReduceMode::default());
        println!("--- {name} (paper uses N_r = {paper_nr}) ---");
        println!("{:>6} {:>6} {:>12}", "N_r", "N_g", "runtime (s)");
        for (layout, secs) in ranked.iter().take(6) {
            let marker = if layout.nr == paper_nr {
                "  ← paper"
            } else {
                ""
            };
            println!("{:>6} {:>6} {:>12.2}{marker}", layout.nr, layout.ng, secs);
        }
        let paper_rank = ranked
            .iter()
            .position(|(l, _)| l.nr == paper_nr)
            .map(|p| p + 1)
            .unwrap_or(0);
        println!("paper's choice ranks #{paper_rank} of {}\n", ranked.len());
    }
}
