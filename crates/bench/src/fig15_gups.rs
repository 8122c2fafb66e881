//! Regenerates **Figure 15**: aggregate performance (GUPS) when
//! generating 4096³ volumes, for the three headline datasets over
//! 4…1024 GPUs.
//!
//! ```text
//! cargo run --release -p scalefbp-bench -- fig15_gups
//! ```

use scalefbp::timing::strong_scaling_sweep;
use scalefbp::ReduceMode;
use scalefbp_geom::DatasetPreset;
use scalefbp_perfmodel::MachineParams;

pub fn run(_: &crate::Options) {
    let machine = MachineParams::abci_v100();
    println!("Figure 15 — aggregate GUPS for 4096³ outputs (paper peaks ≈ 25,000–35,000");
    println!("GUPS at 1024 GPUs, two orders of magnitude over one GPU)\n");

    let series = [
        (
            "coffee_bean",
            16usize,
            vec![16, 32, 64, 128, 256, 512, 1024],
        ),
        ("bumblebee", 8, vec![8, 16, 32, 64, 128, 256, 512, 1024]),
        ("tomo_00029", 4, vec![4, 8, 16, 32, 64, 128, 256, 512, 1024]),
    ];

    println!(
        "{:>6} {:>14} {:>14} {:>14}",
        "GPUs", "coffee_bean", "bumblebee", "tomo_00029"
    );
    let sweeps: Vec<Vec<(usize, f64)>> = series
        .iter()
        .map(|(name, nr, gpus)| {
            let geom = DatasetPreset::by_name(name)
                .unwrap()
                .geometry
                .with_volume(4096, 4096, 4096);
            strong_scaling_sweep(&geom, *nr, 8, gpus, &machine, ReduceMode::default())
                .into_iter()
                .map(|o| (o.gpus, o.gups))
                .collect()
        })
        .collect();

    for gpus in [4usize, 8, 16, 32, 64, 128, 256, 512, 1024] {
        let cell = |idx: usize| -> String {
            sweeps[idx]
                .iter()
                .find(|(g, _)| *g == gpus)
                .map(|(_, gups)| format!("{gups:.0}"))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:>6} {:>14} {:>14} {:>14}",
            gpus,
            cell(0),
            cell(1),
            cell(2)
        );
    }

    // Two-orders-of-magnitude statement from the paper's text.
    for (idx, (name, _, gpus)) in series.iter().enumerate() {
        let first = sweeps[idx].first().unwrap();
        let last = sweeps[idx].last().unwrap();
        println!(
            "\n{name}: {:.0} GUPS at {} GPUs → {:.0} GUPS at {} GPUs ({:.0}×)",
            first.1,
            gpus.first().unwrap(),
            last.1,
            gpus.last().unwrap(),
            last.1 / first.1
        );
    }
}
