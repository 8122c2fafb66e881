//! Regenerates **Figure 13 (a–d)**: strong scaling of the four evaluation
//! workloads to 1024 GPUs — measured (discrete-event simulation of the
//! real task graph) vs projected (the Section-5 Equation-17 model), with
//! the paper's reported numbers alongside for comparison.
//!
//! ```text
//! cargo run --release -p scalefbp-bench -- fig13_strong_scaling
//! ```

use scalefbp::timing::strong_scaling_sweep;
use scalefbp::ReduceMode;
use scalefbp_geom::DatasetPreset;
use scalefbp_perfmodel::MachineParams;

struct Panel {
    title: &'static str,
    dataset: &'static str,
    /// Detector rebinning factor (coffee bean 2x halves the detector).
    rebin: bool,
    nr: usize,
    gpus: &'static [usize],
    /// The paper's measured seconds at the same GPU counts (from Fig 13).
    paper: &'static [f64],
}

pub fn run(_: &crate::Options) {
    let machine = MachineParams::abci_v100();
    let panels = [
        Panel {
            title: "13a coffee bean → 4096³ (N_r=16)",
            dataset: "coffee_bean",
            rebin: false,
            nr: 16,
            gpus: &[16, 32, 64, 128, 256, 512, 1024],
            paper: &[489.5, 268.8, 140.8, 75.7, 40.2, 22.7, 15.3],
        },
        Panel {
            title: "13b coffee bean 2x → 4096³ (N_r=8)",
            dataset: "coffee_bean",
            rebin: true,
            nr: 8,
            gpus: &[8, 16, 32, 64, 128, 256, 512, 1024],
            paper: &[631.7, 329.2, 181.7, 95.1, 49.2, 25.8, 14.5, 12.7],
        },
        Panel {
            title: "13c bumblebee → 4096³ (N_r=8)",
            dataset: "bumblebee",
            rebin: false,
            nr: 8,
            gpus: &[8, 16, 32, 64, 128, 256, 512, 1024],
            paper: &[430.0, 227.4, 130.2, 69.2, 35.5, 18.7, 13.7, 12.6],
        },
        Panel {
            title: "13d tomo_00029 → 4096³ (N_r=4)",
            dataset: "tomo_00029",
            rebin: false,
            nr: 4,
            gpus: &[4, 8, 16, 32, 64, 128, 256, 512, 1024],
            paper: &[384.6, 209.2, 120.8, 61.7, 32.3, 16.8, 13.2, 11.9, 11.5],
        },
    ];

    println!("Figure 13 — strong scaling, measured (DES) vs projected (Eq 17) vs paper\n");
    for p in panels {
        let mut geom = DatasetPreset::by_name(p.dataset)
            .unwrap()
            .geometry
            .with_volume(4096, 4096, 4096);
        if p.rebin {
            // The paper's "2x" rebinning: halve detector and projections.
            geom.nu /= 2;
            geom.nv /= 2;
            geom.du *= 2.0;
            geom.dv *= 2.0;
        }
        println!("--- {} ---", p.title);
        println!(
            "{:>6} {:>12} {:>13} {:>11} {:>9}",
            "GPUs", "measured(s)", "projected(s)", "paper(s)", "ratio"
        );
        let sweep = strong_scaling_sweep(&geom, p.nr, 8, p.gpus, &machine, ReduceMode::default());
        for (out, &paper) in sweep.iter().zip(p.paper) {
            println!(
                "{:>6} {:>12.1} {:>13.1} {:>11.1} {:>9.2}",
                out.gpus,
                out.measured_secs,
                out.projected_secs,
                paper,
                out.measured_secs / paper
            );
        }
        let first = &sweep[0];
        let last = sweep.last().unwrap();
        let ours = first.measured_secs / last.measured_secs;
        let paper_speedup = p.paper[0] / p.paper[p.paper.len() - 1];
        println!(
            "speedup {}→{} GPUs: ours {:.1}× vs paper {:.1}×\n",
            first.gpus, last.gpus, ours, paper_speedup
        );
    }
}
