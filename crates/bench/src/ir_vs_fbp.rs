//! The paper's motivating comparison, made executable: FBP vs iterative
//! reconstruction (the IR rows of Table 2).
//!
//! ```text
//! cargo run --release -p scalefbp-bench -- ir_vs_fbp
//! ```
//!
//! Section 1 of the paper: "FBP is commonly regarded as the standard image
//! reconstruction for most of the production CT systems" — because one
//! filtered back-projection pass costs roughly what a *single* SIRT/MLEM
//! iteration costs, and IR needs tens of iterations. This harness measures
//! exactly that on the shared substrate.

use std::time::Instant;

use scalefbp::fdk_reconstruct;
use scalefbp_geom::CbctGeometry;
use scalefbp_iterative::{Mlem, RayMarchConfig, Sirt};
use scalefbp_phantom::{forward_project, rasterize, uniform_ball};

pub fn run(_: &crate::Options) {
    let g = CbctGeometry::ideal(32, 40, 56, 48);
    let ball = uniform_ball(&g, 0.55, 1.0);
    let b = forward_project(&g, &ball);
    let truth = rasterize(&g, &ball);
    println!(
        "workload: {}³ volume from {}×{}×{} projections\n",
        g.nx, g.nu, g.nv, g.np
    );

    // FBP: one pass.
    let t0 = Instant::now();
    let fbp = fdk_reconstruct(&g, &b).expect("FBP failed");
    let t_fbp = t0.elapsed().as_secs_f64();
    let e_fbp = fbp.rmse(&truth);
    println!(
        "{:>22} {:>10} {:>12} {:>12}",
        "method", "iters", "wall (s)", "RMSE"
    );
    println!(
        "{:>22} {:>10} {:>12.3} {:>12.4}",
        "FBP (ours)", 1, t_fbp, e_fbp
    );

    // SIRT sweep.
    let mut sirt = Sirt::new(&g, RayMarchConfig::default(), 1.0);
    let t0 = Instant::now();
    let mut t_at = Vec::new();
    for iters in [5usize, 10, 20, 40] {
        while sirt.iterations() < iters {
            sirt.step(&b);
        }
        t_at.push((
            iters,
            t0.elapsed().as_secs_f64(),
            sirt.estimate().rmse(&truth),
        ));
    }
    for (iters, t, e) in &t_at {
        println!("{:>22} {:>10} {:>12.3} {:>12.4}", "SIRT", iters, t, e);
    }

    // MLEM sweep.
    let mut mlem = Mlem::new(&g, RayMarchConfig::default());
    let t0 = Instant::now();
    let mut m_at = Vec::new();
    for iters in [5usize, 10, 20] {
        while mlem.iterations() < iters {
            mlem.step(&b);
        }
        m_at.push((
            iters,
            t0.elapsed().as_secs_f64(),
            mlem.estimate().rmse(&truth),
        ));
    }
    for (iters, t, e) in &m_at {
        println!("{:>22} {:>10} {:>12.3} {:>12.4}", "MLEM", iters, t, e);
    }

    let (it, t_sirt, e_sirt) = t_at.last().unwrap();
    println!(
        "\nFBP reached RMSE {e_fbp:.4} in {t_fbp:.2} s; SIRT needed {it} iterations and \
         {t_sirt:.2} s for RMSE {e_sirt:.4} — {:.0}× the wall time.",
        t_sirt / t_fbp
    );
    println!("This is the production-CT argument the paper builds on (Section 1, [45]).");
}
