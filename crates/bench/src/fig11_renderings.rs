//! Regenerates the **Figure 11 analogue**: reconstructions of the
//! coffee-bean and bumblebee workloads rendered for visual inspection
//! (axial slices + maximum-intensity projections in place of the paper's
//! 3-D Slicer screenshots of the proprietary scans).
//!
//! ```text
//! cargo run --release -p scalefbp-bench -- fig11_renderings
//! ```

use scalefbp::{fdk_reconstruct_configured, FdkConfig, FilterWindow};
use scalefbp_geom::DatasetPreset;
use scalefbp_iosim::format::{mip_to_pgm, slice_to_pgm};
use scalefbp_phantom::{bumblebee_like, coffee_bean_like, forward_project, rasterize};

type SceneBuilder = fn(&scalefbp_geom::CbctGeometry) -> scalefbp_phantom::Phantom;

pub fn run(_: &crate::Options) {
    println!("Figure 11 analogue — dataset-shaped reconstructions for visual inspection\n");
    let scenes: [(&str, SceneBuilder); 2] = [
        ("coffee_bean", coffee_bean_like),
        ("bumblebee", bumblebee_like),
    ];
    for (name, build) in scenes {
        let geom = DatasetPreset::by_name(name).unwrap().scaled(5).geometry;
        let phantom = build(&geom);
        let projections = forward_project(&geom, &phantom);
        let vol = fdk_reconstruct_configured(
            &FdkConfig::new(geom.clone()).with_window(FilterWindow::SheppLogan),
            &projections,
            None,
        )
        .expect("reconstruction");

        let truth = rasterize(&geom, &phantom);
        println!(
            "{name}: {}³ reconstruction, RMSE vs analytic scene {:.4}",
            geom.nx,
            vol.rmse(&truth)
        );
        std::fs::write(
            format!("fig11_{name}_axial.pgm"),
            slice_to_pgm(&vol, geom.nz / 2),
        )
        .unwrap();
        std::fs::write(format!("fig11_{name}_mip.pgm"), mip_to_pgm(&vol, 1)).unwrap();
        println!("  wrote fig11_{name}_axial.pgm and fig11_{name}_mip.pgm");
    }
    println!("\n(the paper's Figure 11 renders the proprietary scans; these are the");
    println!("substituted analytic scenes through the same Table 4 geometries)");
}
