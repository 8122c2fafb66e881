//! The clinical CBCT workload: a tomobank-style scan streamed through an
//! undersized device, with two Figure-10-style timelines: the slab loop's
//! stages on the wall clock, and Figure 9's pipeline replayed on model
//! time.
//!
//! ```text
//! cargo run --release -p scalefbp --example clinical_cbct_outofcore
//! ```

use scalefbp::{DeviceSpec, FdkConfig, FilterWindow, OutOfCoreReconstructor, Schedule};
use scalefbp_geom::DatasetPreset;
use scalefbp_iosim::format::slice_to_pgm;
use scalefbp_phantom::{bead_pile, forward_project};

fn main() {
    // tomo_00030's geometry (Dsd=350, Dso=250, σ_u=−10 px of Table 4),
    // scaled 4× down; a granular bead-pile phantom stands in for the
    // scanned specimen.
    let preset = DatasetPreset::by_name("tomo_00030").unwrap().scaled(2);
    let geom = preset.geometry.clone();
    println!(
        "dataset: {} — detector {}×{}, {} projections, output {}³, σ_u={}",
        preset.name, geom.nu, geom.nv, geom.np, geom.nx, geom.sigma_u
    );

    let specimen = bead_pile(&geom, 40, 2021);
    let projections = forward_project(&geom, &specimen);
    println!(
        "simulated scan: {:.1} MB of projections",
        projections.len() as f64 * 4.0 / 1e6
    );

    // An undersized device forces genuine streaming.
    let budget = ((geom.projection_bytes() + geom.volume_bytes()) / 4) as u64;
    let config = FdkConfig::new(geom.clone())
        .with_window(FilterWindow::Hamming)
        .with_device(DeviceSpec::tiny(budget));
    let rec = OutOfCoreReconstructor::new(config).expect("planning failed");
    println!("pipeline plan: N_b = {} slices/batch", rec.nb());

    let (volume, report) = rec
        .reconstruct(&projections, Schedule::Overlapped)
        .expect("reconstruction failed");

    println!("\nwall-clock stage spans (load → filter → bp → store, back to back):");
    print!("{}", report.trace.render_ascii(72));
    println!("\nwall {:.2} s", report.trace.makespan());
    for stage in report.trace.stages() {
        println!(
            "  {:>6}: busy {:.2} s",
            stage,
            report.trace.stage_busy(&stage)
        );
    }
    println!("\nFigure 9's pipeline replayed on model time:");
    print!("{}", report.model_trace.render_ascii(72));
    println!(
        "modelled overlap efficiency {:.0}% (1.0 = bottleneck fully hides the rest)",
        report.model_trace.overlap_efficiency() * 100.0
    );

    let pgm = slice_to_pgm(&volume, geom.nz / 2);
    std::fs::write("clinical_slice.pgm", pgm).expect("write PGM");
    println!("\nwrote clinical_slice.pgm");
}
