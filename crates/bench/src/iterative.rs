//! `iterative` — the distributed SIRT/MLEM conformance sweep, written to
//! `BENCH_iterative.json` (no wall-clock fields, hence byte-reproducible).
//! See `docs/iterative.md`.

use scalefbp::substrates::geom::{CbctGeometry, Volume};
use scalefbp::substrates::iterative::{Mlem, RayMarchConfig, Sirt};
use scalefbp::substrates::mpisim::segment_partition;
use scalefbp::substrates::phantom::{forward_project, uniform_ball};
use scalefbp::{iterative_reconstruct_distributed, IterativeConfig, IterativeSolver, ReduceMode};
use scalefbp_bench::{json_record, write_json, JsonValue};
use scalefbp_integration::testsupport::assert_bitwise;

json_record! {
    struct SolverGolden {
        solver: &'static str,
        serial_residuals: Vec<f64>,
    }

    /// One cell of the iterative conformance sweep: a (solver, ranks,
    /// reduce-mode) run compared bitwise against the serial solver.
    struct IterativeCell {
        solver: &'static str,
        ranks: usize,
        mode: &'static str,
        /// Both verdicts were asserted before the cell was recorded, so they
        /// are `true` in any file that exists.
        bitwise_identical: bool,
        residuals_match: bool,
        network_bytes: u64,
        network_messages: u64,
        /// Worst per-rank segmented-merge traffic per iteration (chain
        /// through-traffic + finished owner segments, bytes); `None` for the
        /// dense/hierarchical cells.
        seg_recv_per_iter_max_bytes: Option<u64>,
        /// The model bound on that quantity: 4·(n + max segment) bytes.
        seg_recv_bound_bytes: Option<u64>,
    }
}

/// Every (solver, ranks, reduce-mode) cell must reproduce the
/// serial solver's iterate and residual history bit-for-bit, and the
/// segmented cells must keep their worst per-rank merge traffic inside
/// the `4·(n + max segment)` chain model — all asserted in-process
/// before `BENCH_iterative.json` is written. The JSON carries no
/// wall-clock fields, so back-to-back runs are byte-identical.
pub fn run(opts: &crate::Options) {
    let quick = opts.quick;
    let (geom, iters) = if quick {
        (CbctGeometry::ideal(12, 8, 20, 18), 3)
    } else {
        (CbctGeometry::ideal(16, 12, 28, 24), 5)
    };
    let b = forward_project(&geom, &uniform_ball(&geom, 0.55, 1.0));
    let march = RayMarchConfig::default();
    let n_vox = geom.nx * geom.ny * geom.nz;
    let slice_len = geom.nx * geom.ny;

    // Golden serial runs, once per solver.
    let mut sirt = Sirt::new(&geom, march, 1.0);
    let sirt_hist = sirt.run(&b, iters);
    let mut mlem = Mlem::new(&geom, march);
    let mlem_hist = mlem.run(&b, iters);
    let goldens: Vec<(&'static str, IterativeSolver, &Volume, &[f64])> = vec![
        (
            "sirt",
            IterativeSolver::Sirt { relaxation: 1.0 },
            sirt.estimate(),
            &sirt_hist,
        ),
        ("mlem", IterativeSolver::Mlem, mlem.estimate(), &mlem_hist),
    ];

    let rank_counts: &[usize] = &[1, 2, 4];
    let modes = [
        ("dense", ReduceMode::Dense),
        ("hierarchical", ReduceMode::Hierarchical),
        ("segmented", ReduceMode::Segmented),
    ];
    let mut cells = Vec::new();
    for (name, kind, golden, hist) in &goldens {
        let mut prev_seg_max: Option<u64> = None;
        for &ranks in rank_counts {
            for (mode_name, mode) in modes {
                let mut cfg = IterativeConfig::new(*kind, iters);
                cfg.ranks = ranks;
                cfg.reduce_mode = mode;
                let out = iterative_reconstruct_distributed(&geom, &b, &cfg)
                    .expect("distributed iterative run");
                assert_bitwise(
                    golden,
                    &out.volume,
                    &format!("{name} p={ranks} {mode_name}"),
                );
                assert_eq!(
                    hist.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                    out.residuals
                        .iter()
                        .map(|r| r.to_bits())
                        .collect::<Vec<_>>(),
                    "{name} p={ranks} {mode_name}: residual history diverged"
                );
                let (seg_max, seg_bound) = if mode == ReduceMode::Segmented {
                    let max_seg = segment_partition(geom.nz, ranks)
                        .iter()
                        .map(|r| r.len() * slice_len)
                        .max()
                        .unwrap_or(0);
                    let rank_bytes = |ctr: &str| {
                        (0..ranks)
                            .map(|r| out.metrics.counter(ctr, Some(r)).unwrap_or(0))
                            .max()
                            .unwrap_or(0)
                            / iters as u64
                    };
                    let chain_max = rank_bytes("mpisim.segreduce.chain.bytes");
                    let owner_max = rank_bytes("mpisim.segreduce.owner.bytes");
                    let per_iter_max = chain_max + owner_max;
                    let bound = 4 * (n_vox + max_seg) as u64;
                    assert!(
                        per_iter_max <= bound,
                        "{name} p={ranks}: segmented per-rank merge traffic \
                         {per_iter_max} B/iter exceeds the chain model bound {bound} B"
                    );
                    // The finished-segment traffic (the paper's Nz/p
                    // quantity) must not grow as ranks are added; the
                    // chain through-traffic stays O(n), constant in p —
                    // unlike the dense root's (p−1)·n ingress. (p=1
                    // merges locally and is no baseline: 0 bytes.)
                    if ranks > 1 {
                        if let Some(prev) = prev_seg_max {
                            assert!(
                                owner_max <= prev,
                                "{name}: segmented owner-segment traffic grew with \
                                 ranks ({prev} → {owner_max} B/iter at p={ranks})"
                            );
                        }
                        prev_seg_max = Some(owner_max);
                    }
                    (Some(per_iter_max), Some(bound))
                } else {
                    (None, None)
                };
                eprintln!(
                    "  {name} p={ranks} {mode_name}: bitwise OK, {:.2} MB network{}",
                    out.network.bytes as f64 / 1e6,
                    seg_max
                        .map(|m| format!(", seg merge ≤ {:.1} KB/rank/iter", m as f64 / 1e3))
                        .unwrap_or_default()
                );
                cells.push(IterativeCell {
                    solver: name,
                    ranks,
                    mode: mode_name,
                    bitwise_identical: true,
                    residuals_match: true,
                    network_bytes: out.network.bytes,
                    network_messages: out.network.messages,
                    seg_recv_per_iter_max_bytes: seg_max,
                    seg_recv_bound_bytes: seg_bound,
                });
            }
        }
    }

    // Convergence sanity on the goldens themselves.
    assert!(
        sirt_hist.windows(2).all(|w| w[1] <= w[0] * 1.001),
        "SIRT residual history not non-increasing: {sirt_hist:?}"
    );

    let solvers: Vec<_> = goldens
        .iter()
        .map(|(name, _, _, hist)| SolverGolden {
            solver: name,
            serial_residuals: hist.to_vec(),
        })
        .collect();
    let doc = JsonValue::object([
        ("benchmark", "iterative".into()),
        ("quick", quick.into()),
        ("nx", geom.nx.into()),
        ("ny", geom.ny.into()),
        ("nz", geom.nz.into()),
        ("np", geom.np.into()),
        ("nu", geom.nu.into()),
        ("nv", geom.nv.into()),
        ("iterations", iters.into()),
        ("solvers", solvers.into()),
        ("cells", cells.clone().into()),
    ]);
    write_json(&opts.out_dir, "BENCH_iterative.json", &doc);
    println!(
        "iterative: {} conformance cells ({} solvers × {:?} ranks × 3 modes), all bitwise identical",
        cells.len(),
        goldens.len(),
        rank_counts
    );
}
