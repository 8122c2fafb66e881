//! Golden-trace suite for the observability layer: the Chrome-trace and
//! metrics exports are pure functions of the inputs — a fixed phantom
//! plus a fixed `--fault-seed` must serialise to the *same bytes* on
//! every run, no matter how the OS schedules the pipeline threads. Most
//! goldens here are self-relative (run twice, diff); the two golden CLI
//! runs are also pinned by FNV-1a fingerprints of their exported bytes.

use std::path::{Path, PathBuf};

use scalefbp::substrates::phantom::{forward_project, uniform_ball};
use scalefbp::{
    fault_tolerant_reconstruct, CbctGeometry, FdkConfig, OutOfCoreReconstructor, RankLayout,
    Schedule, StreamRun,
};
use scalefbp_cli::run;
use scalefbp_faults::FaultPlan;
use scalefbp_integration::testsupport::assert_snapshots_match;
use scalefbp_iosim::StorageEndpoint;
use scalefbp_obs::{parse_json, validate_chrome_trace, validate_metrics_json, JsonValue};

/// Serialises the tests that spawn rank worlds: failure detection is
/// timeout-based, so a machine saturated by a sibling test could turn a
/// live rank into a spurious "dead" verdict.
static WORLD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("scalefbp-obs-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn call(tokens: &[&str]) -> String {
    run(tokens.iter().map(|s| s.to_string())).expect("CLI call failed")
}

/// The golden scan: `simulate --ideal 16` (the uniform ball) in `dir`.
fn golden_scan(dir: &Path) -> PathBuf {
    let scan = dir.join("scan.sfbp");
    call(&["simulate", "--ideal", "16", "--out", scan.to_str().unwrap()]);
    scan
}

/// One `reconstruct` of the golden scan through the CLI with `extra`
/// flags; returns the exported (trace, metrics, volume) bytes.
fn golden_run(dir: &Path, tag: &str, extra: &[&str]) -> (String, String, Vec<u8>) {
    let scan = golden_scan(dir);
    let [trace, metrics, volume] =
        ["trace.json", "metrics.json", "sfbp"].map(|ext| dir.join(format!("{tag}.{ext}")));
    let outs = [
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        metrics.to_str().unwrap(),
        "--out",
        volume.to_str().unwrap(),
    ];
    call(
        &[
            &["reconstruct", "--scan", scan.to_str().unwrap()],
            &outs[..],
            extra,
        ]
        .concat(),
    );
    (
        std::fs::read_to_string(&trace).unwrap(),
        std::fs::read_to_string(&metrics).unwrap(),
        std::fs::read(&volume).unwrap(),
    )
}

/// The golden pipelined run: `--fault-seed 11`, so the modelled NVMe
/// endpoint is attached and its `io.*` rows are exported.
fn golden_pipeline_exports(dir: &Path, tag: &str) -> (String, String, Vec<u8>) {
    golden_run(dir, tag, &["--mode", "pipeline", "--fault-seed", "11"])
}

/// The golden distributed run: a 2×2 world under `--fault-seed 5`.
fn golden_distributed_exports(dir: &Path, tag: &str) -> (String, String, Vec<u8>) {
    let flags = ["--nr", "2", "--ng", "2", "--fault-seed", "5"];
    golden_run(dir, tag, &[&["--mode", "distributed"], &flags[..]].concat())
}

/// FNV-1a over bytes: the compact fingerprint the golden exports are
/// pinned with.
fn fnv(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h: u32, &b| {
        (h ^ b as u32).wrapping_mul(0x0100_0193)
    })
}

/// The tentpole acceptance test: two seeded CLI runs export
/// byte-identical trace and metrics documents.
#[test]
fn golden_trace_is_byte_identical_across_runs() {
    let dir = tmpdir("golden");
    let (trace_a, metrics_a, _) = golden_pipeline_exports(&dir, "a");
    let (trace_b, metrics_b, _) = golden_pipeline_exports(&dir, "b");
    assert_eq!(trace_a, trace_b, "chrome trace must be byte-identical");
    assert_eq!(
        metrics_a, metrics_b,
        "metrics snapshot must be byte-identical"
    );

    let summary = validate_chrome_trace(&trace_a).unwrap();
    assert!(summary.spans > 0, "expected stage spans, got {summary:?}");
    let n = validate_metrics_json(&metrics_a).unwrap();
    assert!(n > 0, "expected metrics entries");
}

/// Structural invariants of the exported trace, checked on the raw JSON
/// rather than through the validator: every span/instant carries numeric
/// pid/tid/ts (spans also dur), and spans on one tid never overlap.
#[test]
fn golden_trace_json_structure() {
    let dir = tmpdir("structure");
    let (trace, _, _) = golden_pipeline_exports(&dir, "s");
    let doc = parse_json(&trace).unwrap();
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut per_tid_spans: std::collections::BTreeMap<(u64, u64), Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(JsonValue::as_str).expect("ph");
        let num = |k: &str| e.get(k).and_then(JsonValue::as_u64);
        match ph {
            "X" => {
                let (pid, tid) = (num("pid").unwrap(), num("tid").unwrap());
                let (ts, dur) = (num("ts").unwrap(), num("dur").unwrap());
                per_tid_spans.entry((pid, tid)).or_default().push((ts, dur));
            }
            "i" => {
                assert!(num("pid").is_some() && num("tid").is_some() && num("ts").is_some());
            }
            "M" => {
                assert!(num("pid").is_some(), "metadata without pid");
            }
            other => panic!("unexpected ph {other:?}"),
        }
    }
    // The four pipeline stages each contribute a track of spans.
    assert!(per_tid_spans.len() >= 4, "tracks: {per_tid_spans:?}");
    for (track, mut spans) in per_tid_spans {
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                w[1].0 >= w[0].0 + w[0].1,
                "overlap on track {track:?}: {w:?}"
            );
        }
    }
}

/// The snapshot's counters agree with the substrate reports: H2D/D2H
/// traffic from the device counters, read bytes from the storage
/// counters, and the batch count from the plan.
#[test]
fn metrics_snapshot_matches_substrate_reports() {
    let g = CbctGeometry::ideal(16, 24, 24, 24);
    let p = forward_project(&g, &uniform_ball(&g, 0.55, 1.0));
    let rec = OutOfCoreReconstructor::new(FdkConfig::new(g.clone())).unwrap();
    let storage = StorageEndpoint::new("pfs", 2.0e9, 1.0e9, None);
    let (_, report) = rec
        .reconstruct(
            &p,
            StreamRun {
                storage: Some(&storage),
                ..Schedule::Overlapped.into()
            },
        )
        .unwrap();

    let m = &report.metrics;
    assert_eq!(
        m.counter("gpu.h2d.bytes", Some(0)),
        Some(report.device.h2d_bytes)
    );
    assert_eq!(
        m.counter("gpu.d2h.bytes", Some(0)),
        Some(report.device.d2h_bytes)
    );
    assert_eq!(
        m.counter("gpu.kernel.updates", Some(0)),
        Some(report.device.kernel_updates)
    );
    assert_eq!(
        m.counter("io.pfs.read.bytes", None),
        Some(storage.counters().read_bytes)
    );
    let batches = g.nz.div_ceil(rec.nb()) as u64;
    assert_eq!(m.counter("pipeline.batches", Some(0)), Some(batches));
    // Every trace span also appears in the export.
    let summary = validate_chrome_trace(&report.model_trace.to_chrome_trace()).unwrap();
    assert_eq!(summary.spans as u64, 4 * batches);
}

/// Distributed runs ship one mergeable snapshot: folding the per-rank
/// views (plus unranked entries) reproduces the global snapshot exactly,
/// and rank-aggregated traffic equals the world's NetworkStats.
#[test]
fn distributed_snapshot_equals_merge_of_rank_views() {
    let _serial = WORLD_LOCK.lock().unwrap();
    let g = CbctGeometry::ideal(16, 16, 24, 20);
    let p = forward_project(&g, &uniform_ball(&g, 0.5, 1.0));
    let layout = RankLayout::new(2, 2, 2);
    let out = fault_tolerant_reconstruct(
        &FdkConfig::new(g).with_nc(2),
        layout,
        &p,
        &FaultPlan::none(),
        None,
    )
    .unwrap();

    let global = &out.metrics;
    let merged = global
        .ranks()
        .iter()
        .map(|&r| global.rank_view(r))
        .fold(global.unranked_view(), |acc, v| acc.merge(&v));
    assert_snapshots_match(global, &merged, &[], "rank-view merge");
    assert_eq!(
        merged.aggregate().counter("mpi.send.bytes", None),
        Some(out.network.bytes)
    );
    assert_eq!(
        merged.aggregate().counter("mpi.send.messages", None),
        Some(out.network.messages)
    );
}

/// A seeded *distributed* CLI run also exports deterministically — the
/// recovery instants land at canonical indices, not wall-clock times.
#[test]
fn distributed_cli_export_is_deterministic_under_faults() {
    let _serial = WORLD_LOCK.lock().unwrap();
    let dir = tmpdir("dist");
    let (a, _, _) = golden_distributed_exports(&dir, "a");
    let (b, _, _) = golden_distributed_exports(&dir, "b");
    assert_eq!(a, b, "recovery timeline must not depend on wall clock");
    validate_chrome_trace(&a).unwrap();
}

/// The golden runs' trace, metrics and volume bytes, pinned:
/// `reconstruct --mode` must keep writing these exact bytes. The
/// pipeline's metrics include the device peak of its working set (ring,
/// matrix table and one slab), the same bytes `--mode outofcore` charges.
#[test]
fn golden_exports_match_their_pinned_fingerprints() {
    let _serial = WORLD_LOCK.lock().unwrap();
    let dir = tmpdir("pins");
    let fingerprints = |(trace, metrics, volume): (String, String, Vec<u8>)| {
        [fnv(trace.as_bytes()), fnv(metrics.as_bytes()), fnv(&volume)]
    };
    assert_eq!(
        fingerprints(golden_pipeline_exports(&dir, "pipeline")),
        [0x65db_f675, 0xc61a_79c6, 0x17da_cdbe],
        "pipeline [trace, metrics, volume]"
    );
    assert_eq!(
        fingerprints(golden_distributed_exports(&dir, "distributed")),
        [0x80fb_8b7c, 0x29f7_3ef8, 0x6e98_d7cf],
        "distributed [trace, metrics, volume]"
    );
}
