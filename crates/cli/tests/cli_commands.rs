//! End-to-end CLI tests: simulate → info → reconstruct → slice → model,
//! all through the library entry point with real files.

use std::path::PathBuf;

use scalefbp_cli::{run, CliError};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("scalefbp-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn call(tokens: &[&str]) -> Result<String, CliError> {
    run(tokens.iter().map(|s| s.to_string()))
}

#[test]
fn simulate_info_reconstruct_slice_roundtrip() {
    let dir = tmpdir("roundtrip");
    let scan = dir.join("scan.sfbp");
    let vol = dir.join("vol.sfbp");
    let pgm = dir.join("slice.pgm");

    let out = call(&[
        "simulate",
        "--preset",
        "tomo_00030",
        "--scale",
        "4",
        "--phantom",
        "ball",
        "--out",
        scan.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("simulated `ball` scan"));
    assert!(scan.exists());

    let out = call(&["info", "--file", scan.to_str().unwrap()]).unwrap();
    assert!(out.contains("projection stack"), "{out}");

    let out = call(&[
        "reconstruct",
        "--scan",
        scan.to_str().unwrap(),
        "--out",
        vol.to_str().unwrap(),
        "--window",
        "hann",
    ])
    .unwrap();
    assert!(out.contains("in-core"), "{out}");

    let out = call(&["info", "--file", vol.to_str().unwrap()]).unwrap();
    assert!(out.contains("volume"), "{out}");

    let out = call(&[
        "slice",
        "--volume",
        vol.to_str().unwrap(),
        "--out",
        pgm.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("wrote slice"), "{out}");
    let pgm_bytes = std::fs::read(&pgm).unwrap();
    assert!(pgm_bytes.starts_with(b"P5\n"));
}

#[test]
fn outofcore_and_pipeline_modes_match_incore() {
    let dir = tmpdir("modes");
    let scan = dir.join("scan.sfbp");
    call(&["simulate", "--ideal", "24", "--out", scan.to_str().unwrap()]).unwrap();

    let mut volumes = Vec::new();
    for (mode, tag) in [("incore", "a"), ("outofcore", "b"), ("pipeline", "c")] {
        let vol = dir.join(format!("vol_{tag}.sfbp"));
        let out = call(&[
            "reconstruct",
            "--scan",
            scan.to_str().unwrap(),
            "--out",
            vol.to_str().unwrap(),
            "--mode",
            mode,
            "--device",
            "tiny:2000000",
        ])
        .unwrap();
        assert!(out.contains("reconstructed"), "{mode}: {out}");
        volumes.push(std::fs::read(&vol).unwrap());
    }
    assert_eq!(volumes[0], volumes[1], "out-of-core differs from in-core");
    assert_eq!(volumes[0], volumes[2], "pipeline differs from in-core");
}

#[test]
fn kernel_flag_matches_default_bitwise() {
    let dir = tmpdir("kernel-flag");
    let scan = dir.join("scan.sfbp");
    call(&["simulate", "--ideal", "24", "--out", scan.to_str().unwrap()]).unwrap();
    let reconstruct = |vol: &std::path::Path, extra: &[&str]| {
        let mut tokens = vec![
            "reconstruct",
            "--scan",
            scan.to_str().unwrap(),
            "--out",
            vol.to_str().unwrap(),
        ];
        tokens.extend_from_slice(extra);
        call(&tokens)
    };

    // No flag runs the default kernel (simd), which is the oracle's bits.
    let vol = dir.join("vol_default.sfbp");
    let out = reconstruct(&vol, &[]).unwrap();
    assert!(out.contains("simd kernel"), "{out}");
    let default = std::fs::read(&vol).unwrap();
    for kernel in ["simd", "reference"] {
        let vol = dir.join(format!("vol_{kernel}.sfbp"));
        let out = reconstruct(&vol, &["--kernel", kernel]).unwrap();
        assert!(out.contains(&format!("{kernel} kernel")), "{kernel}: {out}");
        assert_eq!(
            default,
            std::fs::read(&vol).unwrap(),
            "--kernel {kernel} differs from the default"
        );
    }

    // Removed and unknown names are rejected with the candidate list.
    for kernel in ["parallel", "blocked", "incremental", "warp", "simd-batched"] {
        let err = format!("{:?}", reconstruct(&vol, &["--kernel", kernel]));
        assert!(err.contains("unknown kernel"), "{kernel}: {err}");
        assert!(err.contains("(expected reference|simd)"), "{err}");
    }
    // The filter strategy is no longer selectable.
    let err = reconstruct(&vol, &["--filter-mode", "two-pass"]).unwrap_err();
    assert!(err.to_string().contains("unknown option(s)"), "{err}");
}

#[test]
fn reduce_mode_flag_accepts_all_modes_and_keeps_the_default() {
    let dir = tmpdir("reduce-mode");
    let scan = dir.join("scan.sfbp");
    call(&["simulate", "--ideal", "16", "--out", scan.to_str().unwrap()]).unwrap();

    // All three modes run and report themselves; the fault-tolerant
    // driver's fixed-order leader fold makes every volume bit-identical.
    let mut volumes = Vec::new();
    for mode in ["dense", "hierarchical", "segmented"] {
        let vol = dir.join(format!("vol_{mode}.sfbp"));
        let out = call(&[
            "reconstruct",
            "--scan",
            scan.to_str().unwrap(),
            "--out",
            vol.to_str().unwrap(),
            "--mode",
            "distributed",
            "--nr",
            "2",
            "--ng",
            "2",
            "--reduce-mode",
            mode,
        ])
        .unwrap();
        assert!(out.contains(&format!("{mode} reduce")), "{mode}: {out}");
        volumes.push(std::fs::read(&vol).unwrap());
    }
    assert_eq!(volumes[0], volumes[1], "dense differs from hierarchical");
    assert_eq!(
        volumes[1], volumes[2],
        "hierarchical differs from segmented"
    );

    // No flag ⇒ hierarchical, byte-identical output (the pre-PR default).
    let vol = dir.join("vol_default.sfbp");
    let out = call(&[
        "reconstruct",
        "--scan",
        scan.to_str().unwrap(),
        "--out",
        vol.to_str().unwrap(),
        "--mode",
        "distributed",
        "--nr",
        "2",
        "--ng",
        "2",
    ])
    .unwrap();
    assert!(out.contains("hierarchical reduce"), "{out}");
    assert_eq!(
        std::fs::read(&vol).unwrap(),
        volumes[1],
        "default differs from explicit hierarchical"
    );

    // Unknown names are rejected with the candidate list.
    let err = call(&[
        "reconstruct",
        "--scan",
        scan.to_str().unwrap(),
        "--out",
        vol.to_str().unwrap(),
        "--mode",
        "distributed",
        "--reduce-mode",
        "ring",
    ]);
    assert!(
        format!("{err:?}").contains("unknown reduce mode"),
        "{err:?}"
    );
}

#[test]
fn slab_roi_reconstruction() {
    let dir = tmpdir("slab");
    let scan = dir.join("scan.sfbp");
    call(&["simulate", "--ideal", "24", "--out", scan.to_str().unwrap()]).unwrap();
    let vol = dir.join("roi.sfbp");
    let out = call(&[
        "reconstruct",
        "--scan",
        scan.to_str().unwrap(),
        "--out",
        vol.to_str().unwrap(),
        "--slab",
        "4:10",
    ])
    .unwrap();
    assert!(out.contains("ROI slab [4, 10)"), "{out}");
    let info = call(&["info", "--file", vol.to_str().unwrap()]).unwrap();
    assert!(info.contains("z_offset=4"), "{info}");
}

#[test]
fn mip_export() {
    let dir = tmpdir("mip");
    let scan = dir.join("scan.sfbp");
    let vol = dir.join("vol.sfbp");
    call(&["simulate", "--ideal", "16", "--out", scan.to_str().unwrap()]).unwrap();
    call(&[
        "reconstruct",
        "--scan",
        scan.to_str().unwrap(),
        "--out",
        vol.to_str().unwrap(),
    ])
    .unwrap();
    let pgm = dir.join("mip.pgm");
    let out = call(&[
        "slice",
        "--volume",
        vol.to_str().unwrap(),
        "--mip",
        "z",
        "--out",
        pgm.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("maximum-intensity"), "{out}");
    assert!(std::fs::read(&pgm).unwrap().starts_with(b"P5\n"));
    // Bad axis is rejected.
    assert!(call(&[
        "slice",
        "--volume",
        vol.to_str().unwrap(),
        "--mip",
        "w",
        "--out",
        pgm.to_str().unwrap(),
    ])
    .is_err());
}

#[test]
fn simulate_with_noise_flag() {
    let dir = tmpdir("noise");
    let scan = dir.join("scan.sfbp");
    let out = call(&[
        "simulate",
        "--ideal",
        "16",
        "--noise",
        "--dark",
        "50",
        "--blank",
        "40000",
        "--out",
        scan.to_str().unwrap(),
    ])
    .unwrap();
    assert!(out.contains("photon noise"), "{out}");
}

#[test]
fn model_command_projects_runtimes() {
    let out = call(&[
        "model",
        "--preset",
        "bumblebee",
        "--gpus",
        "128",
        "--nr",
        "8",
    ])
    .unwrap();
    assert!(out.contains("projected (Eq 17)"), "{out}");
    assert!(out.contains("GUPS"), "{out}");
}

/// The three observed modes export a valid trace + snapshot through
/// `--trace-out` / `--metrics-out`, and `trace-validate` accepts them.
#[test]
fn observability_flags_on_all_reconstruct_modes() {
    let dir = tmpdir("obsflags");
    let scan = dir.join("scan.sfbp");
    call(&["simulate", "--ideal", "24", "--out", scan.to_str().unwrap()]).unwrap();

    for (mode, extra) in [
        ("outofcore", vec!["--device", "tiny:2000000"]),
        ("pipeline", vec!["--fault-seed", "7"]),
        ("distributed", vec!["--nr", "2", "--ng", "2"]),
    ] {
        let vol = dir.join(format!("vol_{mode}.sfbp"));
        let trace = dir.join(format!("trace_{mode}.json"));
        let metrics = dir.join(format!("metrics_{mode}.json"));
        let mut tokens = vec![
            "reconstruct",
            "--scan",
            scan.to_str().unwrap(),
            "--out",
            vol.to_str().unwrap(),
            "--mode",
            mode,
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--stats",
        ];
        tokens.extend(extra);
        let out = call(&tokens).unwrap();
        assert!(out.contains("chrome trace →"), "{mode}: {out}");
        assert!(out.contains("metrics snapshot →"), "{mode}: {out}");

        let validated = call(&[
            "trace-validate",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ])
        .unwrap();
        assert!(
            validated.contains("valid chrome trace"),
            "{mode}: {validated}"
        );
        assert!(
            validated.contains("valid metrics snapshot"),
            "{mode}: {validated}"
        );
    }
}

/// An unwritable export path is a loud error, not a silent skip.
#[test]
fn unwritable_trace_path_is_an_error() {
    let (dir, scan) = ideal_scan("unwritable", "16");
    let vol = dir.join("vol.sfbp");
    let pipeline = [
        "reconstruct",
        "--scan",
        &scan,
        "--out",
        vol.to_str().unwrap(),
        "--mode",
        "pipeline",
    ];
    let trace = dir.join("no/such/dir/trace.json");
    let r = call(&[&pipeline[..], &["--trace-out", trace.to_str().unwrap()]].concat());
    match r {
        Err(CliError::Message(m)) => assert!(m.contains("--trace-out"), "{m}"),
        other => panic!("expected CliError::Message, got {other:?}"),
    }
    let metrics = dir.join("no/such/dir/metrics.json");
    let r = call(&[&pipeline[..], &["--metrics-out", metrics.to_str().unwrap()]].concat());
    assert!(r.is_err());
}

/// `trace-validate` rejects malformed documents.
#[test]
fn trace_validate_rejects_garbage() {
    let dir = tmpdir("badtrace");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, b"{\"traceEvents\": [{\"ph\": \"X\"}]}").unwrap();
    assert!(call(&["trace-validate", "--trace", bad.to_str().unwrap()]).is_err());
    std::fs::write(&bad, b"not json at all").unwrap();
    assert!(call(&["trace-validate", "--trace", bad.to_str().unwrap()]).is_err());
}

/// Checkpoint flags are validated up front: `--resume` /
/// `--checkpoint-every` need a directory, the directory needs a
/// checkpointable mode, and the interval must be ≥ 1.
#[test]
fn checkpoint_flag_validation() {
    let dir = tmpdir("ckptflags");
    let scan = dir.join("scan.sfbp");
    call(&["simulate", "--ideal", "16", "--out", scan.to_str().unwrap()]).unwrap();
    let vol = dir.join("vol.sfbp");
    let ck = dir.join("ck");

    let base = |extra: &[&str]| {
        let mut t = vec![
            "reconstruct",
            "--scan",
            scan.to_str().unwrap(),
            "--out",
            vol.to_str().unwrap(),
        ];
        t.extend_from_slice(extra);
        call(&t)
    };

    let err = base(&["--resume"]);
    assert!(format!("{err:?}").contains("--checkpoint-dir"), "{err:?}");
    let err = base(&["--checkpoint-every", "2"]);
    assert!(format!("{err:?}").contains("--checkpoint-dir"), "{err:?}");
    let err = base(&["--checkpoint-dir", ck.to_str().unwrap(), "--mode", "incore"]);
    assert!(
        format!("{err:?}").contains("needs --mode outofcore, pipeline or distributed"),
        "{err:?}"
    );
    let err = base(&[
        "--checkpoint-dir",
        ck.to_str().unwrap(),
        "--mode",
        "outofcore",
        "--checkpoint-every",
        "0",
    ]);
    assert!(
        format!("{err:?}").contains("bad --checkpoint-every"),
        "{err:?}"
    );
}

/// Both checkpointable modes write a manifest, produce output bitwise
/// identical to an uncheckpointed run, and `--resume` replays entirely
/// from the checkpoint with the same bytes.
#[test]
fn checkpointed_reconstruct_and_resume_are_bitwise() {
    let dir = tmpdir("ckptrun");
    let scan = dir.join("scan.sfbp");
    call(&["simulate", "--ideal", "16", "--out", scan.to_str().unwrap()]).unwrap();

    for (mode, extra) in [
        ("outofcore", vec!["--device", "tiny:2000000"]),
        ("pipeline", vec!["--device", "tiny:2000000"]),
        ("distributed", vec!["--nr", "2", "--ng", "2"]),
    ] {
        let golden = dir.join(format!("golden_{mode}.sfbp"));
        let mut tokens = vec![
            "reconstruct",
            "--scan",
            scan.to_str().unwrap(),
            "--out",
            golden.to_str().unwrap(),
            "--mode",
            mode,
        ];
        tokens.extend(&extra);
        call(&tokens).unwrap();
        let golden_bytes = std::fs::read(&golden).unwrap();

        let ck = dir.join(format!("ck_{mode}"));
        let vol = dir.join(format!("vol_{mode}.sfbp"));
        let mut tokens = vec![
            "reconstruct",
            "--scan",
            scan.to_str().unwrap(),
            "--out",
            vol.to_str().unwrap(),
            "--mode",
            mode,
            "--checkpoint-dir",
            ck.to_str().unwrap(),
            "--checkpoint-every",
            "2",
        ];
        tokens.extend(&extra);
        let out = call(&tokens).unwrap();
        assert!(out.contains("checkpointing every 2"), "{mode}: {out}");
        assert!(
            ck.join("MANIFEST.txt").exists(),
            "{mode}: no manifest written"
        );
        assert_eq!(
            std::fs::read(&vol).unwrap(),
            golden_bytes,
            "{mode}: checkpointed run differs from plain run"
        );

        tokens.push("--resume");
        let out = call(&tokens).unwrap();
        assert!(out.contains("resumed from checkpoint"), "{mode}: {out}");
        assert_eq!(
            std::fs::read(&vol).unwrap(),
            golden_bytes,
            "{mode}: resumed run differs from plain run"
        );
    }
}

/// A checkpoint written under a different configuration is refused as
/// stale, and a mangled manifest is a loud checksum error — neither is
/// silently discarded.
#[test]
fn stale_or_corrupt_checkpoint_is_refused() {
    let dir = tmpdir("ckptbad");
    let scan = dir.join("scan.sfbp");
    call(&["simulate", "--ideal", "16", "--out", scan.to_str().unwrap()]).unwrap();
    let vol = dir.join("vol.sfbp");
    let ck = dir.join("ck");

    let run = |window: &str, resume: bool| {
        let mut t = vec![
            "reconstruct",
            "--scan",
            scan.to_str().unwrap(),
            "--out",
            vol.to_str().unwrap(),
            "--mode",
            "outofcore",
            "--device",
            "tiny:2000000",
            "--window",
            window,
            "--checkpoint-dir",
            ck.to_str().unwrap(),
        ];
        if resume {
            t.push("--resume");
        }
        call(&t)
    };

    run("hann", false).unwrap();

    // Same directory, different window ⇒ different config fingerprint.
    let err = run("ramlak", true);
    assert!(format!("{err:?}").contains("stale"), "{err:?}");

    // Flip one hex digit of the manifest's CRC trailer.
    let manifest = ck.join("MANIFEST.txt");
    let mut text = std::fs::read_to_string(&manifest).unwrap();
    let flipped = if text.ends_with("0\n") { "1\n" } else { "0\n" };
    text.replace_range(text.len() - 2.., flipped);
    std::fs::write(&manifest, text).unwrap();
    let err = run("hann", true);
    assert!(
        format!("{err:?}").contains("checkpoint manifest"),
        "{err:?}"
    );
}

#[test]
fn helpful_errors() {
    assert!(call(&["reconstruct"]).is_err()); // missing --scan
    assert!(call(&["model", "--preset", "nope", "--gpus", "8", "--nr", "8"]).is_err());
    assert!(call(&[
        "model",
        "--preset",
        "bumblebee",
        "--gpus",
        "10",
        "--nr",
        "4"
    ])
    .is_err()); // not divisible
    let dir = tmpdir("errors");
    let bogus = dir.join("bogus.sfbp");
    std::fs::write(&bogus, b"not a container").unwrap();
    assert!(call(&["info", "--file", bogus.to_str().unwrap()]).is_err());
}

/// `scan.sfbp` of `simulate --ideal N` in a fresh directory.
fn ideal_scan(tag: &str, n: &str) -> (PathBuf, String) {
    let dir = tmpdir(tag);
    let scan = dir.join("scan.sfbp").to_str().unwrap().to_string();
    call(&["simulate", "--ideal", n, "--out", &scan]).unwrap();
    (dir, scan)
}

/// A rank layout that does not fit the scan (16³ volume, 24 projections)
/// is an ordinary error — not a panic (`--nr 0`, `--ng 17`) and not a
/// world that never joins (`--nr 25`).
#[test]
fn distributed_layout_flags_are_validated() {
    let (dir, scan) = ideal_scan("layout", "16");
    let out = dir.join("vol.sfbp").to_str().unwrap().to_string();
    for flag in [["--nr", "0"], ["--ng", "17"], ["--nr", "25"]] {
        let reconstruct = [
            "reconstruct",
            "--scan",
            &scan,
            "--out",
            &out,
            "--mode",
            "distributed",
        ];
        match call(&[&reconstruct[..], &flag[..]].concat()) {
            Err(CliError::Message(m)) => assert!(m.contains("invalid rank layout"), "{m}"),
            other => panic!("{flag:?}: {other:?}"),
        }
    }
}

/// `--slab` is an argument of the in-core run: it honours `--kernel` and
/// `--backend` rather than running the defaults whatever was asked, and it
/// is refused with any other `--mode`.
#[test]
fn slab_honours_kernel_and_backend_and_needs_incore_mode() {
    let (dir, scan) = ideal_scan("slabflags", "16");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let oracle = ["--kernel", "reference", "--backend", "cpu"];
    let base = ["reconstruct", "--scan", &scan, "--out"];
    call(&[&base[..], &[&path("full.sfbp")], &oracle].concat()).unwrap();
    let roi = [&path("roi.sfbp"), "--slab", "2:6"];
    let out = call(&[&base[..], &roi, &oracle].concat()).unwrap();
    assert!(out.contains("reference kernel, cpu backend"), "{out}");

    use scalefbp_iosim::format::decode_volume;
    let full = decode_volume(&std::fs::read(path("full.sfbp")).unwrap()).unwrap();
    let roi_vol = decode_volume(&std::fs::read(path("roi.sfbp")).unwrap()).unwrap();
    for k in 0..4 {
        assert_eq!(roi_vol.slice(k), full.slice(2 + k), "slice {}", 2 + k);
    }

    let err = call(&[&base[..], &roi, &["--mode", "pipeline"]].concat());
    assert!(
        format!("{err:?}").contains("--slab needs --mode incore"),
        "{err:?}"
    );
    let err = call(&[&base[..], &roi, &["--backend", "wgpu"]].concat());
    assert!(format!("{err:?}").contains("unknown backend"), "{err:?}");
}

/// A scan truncated by one byte, and a 25-byte header whose dimensions
/// (`2^22` each) overflow `usize`: `info` and every driver refuse both
/// with an error naming the container problem, before reading a row.
#[test]
fn hostile_scans_are_refused_by_every_command() {
    let (dir, scan) = ideal_scan("hostile", "12");
    let good = std::fs::read(&scan).unwrap();
    let mut overflow = b"SFBP\x02".to_vec();
    for dim in [1u32 << 22, 1 << 22, 1 << 22, 0, 0] {
        overflow.extend_from_slice(&dim.to_le_bytes());
    }
    let sidecar = std::fs::read(format!("{scan}.geom")).unwrap();
    for (name, bytes, why) in [
        ("truncated", &good[..good.len() - 1], "length mismatch"),
        ("overflow", &overflow[..], "dimensions overflow"),
    ] {
        let path = dir.join(format!("{name}.sfbp"));
        std::fs::write(&path, bytes).unwrap();
        std::fs::write(dir.join(format!("{name}.sfbp.geom")), &sidecar).unwrap();
        let path = path.to_str().unwrap();
        assert!(call(&["info", "--file", path]).is_err(), "{name}: info");
        let out = dir.join("never.sfbp");
        let out = out.to_str().unwrap();
        for mode in ["incore", "outofcore", "pipeline", "distributed"] {
            let cmd = ["reconstruct", "--scan", path, "--out", out, "--mode", mode];
            match call(&cmd) {
                Err(CliError::Message(m)) => assert!(m.contains(why), "{name} {mode}: {m}"),
                other => panic!("{name} {mode}: {other:?}"),
            }
        }
    }
}

/// A `.geom` sidecar whose pitch is infinite, or whose detector offset is
/// NaN, parses: geometry validation must refuse it. Every `--mode` of the
/// real binary exits 1 with an error, not a panic, and writes no volume
/// (before the check, `du = inf` zeroed the ramp and `sigma_u = NaN` made
/// every weight NaN, and both wrote a volume).
#[test]
fn non_finite_sidecar_geometry_is_refused() {
    let (dir, scan) = ideal_scan("nonfinite", "12");
    let sidecar = std::fs::read_to_string(format!("{scan}.geom")).unwrap();
    for (key, value) in [("du", "inf"), ("sigma_u", "NaN")] {
        let bad = dir.join(format!("{key}.sfbp"));
        std::fs::copy(&scan, &bad).unwrap();
        let text: String = sidecar
            .lines()
            .map(|l| match l.split_once(" = ") {
                Some((k, _)) if k == key => format!("{key} = {value}\n"),
                _ => format!("{l}\n"),
            })
            .collect();
        assert_ne!(text, sidecar, "the sidecar has a `{key}` line");
        std::fs::write(dir.join(format!("{key}.sfbp.geom")), text).unwrap();
        for mode in ["incore", "outofcore", "pipeline", "distributed"] {
            let out = dir.join(format!("vol-{key}-{mode}.sfbp"));
            let run = std::process::Command::new(env!("CARGO_BIN_EXE_scalefbp"))
                .args(["reconstruct", "--scan", bad.to_str().unwrap()])
                .args(["--out", out.to_str().unwrap(), "--mode", mode])
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(1), "{key} {mode}: {stderr}");
            assert!(
                stderr.contains(&format!("`{key}` must be finite")),
                "{stderr}"
            );
            assert!(!stderr.contains("panicked"), "{key} {mode}: {stderr}");
            assert!(!out.exists(), "{key} {mode} wrote a volume");
        }
    }
}

/// A `.geom` sidecar whose distances are finite in f64 but overflow f32
/// (`dso = 1e39`, `dsd = 2e39`) is refused by geometry validation, so
/// every `--mode` exits 1 with the same message and writes no volume.
/// Before the check, `incore` and `distributed` exited 0 with an all-NaN
/// volume while the streaming modes refused the scan at the depth guard.
#[test]
fn f32_overflowing_sidecar_geometry_is_refused_by_every_mode() {
    let (dir, scan) = ideal_scan("f32overflow", "12");
    sidecar_distances_are_refused_by_every_mode(
        &dir,
        &scan,
        "1e39",
        "2e39",
        "`dso` = 1e39 overflows f32",
    );
}

/// Sidecar distances that validate in f32 but magnify extremely. At
/// `dso = 100`, `dsd = 1.8e19` no slice projects onto the detector, so
/// every `--mode` exits 1 with one message and no panic. At `dso = 1e18`,
/// `dsd = 1.8e19` adjacent slices' rows leave a gap, as on any z grid
/// coarser than the detector's rows: every mode reconstructs it, with
/// the in-core bits.
#[test]
fn extreme_magnification_sidecars_are_refused_or_reconstruct_alike() {
    let (dir, scan) = ideal_scan("magnification", "12");
    sidecar_distances_are_refused_by_every_mode(&dir, &scan, "100", "1.8e19", "no slice");
    let gap = with_distances(&dir, &scan, "1e18", "1.8e19");
    let runs = reconstruct_in_every_mode(&dir, &gap);
    let incore = std::fs::read(&runs[0].2).unwrap();
    for (mode, run, out) in runs {
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(0), "{mode}: {stderr}");
        assert_eq!(std::fs::read(out).unwrap(), incore, "{mode}");
    }
}

/// A copy of `scan` in `dir` whose sidecar has `dso` and `dsd` replaced.
fn with_distances(dir: &std::path::Path, scan: &str, dso: &str, dsd: &str) -> PathBuf {
    let sidecar = std::fs::read_to_string(format!("{scan}.geom")).unwrap();
    let bad = dir.join(format!("far-{dso}.sfbp"));
    std::fs::copy(scan, &bad).unwrap();
    let text: String = sidecar
        .lines()
        .map(|l| match l.split_once(" = ") {
            Some(("dso", _)) => format!("dso = {dso}\n"),
            Some(("dsd", _)) => format!("dsd = {dsd}\n"),
            _ => format!("{l}\n"),
        })
        .collect();
    assert!(text.contains(&format!("dso = {dso}\n")) && text.contains(&format!("dsd = {dsd}\n")));
    std::fs::write(dir.join(format!("far-{dso}.sfbp.geom")), text).unwrap();
    bad
}

/// Runs every `--mode` on `scan`, `distributed` with one rank per group
/// (so with the in-core bits): each mode, its run, and its volume's path.
fn reconstruct_in_every_mode(
    dir: &std::path::Path,
    scan: &std::path::Path,
) -> Vec<(&'static str, std::process::Output, PathBuf)> {
    let name = scan.file_stem().unwrap().to_str().unwrap();
    ["incore", "outofcore", "pipeline", "distributed"]
        .into_iter()
        .map(|mode| {
            let out = dir.join(format!("vol-{name}-{mode}.sfbp"));
            let run = std::process::Command::new(env!("CARGO_BIN_EXE_scalefbp"))
                .args(["reconstruct", "--scan", scan.to_str().unwrap()])
                .args(["--out", out.to_str().unwrap(), "--mode", mode])
                .args(
                    ["--nr", "1", "--ng", "2"]
                        .iter()
                        .filter(|_| mode == "distributed"),
                )
                .output()
                .unwrap();
            (mode, run, out)
        })
        .collect()
}

/// Runs every `--mode` on `scan` under a copy of its sidecar with `dso`
/// and `dsd` replaced: each must exit 1 with one message containing
/// `message`, without a panic or a volume.
fn sidecar_distances_are_refused_by_every_mode(
    dir: &std::path::Path,
    scan: &str,
    dso: &str,
    dsd: &str,
    message: &str,
) {
    let bad = with_distances(dir, scan, dso, dsd);
    let mut messages = Vec::new();
    for (mode, run, out) in reconstruct_in_every_mode(dir, &bad) {
        let stderr = String::from_utf8_lossy(&run.stderr).to_string();
        assert_eq!(run.status.code(), Some(1), "{dso} {mode}: {stderr}");
        assert!(stderr.contains(message), "{dso} {mode}: {stderr}");
        assert!(!stderr.contains("panicked"), "{dso} {mode}: {stderr}");
        assert!(!out.exists(), "{dso} {mode} wrote a volume");
        messages.push(stderr);
    }
    assert!(messages.windows(2).all(|w| w[0] == w[1]), "{messages:?}");
}

/// Fault plans are outside input, so one the drivers cannot recover from
/// is an error of the real binary (exit 1, no volume, no panic), within a
/// minute: a pipeline plan that fails every retry of a device transfer
/// or a storage read, and a distributed plan that kills rank 0.
#[test]
fn unrecoverable_fault_plans_exit_1_without_a_volume() {
    let (dir, scan) = ideal_scan("hostile-plans", "16");
    // Twelve failing ops outlast the nine-attempt transient budget.
    let every_op = |channel: &str, kind: &str| -> String {
        (0..12)
            .map(|n| format!("rank 0 {channel} op {n} {kind}\n"))
            .collect()
    };
    let cases = [
        ("transfer", every_op("device-transfer", "transfer-error")),
        ("read", every_op("storage-read", "read-error")),
        ("root", "rank 0 recv op 0 rank-failure\n".to_string()),
    ];
    for (name, plan) in cases {
        let plan_path = dir.join(format!("{name}.plan"));
        std::fs::write(&plan_path, plan).unwrap();
        let out = dir.join(format!("vol-{name}.sfbp"));
        let mode: &[&str] = match name {
            "root" => &["--mode", "distributed", "--nr", "2", "--ng", "2"],
            _ => &["--mode", "pipeline"],
        };
        let mut args = vec!["reconstruct", "--scan", &scan];
        args.extend(mode);
        args.extend(["--out", out.to_str().unwrap()]);
        args.extend(["--fault-plan", plan_path.to_str().unwrap()]);
        let (status, stderr) = run_binary_within_a_minute(&args);
        assert_eq!(status.code(), Some(1), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(!out.exists(), "{name} wrote a volume");
    }
}

/// Runs the real binary with `args`; fails the test if it is still running
/// after a minute. Returns its exit status and stderr.
fn run_binary_within_a_minute(args: &[&str]) -> (std::process::ExitStatus, String) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_scalefbp"))
        .args(args)
        .stderr(std::process::Stdio::piped())
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            child.kill().unwrap();
            panic!("{args:?}: still running after a minute");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    (status, stderr)
}

/// Numeric flags are outside input: a value the scheduler or the solver
/// cannot use is an error of the real binary that names the flag (exit
/// 1, no output file, no panic), not an assertion deep inside a run.
#[test]
fn hostile_numeric_flags_exit_1_naming_the_flag() {
    let dir = tmpdir("hostile-flags");
    let out = dir.join("out.bin");
    let out_path = out.to_str().unwrap();
    let serve = |flag, value| {
        let mut args = vec!["serve", "--jobs", "4", "--schedule-out", out_path];
        args.extend([flag, value]);
        args
    };
    let iterative = |value| {
        let args = [
            "iterative",
            "--ideal",
            "8",
            "--iters",
            "1",
            "--out",
            out_path,
        ];
        [&args[..], &["--relaxation", value]].concat()
    };
    let scan = dir.join("scan.sfbp");
    let scan_path = scan.to_str().unwrap();
    call(&["simulate", "--ideal", "8", "--out", scan_path]).unwrap();
    let serve_slow = |value| {
        let mut args = serve("--straggler-seed", "1");
        args.extend(["--slow-factor", value]);
        args
    };
    let distributed_slow = |value| {
        let mode = ["--mode", "distributed", "--straggler-seed", "1"];
        let args = ["reconstruct", "--scan", scan_path, "--out", out_path];
        [&args[..], &mode, &["--slow-factor", value]].concat()
    };
    let reconstruct = |mode: &[&'static str], flag, value| {
        let args = ["reconstruct", "--scan", scan_path, "--out", out_path];
        [&args[..], mode, &[flag, value]].concat()
    };
    let pipeline = ["--mode", "pipeline"];
    let stragglers = ["--mode", "distributed", "--straggler-seed", "1"];
    let cases = [
        serve("--tenants", "0"),
        serve("--rate", "0"),
        serve("--rate", "-5"),
        serve("--rate", "nan"),
        serve("--rate", "inf"),
        serve_slow("0"),
        serve_slow("1"),
        distributed_slow("0"),
        distributed_slow("1"),
        iterative("nan"),
        iterative("-1"),
        iterative("3"),
        reconstruct(&pipeline, "--device", "tiny:-1"),
        reconstruct(&pipeline, "--device", "tiny:abc"),
        reconstruct(&pipeline, "--device", "h100"),
        reconstruct(&pipeline, "--device", "tiny:0"),
        reconstruct(&[], "--slab", "5:2"),
        reconstruct(&[], "--slab", "3:3"),
        reconstruct(&[], "--slab", "0:999"),
        reconstruct(&stragglers, "--stragglers", "99"),
        serve("--device", "tiny:0"),
        [serve("--straggler-seed", "1"), vec!["--stragglers", "99"]].concat(),
    ];
    for args in cases {
        let (status, stderr) = run_binary_within_a_minute(&args);
        let flag = args[args.len() - 2];
        assert_eq!(status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains(flag),
            "{args:?} does not name {flag}: {stderr}"
        );
        assert!(!out.exists(), "{args:?} wrote {out_path}");
    }
}
