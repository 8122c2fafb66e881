#!/usr/bin/env python3
"""Validates scalefbp-bench's BENCH_*.json artefacts.

Usage: check_bench.py FILE... [--backend avx2|scalar]

Each FILE is checked by the rules of its "benchmark" field. The harness
asserts every contract in-process before it writes a file; this is the
trust-but-verify layer that the recorded fields actually say so, plus
shape checks so a silently dropped field fails loudly. Required keys are
the REQUIRED table; the cross-field invariants are the check_* functions.
`--backend` pins `simd_backend` of every backproject file given.
"""

import json
import os
import sys

# Per benchmark: dotted path to an object ([] = every element of an array)
# -> keys it must carry.
REQUIRED = {
    "backproject": {
        "": ("quick", "backend", "simd_backend", "threads",
             "detected_features", "workloads"),
        "workloads[]": ("name", "nx", "ny", "nz", "np", "nu", "nv", "kernels"),
        "workloads[].kernels[]": ("kernel", "secs", "updates", "gups",
                                  "bit_identical_to_reference"),
    },
    "scaling": {
        "": ("quick", "seed", "machine", "modes", "sweeps"),
        "sweeps[]": ("name", "nx", "ny", "np", "points"),
        "sweeps[].points[]": ("gpus", "nr", "ng", "nz", "volume_bytes",
                              "subvolume_bytes", "chunk_bytes",
                              "recv_bound_bytes", "modes"),
        "sweeps[].points[].modes[]": ("mode", "collective_secs", "eq17_secs",
                                      "des_makespan_secs",
                                      "root_ingress_bytes",
                                      "per_rank_recv_bytes"),
    },
    "serve": {
        "": ("quick", "seed", "devices", "tenants", "points"),
        "points[]": ("load_factor", "rate_hz", "jobs", "completed", "rejected",
                     "preemptions", "migrations", "p50_latency_nanos",
                     "p99_latency_nanos", "mean_utilisation",
                     "makespan_nanos", "queue_depth_peak", "tenants"),
        "points[].tenants[]": ("tenant", "completed", "p99_latency_nanos"),
    },
    "iterative": {
        "": ("quick", "nx", "ny", "nz", "np", "nu", "nv", "iterations",
             "solvers", "cells"),
        "solvers[]": ("solver", "serial_residuals"),
        "cells[]": ("solver", "ranks", "mode", "bitwise_identical",
                    "residuals_match", "network_bytes", "network_messages",
                    "seg_recv_per_iter_max_bytes", "seg_recv_bound_bytes"),
    },
    "straggler": {
        "": ("quick", "distributed", "serve"),
        "distributed": ("dataset", "machine", "nr", "ng", "nc",
                        "timeout_scale", "points"),
        "distributed.points[]": ("slow_factor", "wait_wall_secs",
                                 "speculative_wall_secs", "speedup",
                                 "wasted_gpu_secs_segmented",
                                 "wasted_gpu_secs_global"),
        "serve": ("seed", "devices", "jobs", "aging_nanos", "cells"),
        "serve.cells[]": ("hedging", "completed", "makespan_nanos",
                          "p99_latency_nanos", "stragglers", "hedges_issued",
                          "hedges_won", "hedges_wasted"),
    },
}


def objects_at(doc, path):
    """Every object the dotted `path` reaches from `doc`."""
    nodes = [doc]
    for step in filter(None, path.split(".")):
        nodes = [n[step.removesuffix("[]")] for n in nodes]
        if step.endswith("[]"):
            nodes = [item for n in nodes for item in n]
    return nodes


def check_required(kind, doc):
    # Parents come before children in REQUIRED, so a missing container is
    # reported by name before anything tries to walk into it.
    for path, keys in REQUIRED[kind].items():
        for obj in objects_at(doc, path):
            for key in keys:
                assert key in obj, f"{path or 'document'}: missing {key}"


def check_backproject(bp, path, backend):
    # The executor backend the timings were measured on. The harness
    # refuses to emit the file unless the sim backend agreed bitwise
    # with this one in-process, so "cpu" here certifies conformance.
    assert bp["backend"] == "cpu", bp["backend"]
    assert bp["simd_backend"] in ("avx2", "scalar"), bp["simd_backend"]
    if backend is not None:
        assert bp["simd_backend"] == backend, (
            f"expected {backend} backend, got {bp['simd_backend']}"
        )
    assert isinstance(bp["threads"], int) and bp["threads"] >= 1, bp["threads"]
    assert isinstance(bp["detected_features"], list)

    for w in bp["workloads"]:
        kernels = {k["kernel"]: k for k in w["kernels"]}
        assert kernels.keys() == {"reference", "simd"}, kernels.keys()
        for k in kernels.values():
            assert k["secs"] > 0 and k["updates"] > 0
        # The harness bit-compares before reporting; trust but verify.
        assert kernels["reference"]["bit_identical_to_reference"] is None
        assert kernels["simd"]["bit_identical_to_reference"] is True
    return (f"{bp['simd_backend']} backend, {bp['threads']} thread(s), features: "
            f"{', '.join(bp['detected_features']) or 'none'}")


def check_scaling(sc, path, backend):
    assert sc["modes"] == ["dense", "hierarchical", "segmented"]
    names = [s["name"] for s in sc["sweeps"]]
    assert names == ["strong", "weak"], names
    for sweep in sc["sweeps"]:
        assert sweep["points"], "empty sweep"
        for p in sweep["points"]:
            modes = {m["mode"]: m for m in p["modes"]}
            assert set(modes) == {"dense", "hierarchical", "segmented"}
            for m in modes.values():
                assert m["eq17_secs"] > 0 and m["des_makespan_secs"] > 0
            # Segmented per-rank traffic stays within the Nz/p bound, dense
            # root ingress is the full (N_r-1)-subvolume charge.
            assert modes["segmented"]["per_rank_recv_bytes"] <= p["recv_bound_bytes"]
            assert modes["dense"]["root_ingress_bytes"] == (p["nr"] - 1) * p["subvolume_bytes"]
    return f"{sum(len(s['points']) for s in sc['sweeps'])} points"


def check_serve(sv, path, backend):
    assert len(sv["points"]) >= 3, "need at least 3 arrival rates"
    for p in sv["points"]:
        assert p["completed"] + p["rejected"] == p["jobs"]
        assert 0.0 <= p["mean_utilisation"] <= 1.0 + 1e-9
        assert p["tenants"], "missing per-tenant rows"
    # The saturation bend: p99 and utilisation rise with load.
    pts = sorted(sv["points"], key=lambda p: p["load_factor"])
    assert pts[-1]["p99_latency_nanos"] > pts[0]["p99_latency_nanos"]
    assert pts[-1]["mean_utilisation"] > pts[0]["mean_utilisation"]

    # The heaviest point's full snapshot, written beside the file, must
    # carry the per-tenant ranked serve.* metrics.
    sm = json.load(open(os.path.join(os.path.dirname(path), "serve_metrics.json")))
    assert sm["format"] == "scalefbp-metrics-v1"
    names = {(m["name"], m.get("rank")) for m in sm["metrics"]}
    for t in range(sv["tenants"]):
        assert ("serve.tenant.jobs.completed", t) in names, t
        assert ("serve.tenant.latency.nanos", t) in names, t
    return f"{len(pts)} rate points"


def check_iterative(it, path, backend):
    solvers = {s["solver"]: s for s in it["solvers"]}
    assert set(solvers) == {"sirt", "mlem"}
    for s in solvers.values():
        assert len(s["serial_residuals"]) == it["iterations"]
    assert len(it["cells"]) == 2 * 3 * 3, "expected the full grid"
    for c in it["cells"]:
        # The harness bit-compares every cell against the serial solver
        # before writing; trust but verify.
        assert c["bitwise_identical"] is True
        assert c["residuals_match"] is True
        if c["mode"] == "segmented":
            assert c["seg_recv_per_iter_max_bytes"] <= c["seg_recv_bound_bytes"]
        else:
            assert c["seg_recv_per_iter_max_bytes"] is None
    return f"{len(it['cells'])} cells"


def check_straggler(doc, path, backend):
    dist = doc["distributed"]
    assert dist["dataset"] == "coffee_bean"
    assert dist["machine"] == "abci_v100"
    for key in ("nr", "ng", "nc"):
        assert dist[key] >= 1, f"bad layout {key}: {dist[key]}"
    assert dist["timeout_scale"] > 0

    points = dist["points"]
    assert len(points) >= 3, "need a slow-factor sweep, not a point"
    for p in points:
        # First result wins: speculation can never lose to waiting.
        assert p["speculative_wall_secs"] <= p["wait_wall_secs"] + 1e-9, p
        assert p["speedup"] >= 1.0 - 1e-9, p
        # The paper's segmented decomposition strands one group, not
        # the whole machine, while a straggler is recomputed.
        assert p["wasted_gpu_secs_segmented"] < p["wasted_gpu_secs_global"], p
    factors = [p["slow_factor"] for p in points]
    assert factors == sorted(factors) and len(set(factors)) == len(factors)
    waits = [p["wait_wall_secs"] for p in points]
    assert all(b >= a - 1e-9 for a, b in zip(waits, waits[1:])), (
        "wait-it-out wall must degrade with the slow factor"
    )
    # Past detection-plus-one-recompute, speculation must strictly win.
    cap = dist["timeout_scale"] + 1.0
    for p in points:
        if p["slow_factor"] > cap:
            assert p["speculative_wall_secs"] < p["wait_wall_secs"], p

    serve = doc["serve"]
    assert serve["devices"] >= 2 and serve["jobs"] >= 1
    assert serve["aging_nanos"] > 0
    cells = {c["hedging"]: c for c in serve["cells"]}
    assert set(cells) == {True, False}, "need a hedged and an unhedged cell"
    for c in cells.values():
        assert c["completed"] == serve["jobs"], "stragglers must not lose jobs"
        assert c["stragglers"] >= 1, "slow devices were never detected"
    hedged, waited = cells[True], cells[False]
    assert hedged["hedges_issued"] >= 1, "hedging on but no hedges issued"
    assert hedged["hedges_won"] >= 1, "no hedge ever beat its original"
    assert hedged["hedges_won"] <= hedged["hedges_issued"]
    for key in ("hedges_issued", "hedges_won", "hedges_wasted"):
        assert waited[key] == 0, f"hedging off but {key} nonzero"
    assert hedged["makespan_nanos"] <= waited["makespan_nanos"], (
        "hedging worsened the makespan"
    )
    best = max(p["speedup"] for p in points)
    return (f"{len(points)} distributed points, speculation up to {best:.2f}x, "
            f"{hedged['hedges_won']}/{hedged['hedges_issued']} hedges won")


CHECKS = {
    "backproject": check_backproject,
    "scaling": check_scaling,
    "serve": check_serve,
    "iterative": check_iterative,
    "straggler": check_straggler,
}


def main() -> None:
    args = sys.argv[1:]
    backend = None
    if "--backend" in args:
        at = args.index("--backend")
        backend = args[at + 1]
        del args[at:at + 2]
    assert args, __doc__
    for path in args:
        doc = json.load(open(path))
        kind = doc["benchmark"]
        assert kind in CHECKS, f"{path}: unknown benchmark {kind!r}"
        assert isinstance(doc["quick"], bool)
        check_required(kind, doc)
        print(f"{path}: {kind} OK ({CHECKS[kind](doc, path, backend)})")


if __name__ == "__main__":
    main()
