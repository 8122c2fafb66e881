#!/usr/bin/env python3
"""Validates BENCH_backproject.json against the schema CI relies on.

Usage: check_backproject_schema.py OUT_DIR [--backend avx2|scalar]

The bench harness asserts the bitwise and drift contracts in-process
before writing the file; this script is the trust-but-verify layer that
the recorded fields actually say so, plus shape checks so a silently
dropped field fails loudly.
"""

import json
import sys

KERNELS = {"reference", "simd", "simd-batched"}
WORKLOAD_KEYS = ("name", "nx", "ny", "nz", "np", "nu", "nv", "kernels")
CONTRACT_KEYS = (
    "drift_significance", "simd_batched_ulp_bound",
    "simd_batched_rel_abs_bound",
)


def main() -> None:
    out_dir = sys.argv[1]
    expect_backend = None
    if "--backend" in sys.argv:
        expect_backend = sys.argv[sys.argv.index("--backend") + 1]

    bp = json.load(open(f"{out_dir}/BENCH_backproject.json"))
    assert bp["benchmark"] == "backproject"
    # The executor backend the timings were measured on. The harness
    # refuses to emit the file unless the sim backend agreed bitwise
    # with this one in-process, so "cpu" here certifies conformance.
    assert bp["backend"] == "cpu", bp.get("backend")
    assert bp["simd_backend"] in ("avx2", "scalar"), bp["simd_backend"]
    if expect_backend is not None:
        assert bp["simd_backend"] == expect_backend, (
            f"expected {expect_backend} backend, got {bp['simd_backend']}"
        )
    assert isinstance(bp["detected_features"], list)
    for key in CONTRACT_KEYS:
        assert key in bp["contracts"], f"missing contract {key}"
        assert bp["contracts"][key] > 0

    for w in bp["workloads"]:
        for key in WORKLOAD_KEYS:
            assert key in w, f"missing {key}"
        kernels = {k["kernel"]: k for k in w["kernels"]}
        assert KERNELS == kernels.keys(), kernels.keys()
        for k in kernels.values():
            assert k["secs"] > 0 and k["updates"] > 0
        # The harness bit-compares before reporting; trust but verify.
        assert kernels["reference"]["bit_identical_to_reference"] is None
        assert kernels["simd"]["bit_identical_to_reference"] is True
        # The non-bitwise kernel must carry its measured drift, inside
        # the contract the harness asserted in-process.
        sb = kernels["simd-batched"]
        for field in ("drift_ulp_significant", "drift_rel_abs",
                      "drift_rel_rmse"):
            assert field in sb, f"simd-batched missing {field}"
        assert sb["drift_ulp_significant"] <= bp["contracts"]["simd_batched_ulp_bound"]
        assert sb["drift_rel_abs"] <= bp["contracts"]["simd_batched_rel_abs_bound"]
    print(f"backproject JSON schema OK ({bp['simd_backend']} backend, "
          f"features: {', '.join(bp['detected_features']) or 'none'})")


if __name__ == "__main__":
    main()
