#!/usr/bin/env python3
"""Builds and runs the DUET host-clock benchmark (see README.md).

    python3 hostbench/run.py --workload compile|infer|serve|serve-burst \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
hostbench/ (the library as the default build makes it, plus the driver) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs reuse the
build. The driver's full result document (metrics with unit and clock, output
checks, host fingerprint) is printed first, then a table, and the last line of
stdout is the result in the benchmark's contract:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with --trace 1
its per_layer set. A per-layer metric of a layer the workload does not run
(serving layers on compile, say) reads 0.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden", "infer_digests.json")
WORKLOADS = ("compile", "infer", "serve", "serve-burst")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and builds the driver; returns the binary path. Both steps
    are no-ops when the build is up to date."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "hostbench")
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "duet_hostbench",
                    "-j", jobs], check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "duet_hostbench")


def source_digest():
    """SHA-256 over the library and benchmark sources (the tree may not be a
    git checkout, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "hostbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def digest_mismatches(got, want):
    """Compares per-output digests [numel, sum, sum|x|, l2, first values...]
    with tolerances that allow a reordered float reduction."""
    bad = []
    for key, w in want.items():
        g = got.get(key)
        if g is None or len(g) != len(w) or g[0] != w[0]:
            bad.append(key)
            continue
        numel, sum_abs = w[0], w[2]
        mean_abs = sum_abs / numel if numel else 0.0
        tols = [0.0, 1e-3 * sum_abs, 1e-3 * sum_abs, 1e-3 * abs(w[3])]
        tols += [1e-3 * (abs(v) + mean_abs) for v in w[4:]]
        if any(abs(a - b) > t for a, b, t in zip(g[1:], w[1:], tols[1:])):
            bad.append(key)
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--update-golden", action="store_true",
                    help="record this infer run's output digests as golden")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 1
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log(f"run.py: duet_hostbench exited with {proc.returncode}")
        return 1
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["fingerprint"]["source_sha256"] = source_digest()
    failures = list(doc["failures"])
    failed = doc["failed"]

    # Golden digests catch a kernel bug that the engine and the reference
    # interpreter would share.
    if args.workload == "infer" and args.trace == 0:
        goldens = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN) as fh:
                goldens = json.load(fh)
        if args.update_golden:
            goldens[str(args.seed)] = doc["digests"]
            with open(GOLDEN, "w") as fh:
                json.dump(goldens, fh, indent=1, sort_keys=True)
                fh.write("\n")
        elif str(args.seed) in goldens:
            bad = digest_mismatches(doc["digests"], goldens[str(args.seed)])
            doc["detail"]["golden_outputs_checked"] = len(goldens[str(args.seed)])
            if bad:
                failed += len(bad)
                failures.append("outputs differ from the golden digests: " +
                                ", ".join(bad))

    # The metric set is BENCHMARK.json's, exactly.
    declared = declared_metrics(args.trace == 1)
    measured = doc["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        log("run.py: metrics missing from BENCHMARK.json:", ", ".join(unknown))
        return 1
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                log(f"run.py: end-to-end metric {m['name']} was not measured")
                return 1
            got = {"value": 0.0, "unit": m["unit"], "clock": "bypassed"}
        if got["unit"] != m["unit"]:
            log(f"run.py: {m['name']} has unit {got['unit']}, "
                f"BENCHMARK.json says {m['unit']}")
            return 1
        if got["value"] is None:
            log(f"run.py: {m['name']} is not a finite number")
            return 1
        metrics[m["name"]] = got

    doc["failures"] = failures
    print(json.dumps(doc))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:8s} {m['clock']}")
    for f in failures:
        print(f"  FAILED: {f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": doc["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
