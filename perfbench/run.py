#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs it.

    python3 perfbench/run.py --workload head --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); spans and
fingerprints go to its out/ directory.  The last line of standard output
is the result object; it is printed only when every emitted metric is
declared in BENCHMARK.json with the same unit and every declared metric
of the mode (end_to_end untraced, per_layer traced) is present.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    bdir = build_dir()
    jobs = str(os.cpu_count() or 1)
    log = sys.stderr
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, "perfbench")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}
    return spec, units("end_to_end"), units("per_layer")


def run(binary, args, workload, seed, seconds, trace, extra=()):
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--shards", str(args.shards), "--pool-threads",
           str(args.pool_threads), "--out-dir", out_dir, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def validate(result, expected_units):
    """Problems with `result` against the declared metrics (empty: ok)."""
    problems = []
    if result is None:
        return ["no result object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    metrics = result.get("metrics", {})
    for name, unit in expected_units.items():
        if name not in metrics:
            problems.append(f"missing metric {name}")
        elif metrics[name].get("unit") != unit:
            problems.append(f"{name}: unit {metrics[name].get('unit')} != {unit}")
    for name in metrics:
        if name not in expected_units:
            problems.append(f"undeclared metric {name}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def fingerprint(lines):
    for line in lines:
        if line.startswith("fingerprint "):
            return json.loads(line[len("fingerprint "):])
    return {}


def self_check(args, binary):
    """Tiny-scale check of the benchmark itself (not of the library)."""
    spec, e2e, layers = declared()
    tiny = ["--scale", "tiny"]
    errors = []
    with open(os.path.join(HERE, "layers.json")) as f:
        mapping = json.load(f)
    if set(mapping) != set(layers):
        errors.append("layers.json does not map exactly the declared per_layer "
                      f"metrics: {sorted(set(mapping) ^ set(layers))}")
    for w in (w["name"] for w in spec["workloads"]):
        names = {}
        for trace, units in ((0, e2e), (1, layers)):
            for seed in (1, 2):
                code, lines, result = run(binary, args, w, seed, 1, trace, tiny)
                problems = validate(result, units)
                if code != 0 or not result or not result["correct"]:
                    problems.append(f"exit {code}, correct={result and result['correct']}")
                if result and result["failed"] != 0:
                    problems.append(f"{result['failed']} failed operations")
                for p in problems:
                    errors.append(f"{w} trace={trace} seed={seed}: {p}")
                names[(trace, seed)] = (set(result["metrics"]) if result else set(),
                                        fingerprint(lines).get("inputs_digest"))
            if names[(trace, 1)][0] != names[(trace, 2)][0]:
                errors.append(f"{w} trace={trace}: metric set depends on the seed")
            if names[(trace, 1)][1] == names[(trace, 2)][1]:
                errors.append(f"{w} trace={trace}: seeds 1 and 2 gave the same inputs")
        code, _, result = run(binary, args, w, 1, 1, 0, tiny + ["--corrupt-result"])
        if code == 0 or result is None or result["correct"]:
            errors.append(f"{w}: the oracle accepted a corrupted result")
        print(f"self-check {w}: done", file=sys.stderr)
    for e in errors:
        print(f"self-check: {e}", file=sys.stderr)
    print("self-check " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shards", type=int, default=4)
    ap.add_argument("--pool-threads", type=int, default=2)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    binary = build()
    if args.self_check:
        sys.exit(self_check(args, binary))
    if not args.workload:
        fail("--workload is required")
    spec, e2e, layers = declared()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"workload {args.workload} is not declared in BENCHMARK.json")
    code, lines, result = run(binary, args, args.workload, args.seed,
                              args.seconds, args.trace)
    for line in lines[:-1]:
        print(line)
    problems = validate(result, layers if args.trace else e2e)
    if code != 0 and (result is None or result.get("correct", False)):
        problems.append(f"perfbench exited with code {code}")
    if problems:
        fail("; ".join(problems))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
