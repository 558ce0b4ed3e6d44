#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/perfbench.exe with dune (into .perfbench/build), runs
the named workload and prints, as the last line, one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end set, measured untraced.  With
--trace 1 they are its per_layer set: the workload runs untraced, then
again traced in a separate process, each for half the time; the traced
run's deterministic counts must equal the untraced run's, and the
ratio of their calibrated run-phase CPU is reported as
obs.trace_overhead.  DECISIONS.md explains the workloads and metrics.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ".perfbench/build"
EXE = ROOT / BUILD_DIR / "default" / "perfbench" / "perfbench.exe"
RUN_TIMEOUT_S = 160

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class BenchError(Exception):
    pass


def valid_name(name):
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[group]]
        for m in spec[group]:
            if not valid_unit(m["unit"]) or m["better"] not in ("higher", "lower"):
                raise BenchError(f"bad unit or direction for {m['name']}")
    bad = [n for n in names if not valid_name(n)]
    if bad or len(set(names)) != len(names):
        raise BenchError(f"invalid or repeated names in BENCHMARK.json: {bad}")
    if not all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]):
        raise BenchError("an end-to-end bound is outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        raise BenchError("BENCHMARK.json lacks setup_s in s, lower is better")
    return spec


def declared(spec, group):
    return {m["name"]: m["unit"] for m in spec[group]}


def build():
    (ROOT / BUILD_DIR).parent.mkdir(exist_ok=True)
    result = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", str(ROOT / BUILD_DIR),
         "--profile", "release", "--cache", "disabled",
         "./perfbench/perfbench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    if result.returncode != 0 or not EXE.exists():
        raise BenchError("building perfbench/perfbench.exe failed")


def run_exe(*args):
    """Run the executable; return its report lines and its JSON line."""
    result = subprocess.run([str(EXE), *args], cwd=ROOT, capture_output=True,
                            text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(result.stderr)
    lines = result.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise BenchError(f"perfbench.exe {' '.join(args)} printed no result "
                         f"(exit {result.returncode})")
    return lines[:-1], json.loads(lines[-1])


def check_metrics(metrics, expected):
    """The printed metric set must equal the declared one, unit for unit."""
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        raise BenchError(f"metric set differs from BENCHMARK.json: missing {missing}, "
                         f"undeclared {extra}, unit mismatch {units}")
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)):
            raise BenchError(f"{name} has no numeric value")


def measure(args, spec):
    # A traced invocation runs two processes, so each gets half the time.
    seconds = args.seconds / 2 if args.trace else args.seconds
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(seconds)]
    report, plain = run_exe(*common)
    print("\n".join(report))
    if not args.trace:
        check_metrics(plain["metrics"], declared(spec, "end_to_end"))
        return plain, plain["metrics"]
    report, traced = run_exe(*common, "--traced")
    print("\n".join(report))
    result = dict(traced)
    if traced["deterministic"] != plain["deterministic"]:
        print(f"  CHECK FAILED: the traced run's deterministic counts differ:\n"
              f"    untraced {plain['deterministic']}\n    traced   {traced['deterministic']}")
        result["correct"] = False
    result["correct"] = result["correct"] and plain["correct"]
    metrics = dict(traced["metrics"])
    overhead = traced["calibrated_run_s"] / plain["calibrated_run_s"] - 1.0
    metrics["obs.trace_overhead"] = {"value": overhead, "unit": "ratio"}
    print(f"  obs.trace_overhead {overhead:.4f} (traced {traced['calibrated_run_s']:.4f} s "
          f"vs untraced {plain['calibrated_run_s']:.4f} s calibrated run CPU, "
          f"medians over reps)")
    check_metrics(metrics, declared(spec, "per_layer"))
    return result, metrics


def selftest(spec):
    """Checks of the benchmark's own logic; raises on the first failure."""
    for good in ("requests_per_s", "net.run.cpu_s", "9lives", "a" * 64):
        assert valid_name(good), good
    for bad in ("", "_x", ".x", "a b", "a/b", "é", "a" * 65, None):
        assert not valid_name(bad), bad
    for good in ("ms", "1/s", "%", "sim_ms", "count"):
        assert valid_unit(good), good
    for bad in ("", "a b", "x" * 17):
        assert not valid_unit(bad), bad
    try:
        check_metrics({"a": {"value": 1.0, "unit": "s"}}, {"a": "s", "b": "s"})
        raise AssertionError("a missing metric went unnoticed")
    except BenchError:
        pass
    _, listed = run_exe("--list-metrics")
    for group in ("end_to_end", "per_layer"):
        printed = dict(listed[group])
        if group == "per_layer":
            printed["obs.trace_overhead"] = "ratio"
        assert printed == declared(spec, group), f"{group} differs from BENCHMARK.json"
    assert [w["name"] for w in spec["workloads"]] == listed["workloads"]
    report, _ = run_exe("--selftest")
    print("\n".join(report) + "\nrun.py self-tests passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        spec = load_spec()
        build()
        if args.selftest:
            selftest(spec)
            return 0
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        result, metrics = measure(args, spec)
    except (BenchError, AssertionError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    out = {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
           "failed": int(result["failed"]), "metrics": metrics}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
