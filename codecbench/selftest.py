#!/usr/bin/env python3
"""Self-test of the benchmark runner; takes under a minute.

    python3 codecbench/selftest.py

Checks the tracer's arithmetic and wrapper removal on a fake module, runs
the runner in both modes on the 64-primitive ``tiny`` workload and checks
its summary line and result files, and checks that the runner refuses to
run in a directory without the codec sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

from tracer import Tracer, leftover_wrappers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest: FAILED: {message}")


def check_tracer() -> None:
    mod = types.ModuleType("fake")

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        mod.inner()
        mod.inner()

    class Box:
        @classmethod
        def make(cls):
            return cls()

    mod.inner, mod.outer, mod.Box = inner, outer, Box
    raw_make = vars(Box)["make"]
    tracer = Tracer()
    tracer.install(mod, "inner", "fake.inner")
    tracer.install(mod, "outer", "fake.outer")
    tracer.install(Box, "make", "fake.make")
    mod.outer()
    check(tracer.spans == [], "a call outside any op was recorded")
    with tracer.op("encode") as root:
        mod.outer()
        check(isinstance(mod.Box.make(), Box), "wrapped classmethod lost its class")
    check(sorted(leftover_wrappers([mod])) == ["Box.make", "fake.inner", "fake.outer"],
          "installed wrappers not found")
    tracer.remove()
    check(leftover_wrappers([mod]) == [], "wrappers left after remove()")
    check(mod.inner is inner and mod.outer is outer and vars(Box)["make"] is raw_make,
          "remove() did not restore the originals")

    names = [s[0] for s in tracer.spans]
    check(names == ["op.encode", "fake.outer", "fake.inner", "fake.inner", "fake.make"],
          f"unexpected spans {names}")
    self_ns = tracer.self_times_ns()
    dur = [s[2] - s[1] for s in tracer.spans]
    check(sum(self_ns) == dur[root], "self times do not add up to the op")
    check(self_ns[1] == dur[1] - dur[2] - dur[3], "outer self time is not outer minus inners")
    check(all(s[4] == root for s in tracer.spans), "spans not tied to their op")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "codecbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_runner() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shas = []
    for trace in ("0", "1"):
        proc = run(ROOT, "--workload", "tiny", "--seed", "7", "--seconds", "1",
                   "--trace", trace)
        check(proc.returncode == 0, f"trace {trace}: exit {proc.returncode}\n{proc.stderr}")
        summary = json.loads(proc.stdout.strip().splitlines()[-1])
        check(sorted(summary) == ["attempted", "correct", "failed", "metrics"],
              f"summary keys {sorted(summary)}")
        check(summary["correct"] is True, f"trace {trace}: run not correct")
        names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
        check(list(summary["metrics"]) == names, f"trace {trace}: metric names differ")
        for name, value in summary["metrics"].items():
            check(isinstance(value["value"], (int, float)), f"{name} is not a number")

        record = json.loads((RESULTS / f"tiny-seed7-trace{trace}.json").read_text())
        check(record["problems"] == [], f"problems: {record['problems']}")
        check(record["environment"]["ggsc_path"] == str((ROOT / "src" / "ggsc").resolve()),
              "ggsc not imported from this checkout")
        check(summary["attempted"] == sum(record["attempted"].values()), "attempted")
        check(record["attempted"]["encode"] >= 2, "fewer than two encodes")
        shas.append(record["stream_sha256"])
    check(shas[0] == shas[1], "same seed gave different streams")
    metrics = record["metrics"]
    for layer in ("gs_core", "codec", "partition", "quantizer", "colorspace",
                  "spectral", "entropy", "geom_codec"):
        check(metrics[f"encode_self_s.{layer}"] > 0, f"no {layer} time in encode")
    spans = json.loads((RESULTS / "tiny-seed7-trace1-spans.json").read_text())["spans"]
    check(any(s[0] == "spectral.eig_sym" for s in spans), "no eig_sym span written")

    proc = run(ROOT, "--workload", "tiny", "--seed", "8", "--seconds", "1", "--trace", "0")
    record = json.loads((RESULTS / "tiny-seed8-trace0.json").read_text())
    check(proc.returncode == 0 and record["stream_sha256"] != shas[0],
          "another seed gave the same stream")


def check_bare_directory() -> None:
    bare = RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "codecbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    try:
        proc = run(bare, "--workload", "tiny", "--seed", "1", "--seconds", "1", "--trace", "0")
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "runner printed a result without the codec sources")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    check_tracer()
    check_runner()
    check_bare_directory()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
