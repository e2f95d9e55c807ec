"""Self-test of the benchmark on scaled-down workloads (seconds, not minutes).

    python3 perfbench/selftest.py

From the root of a checkout. It runs ``run.py --size small`` for every
workload with tracing off and on, and checks that:

* every end-to-end (``--trace 0``) and per-layer (``--trace 1``) metric
  is in the JSON result and in the printed table exactly once, with its
  unit, and the run is correct;
* the lr_strong results digest is the same in the sharded and the
  decentralized scheduling modes, and equals the golden digest.

Exits non-zero with a message on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run

WORKLOADS = ("lr_strong", "water", "serve")


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def check_printed(workload: str, trace: int) -> None:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--size", "small"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    _check(proc.returncode == 0,
           f"{workload} trace={trace} exited {proc.returncode}: "
           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    _check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{workload}: result keys {sorted(result)}")
    _check(result["correct"] and result["failed"] == 0
           and result["attempted"] >= 1,
           f"{workload} trace={trace}: {lines[-1][:300]}")
    expected = dict(run.PER_LAYER if trace else run.END_TO_END)
    _check(set(result["metrics"]) == set(expected),
           f"{workload} trace={trace}: metrics "
           f"{sorted(set(result['metrics']) ^ set(expected))} differ")
    for name, unit in expected.items():
        _check(result["metrics"][name]["unit"] == unit,
               f"{workload}: {name} unit {result['metrics'][name]['unit']}")
        rows = [line.split() for line in lines[:-1]]
        printed = [r for r in rows if r and r[0] == name]
        _check(len(printed) == 1 and printed[0][-1] == unit,
               f"{workload}: {name} printed {len(printed)} times")


def check_mode_digests() -> None:
    sys.path.insert(0, os.path.dirname(run.PACKAGE_DIR))
    import workloads

    with open(os.path.join(run.BENCH_DIR, "golden.json")) as fh:
        golden = json.load(fh)["small"]["lr_strong"]
    digests = {}
    for mode in ("sharded", "decentralized"):
        cfg = dict(workloads.SIZES["small"]["lr_strong"], mode=mode)
        lr = workloads.LRStrong(cfg, golden)
        r = lr.setup(lr.inputs(3))
        lr.run(r)
        digests[mode] = lr.outcome(r).digest
    _check(digests["sharded"] == digests["decentralized"] == golden,
           f"lr_strong digests {digests}, golden {golden}")


def main() -> int:
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_printed(workload, trace)
            print(f"ok  {workload} trace={trace}: every metric printed once")
    check_mode_digests()
    print("ok  lr_strong digest: sharded == decentralized == golden")
    return 0


if __name__ == "__main__":
    sys.exit(main())
