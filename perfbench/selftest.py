"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks, for every workload in its ``--tiny`` form, that an untraced and
a traced run each print every metric BENCHMARK.json names, with its
unit, and pass their output checks; that a deliberately failed output
check (``--break-check``) marks the run as failed; and that outside a
checkout the benchmark exits non-zero without a result line. Exits 0
when every check holds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _run(args: list, cwd: str = ROOT, run_py: str = RUN):
    proc = subprocess.run([sys.executable, run_py, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def _result(lines: list):
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return res if isinstance(res, dict) else None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for wl in spec["workloads"]:
        name = wl["name"]
        for trace in (0, 1):
            proc, lines = _run(["--workload", name, "--seed", "2",
                                "--seconds", "1", "--trace", str(trace),
                                "--tiny"])
            res = _result(lines)
            tag = f"{name} trace {trace}"
            check(proc.returncode == 0 and res is not None,
                  f"{tag}: exit 0 with a result line")
            if res is None:
                print(proc.stdout[-2000:], proc.stderr[-2000:])
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == expected[trace], f"{tag}: every metric with its unit")
            printed = [ln for ln in lines if ln.startswith("# ")]
            check(all(any(ln.startswith(f"# {k} = ") and ln.endswith(f" {u}")
                          for ln in printed)
                      for k, u in expected[trace].items()),
                  f"{tag}: every metric printed by name with its unit")
            check(res["correct"] and res["failed"] == 0
                  and res["attempted"] >= 1,
                  f"{tag}: outputs pass their checks")

    first = spec["workloads"][0]["name"]
    for wl in (first, spec["workloads"][-1]["name"]):
        proc, lines = _run(["--workload", wl, "--seed", "2", "--seconds",
                            "1", "--trace", "0", "--tiny", "--break-check"])
        res = _result(lines)
        check(res is not None and not res["correct"] and res["failed"] >= 1,
              f"{wl}: a failed output check marks the run failed")

    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc, lines = _run(["--workload", first, "--seed", "1", "--seconds",
                            "1", "--trace", "0"], cwd=bare,
                           run_py=os.path.join(bare, "perfbench", "run.py"))
        check(proc.returncode != 0 and _result(lines) is None,
              "outside a checkout: non-zero exit, no result line")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
