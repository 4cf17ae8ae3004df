"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload named in BENCHMARK.json at tiny size, untraced and
traced, and checks that

* the last line is the result object, correct, with no failed item;
* every metric BENCHMARK.json names is printed, with its unit, and no
  other;
* in the traced run's spans, the self times inside each item (and inside
  the set-up) add up to no more than that item's wall time;
* on chain-batch every echelon count is 0;
* the per-layer table in spans.py matches BENCHMARK.json;
* in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits with a nonzero code and prints no result.

Exits with code 1 and a list of problems if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "1", "--seconds", "1", "--items", "2"]
SLACK_S = 1e-6


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--trace", str(trace), *TINY]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: int, problems: list) -> tuple:
    """(detail line, metrics) of a tiny run, after checking its result."""
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
        return {}, {}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].partition("detail: ")[2])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: not correct: {detail.get('failures')}")
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if printed != named:
        problems.append(f"{where}: metrics or units differ: {sorted(set(printed.items()) ^ set(named.items()))}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    return detail, result.get("metrics", {})


def check_spans(path: Path, problems: list) -> None:
    recs = [json.loads(line) for line in path.read_text().splitlines()]
    children: dict = {}
    for i, r in enumerate(recs):
        children.setdefault(r["parent"], []).append(i)
    for i, r in enumerate(recs):
        if r["name"] not in (spans.ITEM_SPAN, spans.SETUP_SPAN):
            continue
        inside = 0.0
        stack = list(children.get(i, ()))
        while stack:
            j = stack.pop()
            inside += recs[j]["self"]
            stack.extend(children.get(j, ()))
        if inside > r["end"] - r["start"] + SLACK_S:
            problems.append(f"{path.name}: self times {inside:.6f} s exceed {r['name']} wall {r['end'] - r['start']:.6f} s")


def check_bare_directory(problems: list) -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        if proc.returncode == 0 or last[0].startswith("{"):
            problems.append(f"bare directory: exit {proc.returncode}, output {last[0][:80]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list = []
    table = {name: (unit, better) for name, (unit, better, _) in spans.LAYER_METRICS.items()}
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    if table != declared:
        problems.append("spans.LAYER_METRICS does not match BENCHMARK.json per_layer")
    for w in SPEC["workloads"]:
        name = w["name"]
        check_result(name, 0, problems)
        detail, metrics = check_result(name, 1, problems)
        if detail:
            check_spans(ROOT / detail["trace_file"], problems)
        if name == "chain-batch":
            nonzero = [k for k, v in metrics.items() if k.startswith("linalg.echelon.") and v["value"] != 0]
            if nonzero:
                problems.append(f"chain-batch touched the sparse echelon: {nonzero}")
        print(f"{name}: checked", flush=True)
    check_bare_directory(problems)
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
