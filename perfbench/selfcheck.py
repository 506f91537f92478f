"""Self-check of the benchmark: ``python3 perfbench/run.py --self-check``.

Runs every workload at a tiny size in both trace modes and checks the
result line against ``BENCHMARK.json``, that the exact counts repeat for
a seed, that each correctness gate rejects a corrupted result, and that
the command fails cleanly without the program's source.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
SEED = 7


def check_spec(spec: dict) -> list:
    """``BENCHMARK.json`` against its contract and against ``run.py``."""
    from run import E2E, LAYERS, WORKLOADS

    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
        return problems
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS) or any(set(w) != {"name", "why"} for w in spec["workloads"]):
        problems.append(f"workloads {names} do not match run.py {WORKLOADS}")
    for w in spec["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: why is not one line of <= 200 chars")
    for section, expected, keys in (("end_to_end", E2E, {"name", "unit", "better", "bound"}),
                                    ("per_layer", LAYERS, {"name", "unit", "better"})):
        got = {m["name"]: m["unit"] for m in spec[section]}
        if got != expected:
            problems.append(f"{section} metrics differ from run.py: "
                            f"{sorted(set(got) ^ set(expected))}")
        for m in spec[section]:
            if set(m) != keys or not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
                problems.append(f"{section} entry {m} is malformed")
            if m["better"] not in ("higher", "lower"):
                problems.append(f"{m['name']}: better must be higher or lower")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"{m['name']}: bound must be in (0, 0.25]")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must have the largest bound")
    if not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds must be in 1..60")
    return problems


def run(root: str, *args: str, cwd: str = None) -> tuple:
    cmd = [sys.executable, os.path.join(cwd or root, "perfbench", "run.py"), *args]
    proc = subprocess.run(cmd, cwd=cwd or root, capture_output=True, text=True,
                          timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def check_result(workload: str, trace: int, code: int, stdout: str, spec: dict) -> list:
    where = f"{workload} --trace {trace}"
    lines = stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"{where}: last line is not JSON (exit {code})"]
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(res)}")
    if res.get("correct") is not True or code != 0:
        problems.append(f"{where}: not correct (exit {code}): "
                        + "; ".join(l for l in lines if "CORRECTNESS" in l))
    if not (isinstance(res.get("attempted"), int) and res["attempted"] >= 1
            and isinstance(res.get("failed"), int)):
        problems.append(f"{where}: attempted/failed are not whole numbers")
    section = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = res.get("metrics", {})
    if {k: v.get("unit") for k, v in got.items()} != want:
        problems.append(f"{where}: metric names/units differ from BENCHMARK.json")
    for name, m in got.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end {name} = {value} is not positive")
    return problems


def check_gates() -> list:
    """Each correctness gate must reject a corrupted result."""
    from serve import Record, verify
    from solvers import CampaignB8, LesBolund

    problems = []
    les = LesBolund(SEED, tiny=True)
    honest = les.solver.assemble
    les.solver.assemble = lambda m, u, p: honest(m, u, p) * (1.0 + 1e-3)
    if not les.check():
        problems.append("les_bolund gate accepted a perturbed RHS")
    camp = CampaignB8(SEED, tiny=True)
    camp.campaign.solvers[0].velocity[0, 0] *= 1.0 + 2.0**-52
    if not camp.check():
        problems.append("campaign_b8 gate accepted a one-ulp change")
    rec = Record()
    req = {"kind": "assemble", "mesh": {"nx": 2, "ny": 2, "nz": 2},
           "scenarios": [{"body_force": [0.0, 0.0, 0.0]}], "velocity_seed": 1}
    rec.served.append((req, "0" * 64))
    if not verify([rec]):
        problems.append("serve_mixed gate accepted a wrong digest")
    return problems


def check_without_source(root: str) -> list:
    """Only BENCHMARK.json and perfbench/: exit nonzero, print no result."""
    bare = os.path.join(root, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(os.path.join(root, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout, _ = run(root, "--workload", "les_bolund", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or stdout.strip():
        return [f"without src/ the command exited {code} and printed {stdout!r}"]
    return []


def self_check(root: str) -> int:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_spec(spec)
    for workload in [w["name"] for w in spec["workloads"]]:
        counts = []
        for trace in (0, 1, 0):
            code, stdout, stderr = run(root, "--workload", workload, "--seed", str(SEED),
                                       "--seconds", "1", "--trace", str(trace), "--tiny")
            problems += check_result(workload, trace, code, stdout, spec)
            if code not in (0, 1):
                problems.append(f"{workload}: crashed: {stderr.strip()[-500:]}")
            counts += [l for l in stdout.splitlines() if " exact counts: " in l]
        if len(set(counts)) != 1:
            problems.append(f"{workload}: exact counts do not repeat: {counts}")
        print(f"self-check: {workload} ran in both trace modes", flush=True)
    problems += check_gates()
    problems += check_without_source(root)
    for problem in problems:
        print(f"self-check FAILED: {problem}")
    print("self-check: ok" if not problems else f"self-check: {len(problems)} problems")
    return 1 if problems else 0
