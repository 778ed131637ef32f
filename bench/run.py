"""lp-lab benchmark: four closed-loop workloads over the library and its CLI.

Usage (from the repository root):

    python3 bench/run.py --workload closure --seed 1 --seconds 25 --trace 0

Each pass runs the workload's fixed, seeded operation list once, in a fresh
interpreter (so the ``reduce_to_mss`` cache starts cold and peak memory is
the workload's own), with PYTHONHASHSEED fixed and LP_LAB_MAX_SPACE unset.
Passes repeat until ``--seconds`` is spent. Times are scaled to a reference
host speed by a probe timed before each operation (see ``host_adjusted``),
and each operation's time is its median over the passes.
Every answer of every pass is checked against ``ref``, and input and answer
digests against ``expected.json`` for the seeds recorded there.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` traced and untraced passes alternate and the last line reports
the per-layer metrics of the traced ones (self times in unscaled seconds),
plus the tracing overhead.
The line before it records the Python version, machine and commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("closure", "chains", "catalog", "evidence")
MIN_PASSES = 3  # per mode, so a median has something to choose from
RUN_LIMIT_S = 170  # a run must end within 180 s
FAILURES_SHOWN = 5
# The worker's speed probe on an uncontended core of the host the bounds in
# BENCHMARK.json were set on (x86_64, 2 vCPU, Python 3.11.7); times are
# reported at that speed. PROBE_WINDOW operations each side give the speed.
REFERENCE_PROBE_S = 0.00063
PROBE_WINDOW = 3

# Layers that must record work on each workload in a traced run. A layer
# with every metric at zero means the tracer missed its calls.
ACTIVE_LAYERS = {
    "closure": ("partition", "ancillarity", "sufficiency", "model", "relations", "search", "serialization", "cli"),
    "chains": ("partition", "ancillarity", "sufficiency", "relations"),
    "catalog": ("partition", "ancillarity", "serialization", "cli"),
    "evidence": ("sufficiency", "model", "evidence", "serialization", "cli"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def run_pass(workload: str, seed: int, workdir: Path, traced: bool, timeout: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("LP_LAB_MAX_SPACE", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(workdir), str(int(traced))]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def context(workload: str, seed: int) -> dict:
    """Python version, machine, commit and a digest of the code under test."""
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "machine": f"{platform.platform()}, {os.cpu_count()} CPUs",
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def host_adjusted(result: dict) -> tuple[list[float], float]:
    """A pass's operation latencies and set-up time at the reference speed.

    Other tenants of the host slow this one by up to 2x, in bursts of a few
    seconds. The worker times a fixed speed probe before each operation; a
    time is scaled by REFERENCE_PROBE_S over the median probe of the nearby
    operations, which removes most of that swing and none of the program's
    own cost.
    """
    probes = result["probes"]
    speeds = [
        statistics.median(probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1])
        for i in range(len(probes))
    ]
    latencies = [t * REFERENCE_PROBE_S / s for t, s in zip(result["latencies"], speeds)]
    return latencies, result["setup_s"] * REFERENCE_PROBE_S / speeds[0]


def op_latencies(passes: list[dict]) -> list[float]:
    """Each operation's median adjusted latency over the passes."""
    adjusted = [host_adjusted(p)[0] for p in passes]
    return [statistics.median(times) for times in zip(*adjusted)]


def end_to_end(passes: list[dict]) -> dict:
    latencies = op_latencies(passes)
    return {
        "wall_s": (sum(latencies), "s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1000 * percentile(latencies, 90), "ms"),
        "setup_s": (statistics.median(host_adjusted(p)[1] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
    }


def per_layer(traced: list[dict], plain: list[dict]) -> tuple[dict, list[str]]:
    """Median of each layer metric over traced passes, and any that varied."""
    import tracer

    out, varied = {}, []
    for name, unit in tracer.METRICS.items():
        values = [p["layers"][name] for p in traced]
        if unit == "count" and len(set(values)) > 1:
            varied.append(name)
        out[name] = (statistics.median(values), unit)
    overhead = sum(op_latencies(traced)) - sum(op_latencies(plain))
    out["trace.overhead_s"] = (overhead, "s")
    return out, varied


def measure(workload: str, seed: int, seconds: float, trace: bool) -> None:
    sys.path.insert(0, str(BENCH))
    import gen
    import workloads

    inputs = gen.build(workload, seed)
    digest = gen.digest(inputs)
    records = json.loads((BENCH / "expected.json").read_text()).get(workload, {})
    record = records.get(str(seed))
    if record and record["inputs"] != digest:
        raise BenchError(f"inputs of {workload} seed {seed} digest to {digest}, recorded {record['inputs']}")

    started = time.monotonic()
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    modes = (False, True) if trace else (False,)
    passes: dict[bool, list[dict]] = {False: [], True: []}
    try:
        count = 0
        while True:
            traced = modes[count % len(modes)]
            begun = time.monotonic()
            result = run_pass(workload, seed, workdir / f"pass{count}", traced, RUN_LIMIT_S - (begun - started))
            if result["digest"] != digest:
                raise BenchError(f"pass {count} generated inputs with digest {result['digest']}, expected {digest}")
            passes[traced].append(result)
            count += 1
            now = time.monotonic()
            enough = all(len(passes[m]) >= MIN_PASSES for m in modes)
            if enough and (now - started) + (now - begun) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    want = [workloads.expected(op, inputs["files"]) for op in inputs["ops"]]
    attempted, failures = workloads.tally(passes[False] + passes[True], want)
    for index, error, answer in failures[:FAILURES_SHOWN]:
        item = {"op": inputs["ops"][index], "error": error, "got": answer, "want": want[index]}
        print("failed: " + json.dumps(item)[:2000], file=sys.stderr)
    failed = len(failures)
    correct = failed == 0
    got_digest = gen.digest(passes[False][0]["answers"])
    if record and record["answers"] != got_digest:
        print(f"error: answers digest {got_digest} differs from the recorded {record['answers']}", file=sys.stderr)
        correct = False

    plain = passes[False]
    latencies = op_latencies(plain)
    p90 = percentile(latencies, 90)
    info = context(workload, seed)
    info.update({
        "input_digest": digest,
        "answers_digest": got_digest,
        "recorded_seed": record is not None,
        "passes": len(plain),
        "traced_passes": len(passes[True]),
        "op_samples": len(latencies),
        "samples_beyond_p90": sum(t > p90 for t in latencies),
        "fail_frac": failed / attempted,
        "wall_s_unadjusted": statistics.median(sum(p["latencies"]) for p in plain),
        "probe_ms": 1000 * statistics.median(t for p in plain for t in p["probes"]),
    })
    if trace:
        metrics, varied = per_layer(passes[True], plain)
        if varied:
            print(f"error: counts differ between traced passes: {varied}", file=sys.stderr)
            correct = False
        missing = sorted({m for p in passes[True] for m in p["missing"]})
        if missing:
            print(f"warning: not found in lp_lab, reported as 0: {missing}", file=sys.stderr)
        idle = [
            layer for layer in ACTIVE_LAYERS[workload]
            if not any(v for k, (v, _) in metrics.items() if k.split(".")[0] == layer)
        ]
        if idle:
            print(f"error: layers recorded no work on {workload}: {idle}", file=sys.stderr)
            correct = False
        info["wall_s_untraced"] = end_to_end(plain)["wall_s"][0]
    else:
        metrics = end_to_end(plain)
    print(json.dumps({"context": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (SRC / "lp_lab" / "__init__.py").is_file():
        print(f"error: no lp_lab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
