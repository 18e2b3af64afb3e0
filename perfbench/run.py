"""The betaring benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads (see workloads.py):

  cold-catalog  get_catalog for every degree <= 6 ambient, from an empty cache
  warm-mix      a seeded mix of public ring/symfunc/Adams/Witt calls, warm cache
  check-suite   checks.run_suites over the seven seed-commit suites, warm cache

Each set-up and each pass runs in a fresh interpreter (worker.py) with a
private catalog directory under .perfbench_work/.  Set-up (interpreter
start, import, and filling the catalog directory the workload needs) is
repeated and its median reported.  Passes run until the next one would
end after --seconds.  Every result is checked against independent
oracles (oracles.py) outside the timing.  Times are scaled to a
reference machine speed (calibrate.py).  With --trace 0 the last line
carries the end-to-end metrics; with --trace 1 untraced and traced passes
alternate, and it carries the per-layer metrics of the traced passes
(spans.py) and the tracing overhead.  --tamper alters every result after
its call returns, to show that the checks catch wrong answers.
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

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX = 15
PASS_TIMEOUT_S = 150
RUN_BUDGET_S = 165


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def manifest(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def run_worker(job: dict, workdir: Path, tag: str) -> tuple[dict, float]:
    """Run one job in a fresh interpreter; returns (result, wall seconds)."""
    job_path = workdir / f"{tag}.job.json"
    out_path = workdir / f"{tag}.out.json"
    job_path.write_text(json.dumps(job))
    env = dict(os.environ)
    env["BETARING_CATALOG_DIR"] = job["catalog_dir"]
    env.pop("PYTHONPATH", None)
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(out_path)],
        env=env,
        cwd=str(ROOT),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{tag} did not finish within {PASS_TIMEOUT_S} s")
    wall = time.perf_counter() - started
    if proc.returncode != 0 or not out_path.exists():
        fail(f"{tag} exited with {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out_path.read_text()), wall


def setup(args, workdir: Path, src: Path) -> tuple[Path, dict, list[float]]:
    """Fill a fresh catalog directory, at least SETUPS times and until
    SETUP_MIN_S have been spent; keep the last directory as the template.
    Each set-up time is scaled by calibrations taken just before and after."""
    ambients = [] if args.workload == "cold-catalog" else workloads.COLD_AMBIENTS
    times = []
    while len(times) < SETUPS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX):
        k = len(times)
        catalog = workdir / f"setup{k}-catalog"
        catalog.mkdir()
        job = {"mode": "setup", "src": str(src), "catalog_dir": str(catalog), "ambients": ambients}
        before = calibrate.measure()
        _, wall = run_worker(job, workdir, f"setup{k}")
        times.append(wall * calibrate.REFERENCE_S / ((before + calibrate.measure()) / 2))
        if k:
            shutil.rmtree(workdir / f"setup{k - 1}-catalog")
    filled = manifest(catalog)
    if not ambients and filled:
        fail("set-up of cold-catalog left files in the catalog directory")
    if ambients:
        # complete: a fresh interpreter gets every ambient without building one
        probe = workdir / "verify-catalog"
        shutil.copytree(catalog, probe)
        job = {"mode": "verify", "src": str(src), "catalog_dir": str(probe), "ambients": ambients}
        builds = run_worker(job, workdir, "verify")[0]["builds"]
        shutil.rmtree(probe)
        if builds:
            fail(f"the filled catalog directory still needed {builds} builds")
    return catalog, filled, times


def p95(values) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true", help="alter every result after it returns")
    args = parser.parse_args()

    began = time.perf_counter()
    src = ROOT / "src"
    if not (src / "betaring" / "__init__.py").is_file():
        fail(f"no betaring source tree under {src}; run from the root of a checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        report = measure(args, spec, workdir, src, began)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report["info"]))
    print(json.dumps(report["result"]))


def measure(args, spec, workdir: Path, src: Path, began: float) -> dict:
    template, template_manifest, setup_times = setup(args, workdir, src)
    traces = workdir.parent / "traces"
    traces.mkdir(exist_ok=True)
    passes = []
    pass_walls = []
    correct = True
    measuring = time.perf_counter()
    while True:
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 1
        # a traced pass repeats the calls of the untraced pass before it
        calls = workloads.calls_for(args.workload, args.seed, k // 2 if args.trace else k)
        catalog = workdir / f"pass{k}-catalog"
        if args.workload == "cold-catalog":
            catalog.mkdir()
        else:
            shutil.copytree(template, catalog)
        if manifest(catalog) != template_manifest:
            correct = False  # the pass would not start from the state the workload assumes
        job = {
            "mode": "pass",
            "src": str(src),
            "catalog_dir": str(catalog),
            "calls": calls,
            "trace": traced,
            "tamper": args.tamper,
            "trace_out": str(traces / f"{args.workload}-seed{args.seed}.json.gz") if traced else None,
        }
        result, wall = run_worker(job, workdir, f"pass{k}")
        result["traced"] = traced
        result["calls"] = calls
        passes.append(result)
        pass_walls.append(wall)
        shutil.rmtree(catalog)
        if args.trace and not any(p["traced"] for p in passes):
            continue
        estimate = statistics.mean(pass_walls)
        if (
            time.perf_counter() - measuring + estimate > args.seconds
            or time.perf_counter() - began + estimate > RUN_BUDGET_S
        ):
            break

    plain = [p for p in passes if not p["traced"]]
    latencies_ms = [x * 1000 for p in plain for x in p["scaled"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        section = "per_layer"
        values = layer_values(passes)
    else:
        section = "end_to_end"
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p["scaled_wall_s"] for p in plain),
            "ops_per_s": statistics.median(p["attempted"] / p["scaled_wall_s"] for p in plain),
            "op_p50_ms": statistics.median(latencies_ms),
            "op_p95_ms": p95(latencies_ms),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            fail(f"metric {m['name']} is not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "calls_per_pass": len(passes[0]["calls"]),
        "latency_samples": len(latencies_ms),
        "repeat_share": statistics.mean(workloads.repeat_share(p["calls"]) for p in plain),
        "fail_ratio": failed / attempted,
        "family_share": family_share(plain),
        "setup_s_each": setup_times,
        "raw_wall_s_each": [p["wall_s"] for p in plain],
        "scaled_wall_s_each": [p["scaled_wall_s"] for p in plain],
        "failures": [f for p in passes for f in p["failures"]][:5],
        "provenance": provenance(),
    }
    result = {"correct": correct and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"info": info, "result": result}


def family_share(plain) -> dict:
    """Share of the timed passes spent in each call family."""
    totals: dict[str, float] = {}
    for p in plain:
        for call, lat in zip(p["calls"], p["scaled"]):
            totals[call[0]] = totals.get(call[0], 0.0) + lat
    whole = sum(totals.values())
    return {k: round(v / whole, 4) for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}


def layer_values(passes) -> dict:
    """Per-layer metrics: medians over the traced passes.  Layer times are
    as measured (not scaled), so that they sum to trace.wall_s."""
    traced = [p for p in passes if p["traced"]]
    values = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    for suite in workloads.CHECK_SUITES:
        values[f"checks.{suite}.s"] = statistics.median(
            sum(lat for call, lat in zip(p["calls"], p["latencies"]) if call == ["suite", suite]) for p in traced
        )
    values["catalog.cache_bytes"] = statistics.median(p["cache_bytes"] for p in traced)
    values["mix.repeat_share"] = statistics.mean(workloads.repeat_share(p["calls"]) for p in traced)
    plain = [p for p in passes if not p["traced"]]
    values["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in plain)
    values["trace.overhead_ratio"] = (
        statistics.median(p["scaled_wall_s"] for p in traced)
        / statistics.median(p["scaled_wall_s"] for p in plain)
        - 1.0
    )
    return values


if __name__ == "__main__":
    main()
