"""One set-up or one pass, in a fresh interpreter.

    python3 perfbench/worker.py JOB.json RESULT.json

The job names the source tree, a private catalog directory and either the
ambients to fill (set-up) or the generated calls to time (pass).  A pass
builds call arguments first, then times the calls, then checks every
result against the oracles; failures and exceptions are counted, never
raised.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate
import spans


def import_betaring(src: Path, catalog_dir: Path):
    """Import betaring from `src` only, configured to use `catalog_dir` only."""
    sys.path.insert(0, str(src))
    import betaring
    import betaring.checks  # noqa: F401  (its functions are traced)

    if Path(betaring.__file__).resolve().parent != (src / "betaring").resolve():
        raise RuntimeError(f"imported betaring from {betaring.__file__}, not from {src}")
    betaring.set_config(catalog_dir=str(catalog_dir))
    if betaring.get_config().resolved_catalog_dir() != catalog_dir:
        raise RuntimeError("catalog directory override did not take effect")
    return betaring


def element(br, terms):
    out = br.BElement.zero()
    for n, i, c in terms:
        out = out + br.BElement.basis(n, i).scale(c)
    return out


def thunk(br, call):
    """A zero-argument callable for one call.  Arguments that need no
    catalog are built here, outside the timing; class arguments are built
    inside the call, so catalog loads land in the timed region."""
    family = call[0]
    if family == "get_catalog":
        degrees = tuple(call[1])
        return lambda: br.get_catalog(br.Ambient.prod(degrees))
    if family == "suite":
        name = call[1]
        return lambda: br.checks.run_suites([name])[name]
    if family == "identify":
        n = call[1]
        h = br.PermGroup.generate(n, call[2])
        return lambda: br.identify(br.Ambient.sym(n), h)
    if family == "product":
        return lambda: br.product(element(br, call[1]), element(br, call[2]))
    if family == "diagonal":
        return lambda: br.diagonal(element(br, call[1]))
    if family == "star_basis":
        m, i, n, j = call[1:]
        return lambda: br.star_basis((m, i), (n, j))
    if family == "star":
        return lambda: br.star(element(br, call[1]), element(br, call[2]))
    if family == "eval_z":
        return lambda: br.eval_z(element(br, call[1]), call[2])
    if family == "eval_burnside":
        group = br.PermGroup.cyclic(call[2])
        return lambda: br.eval_burnside(element(br, call[1]), br.BurnsideElement.basis(group, call[3]))
    if family == "lin":
        return lambda: br.lin(element(br, call[1]))
    if family == "plethysm":
        from oracles import symfunc_data

        f = br.SymFunc("p", symfunc_data(call[1]))
        g = br.SymFunc("p", symfunc_data(call[2]))
        return lambda: br.plethysm(f, g)
    if family == "solve_psi_K":
        return lambda: br.solve_psi_K(call[1])
    if family == "psi_upper":
        return lambda: br.psi_upper(call[1])
    if family == "witt_mul":
        from oracles import witt_from_roots

        xs, ys, prec = call[1:]
        a = br.WittVector(witt_from_roots(xs, prec), prec)
        b = br.WittVector(witt_from_roots(ys, prec), prec)
        return lambda: a * b
    raise ValueError(f"unknown call family {family!r}")


def tamper(br, result):
    """A deliberately wrong copy of a result, for checking the checks."""
    if isinstance(result, int):
        return result + 1
    if isinstance(result, br.BElement):
        return result + br.beta_upper(1)
    if isinstance(result, br.SymFunc):
        return result + br.p_(1)
    if isinstance(result, br.WittVector):
        return result + br.WittVector.one(result.precision)
    if isinstance(result, br.Catalog):
        altered = copy.copy(result)
        altered.matrix = [tuple(row) for row in result.matrix]
        altered.matrix[0] = (altered.matrix[0][0] + 1,) + altered.matrix[0][1:]
        return altered
    if isinstance(result, br.AdamsTable):
        psi = [list(row) for row in result.psi]
        psi[0][0] += 1
        return dataclasses.replace(result, psi=tuple(tuple(row) for row in psi))
    if isinstance(result, list):
        return [dict(result[0], status="fail")] + result[1:]
    return result + result


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_setup(job) -> dict:
    """Fill the catalog directory ("setup"), or count how many of the
    ambients a filled directory still has to build ("verify")."""
    br = import_betaring(Path(job["src"]), Path(job["catalog_dir"]))
    tracer = None
    if job["mode"] == "verify":
        tracer = spans.Tracer()
        tracer.install()
        tracer.on = True
    for degrees in job["ambients"]:
        br.get_catalog(br.Ambient.prod(tuple(degrees)))
    return {"builds": tracer.summary()["catalog.build.count"] if tracer else 0}


def run_pass(job) -> dict:
    br = import_betaring(Path(job["src"]), Path(job["catalog_dir"]))
    import oracles  # imports betaring, so only once it is on the path

    tracer = spans.Tracer()
    if job["trace"]:
        tracer.install()
    calls = job["calls"]
    thunks = [thunk(br, call) for call in calls]
    results = [None] * len(calls)
    errors: dict[int, str] = {}
    intervals = []
    sampler = calibrate.Sampler()
    tracer.on = job["trace"]
    with sampler:
        for k, fn in enumerate(thunks):
            t0 = time.perf_counter()
            try:
                with tracer.span("bench.op"):
                    results[k] = fn()
            except Exception:
                errors[k] = traceback.format_exc(limit=3)
            t1 = time.perf_counter()
            intervals.append((t0, t1))
    latencies = [t1 - t0 - sampler.paused_between(t0, t1) for t0, t1 in intervals]
    tracer.on = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = [lat * sampler.scale(t0, t1) for lat, (t0, t1) in zip(latencies, intervals)]

    failed = []
    for k, call in enumerate(calls):
        if k in errors:
            failed.append({"call": call, "error": errors[k]})
            continue
        result = tamper(br, results[k]) if job["tamper"] else results[k]
        try:
            ok = oracles.check(call, result)
        except Exception:
            ok = False
            errors[k] = traceback.format_exc(limit=3)
        if not ok:
            failed.append({"call": call, "error": errors.get(k, "wrong result")})

    out = {
        "wall_s": sum(latencies),
        "scaled_wall_s": sum(scaled),
        "latencies": latencies,
        "scaled": scaled,
        "samples": len(sampler.samples),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(calls),
        "failed": len(failed),
        "failures": failed[:5],
        "cache_bytes": dir_bytes(Path(job["catalog_dir"])),
    }
    if job["trace"]:
        out["layers"] = tracer.summary(sampler.paused_between)
        if job.get("trace_out"):
            tracer.dump(job["trace_out"])
    return out


def main():
    job = json.loads(Path(sys.argv[1]).read_text())
    result = run_pass(job) if job["mode"] == "pass" else run_setup(job)
    Path(sys.argv[2]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
