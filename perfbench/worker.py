"""One fresh benchmark process: set-up, the closed job loop, checks, metrics.

``run.py`` starts this file once per set-up probe and once per measured
run; it is not meant to be started by hand.  The process imports NumPy and
``rscorr`` from ``<root>/src``, warms up, and reports its set-up time
against the monotonic clock reading its parent took just before starting
it.  It then runs whole rounds of the workload, one job at a time with no
other thread or process, and writes everything it measured to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback

SETUP_PARTS = {}
ARGS = None
np = rscorr = jobs = tracing = None  # imported by main(), which times the imports


def _mark(part: str, since: float) -> float:
    now = time.monotonic()
    SETUP_PARTS[part] = now - since
    return now


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args()


def _import_all() -> float:
    """Import NumPy, rscorr from ``<root>/src`` and the job code, timing each."""
    global np, rscorr, jobs, tracing
    t = time.monotonic()
    import numpy as np

    t = _mark("numpy import", t)
    sys.path.insert(0, os.path.join(ARGS.root, "src"))
    import rscorr

    t = _mark("rscorr import", t)
    if not os.path.realpath(rscorr.__file__).startswith(os.path.realpath(ARGS.root) + os.sep):
        sys.exit(f"rscorr was imported from {rscorr.__file__}, not from {ARGS.root}/src")
    import jobs
    import tracing

    return t


#: p90 is reported only with at least ten jobs beyond it.
MIN_JOBS = 100
#: No new round starts after this much wall time, so a run ends within 180 s.
WALL_LIMIT_S = 110.0


def run_job(ctx: jobs.Context, job: jobs.Job, tracer=None):
    """Time one job, then check its output; returns (seconds, error or None).

    Any exception from the job or its check is recorded as that job's
    failure, so one bad job cannot stop the loop or hide the others.
    """
    kind = jobs.KINDS[job.kind]
    ctx.bytes_out = 0
    out, error = None, None
    if tracer is not None:
        tracer.on = True
    t0 = time.perf_counter()
    try:
        out = kind.run(ctx, job)
    except Exception:
        error = traceback.format_exc(limit=3)
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.on = False
    if error is None:
        try:
            kind.check(ctx, job, out)
        except Exception:
            error = traceback.format_exc(limit=3)
    if tracer is not None:
        tracer.counts["cli.bytes_out"] += ctx.bytes_out
    return elapsed, error


def loop(ctx, rng, seconds: float, start_wall: float):
    """Whole rounds until ``seconds`` of job time and MIN_JOBS jobs are done."""
    done, times, errors, rss = [], [], [], []
    while True:
        for job in jobs.make_round(ARGS.workload, rng):
            elapsed, error = run_job(ctx, job)
            done.append(job)
            times.append(elapsed)
            errors.append(error)
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        enough = sum(times) >= seconds and len(done) >= MIN_JOBS
        if enough or time.monotonic() - start_wall > WALL_LIMIT_S:
            return done, times, errors, rss


def warm_up(ctx) -> None:
    rscorr.eigen_constants()
    for job in jobs.warmup_jobs(ARGS.workload, random.Random(0)):
        jobs.KINDS[job.kind].run(ctx, job)


def e2e_metrics(times, errors, rss) -> dict:
    n = len(times)
    ok = [t for t, e in zip(times, errors) if e is None]
    # a failed job misses any latency limit
    lat = np.array([t if e is None else np.inf for t, e in zip(times, errors)]) * 1e3
    return {
        "jobs_per_s": len(ok) / sum(times),
        "job_p50_ms": float(np.percentile(lat, 50)),
        "job_p90_ms": float(np.percentile(lat, 90)),
        "peak_rss_mb": rss[-1] / 1024.0,
        "ok_frac": len(ok) / n,
    }


def host_record() -> dict:
    def read(path):
        try:
            with open(path) as fh:
                return fh.read()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = read(f"{base}/{index}/level").strip()
        ctype = read(f"{base}/{index}/type").strip()
        if level:
            caches[f"L{level} {ctype}"] = read(f"{base}/{index}/size").strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ram_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "cpu_model": model,
        "caches_per_core": caches,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    text = text.strip()
    return int(text[:-1]) * units[text[-1]] if text and text[-1] in units else int(text or 0)


def workload_record(done, host) -> dict:
    by_kind, orders, seen, repeats, top = {}, {}, set(), 0, None
    for job in done:
        by_kind[job.kind] = by_kind.get(job.kind, 0) + 1
        if job.order is not None:
            hist = orders.setdefault(job.kind, {})
            hist[job.order] = hist.get(job.order, 0) + 1
        repeats += job.key in seen
        seen.add(job.key)
        m = jobs.KINDS[job.kind].table_order(job)
        top = m if m is not None and (top is None or m > top) else top
    l2 = _size_bytes(host["caches_per_core"].get("L2 Unified", "0"))
    table_bytes = ((1 << top) + 1) * 8 if top is not None else 0
    return {
        "seed": ARGS.seed,
        "jobs_by_kind": by_kind,
        "orders_by_kind": orders,
        "repeat_share": repeats / len(done),
        "largest_table_order": top,
        "largest_table_bytes": table_bytes,
        "l2_bytes_per_core": l2,
        "largest_table_over_l2": table_bytes / l2 if l2 else None,
    }


def traced_phase(ctx, done, times_a, rss_a) -> dict:
    """Replay the untraced jobs with spans on; per-layer metrics and dominance."""
    tracer = tracing.Tracer()
    tracing.install(tracer, rscorr)
    times_b, errors_b = [], []
    for i, job in enumerate(done):
        tracer.job_id = i
        elapsed, error = run_job(ctx, job, tracer)
        times_b.append(elapsed)
        errors_b.append(error)
    spans = tracing.Spans(tracer)
    os.makedirs(os.path.join(ARGS.root, ".perfbench_out"), exist_ok=True)
    spans.save(os.path.join(ARGS.root, ".perfbench_out",
                            f"spans-{ARGS.workload}-seed{ARGS.seed}.npz"))
    layers = tracing.layer_metrics(spans, tracer, sum(times_b))
    untraced = len(done) / sum(times_a)
    traced = len(done) / sum(times_b)
    layers.update({
        "trace.jobs_per_s": traced,
        "trace.untraced_jobs_per_s": untraced,
        "trace.overhead_frac": untraced / traced - 1.0,
    })
    lat = np.array(times_a)
    p40, p60, p90 = np.percentile(lat, [40, 60, 90])
    peak_job = next(i for i, r in enumerate(rss_a) if r == rss_a[-1])
    groups = {
        "jobs_per_s": range(len(done)),
        "job_p50_ms": [i for i, t in enumerate(lat) if p40 <= t <= p60],
        "job_p90_ms": [i for i, t in enumerate(lat) if t >= p90],
        "peak_rss_mb": [peak_job],
    }
    dominance = {k: tracing.dominant(spans, ids, times_b) for k, ids in groups.items()}
    return {"layers": layers, "dominance": dominance, "traced_errors": errors_b,
            "peak_rss_job": f"{done[peak_job].kind}({done[peak_job].order})"}


def main() -> None:
    global ARGS
    ARGS = _args()
    t = _import_all()
    ctx = jobs.Context(os.path.join(ARGS.root, ".perfbench_tmp", f"{os.getpid()}"))
    os.makedirs(ctx.tmp_dir, exist_ok=True)
    warm_up(ctx)
    ready = _mark("warm-up", t)
    result = {"setup_s": ready - ARGS.t0, "setup_parts": dict(SETUP_PARTS)}
    if not ARGS.setup_only:
        rng = random.Random(ARGS.seed)
        seconds = ARGS.seconds / 2 if ARGS.trace else ARGS.seconds
        done, times, errors, rss = loop(ctx, rng, seconds, ready)
        host = host_record()
        result.update({
            "metrics": e2e_metrics(times, errors, rss),
            "attempted": len(done),
            "timed_jobs": len(done),
            "failures": [f"{j.kind}({j.order}): {e}" for j, e in zip(done, errors) if e],
            "job_ms": [[j.kind, j.order, t * 1e3] for j, t in zip(done, times)],
            "host": host,
            "workload": workload_record(done, host),
        })
        if ARGS.trace:
            traced = traced_phase(ctx, done, times, rss)
            result["attempted"] += len(done)
            result["failures"] += [f"traced {j.kind}({j.order}): {e}"
                                   for j, e in zip(done, traced.pop("traced_errors")) if e]
            result.update(traced)
    for name in os.listdir(ctx.tmp_dir):
        os.remove(os.path.join(ctx.tmp_dir, name))
    os.rmdir(ctx.tmp_dir)
    with open(ARGS.result, "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
