"""Benchmark of the rscorr package: one workload per call, or all of them.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each call starts fresh Python processes one after another, never two at a
time: several set-up probes, then one process that runs the workload's job
loop (``worker.py``).  BLAS is pinned to one thread in all of them.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  With ``--trace 0`` the metrics are the ``end_to_end``
metrics of ``BENCHMARK.json``, with ``--trace 1`` its ``per_layer`` ones.
``--workload all`` runs every workload untraced and traced and prefixes
each metric with the workload's name.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ladder", "search", "crosscheck")
#: Confirm claims on this seed only; never tune on it.
HELD_OUT_SEED = 104729
#: Fresh processes that only set up; with the worker's own, the median of six.
SETUP_PROBES = 5
#: A call must end within 180 s; the worker gets what the probes left.
CALL_LIMIT_S = 170.0
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def spawn(out_dir: str, name: str, flags: list[str], timeout: float) -> dict:
    """Run one worker process to completion and return what it wrote."""
    result = os.path.join(out_dir, f"{name}.json")
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, "--result", result,
           "--t0", repr(t0)] + flags
    proc = subprocess.run(cmd, env=ENV, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited {proc.returncode}")
    with open(result) as fh:
        out = json.load(fh)
    os.remove(result)
    return out


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    flags = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)]
    probes = [spawn(out_dir, f"probe{i}", flags + ["--setup-only"], 60.0)
              for i in range(SETUP_PROBES)]
    left = CALL_LIMIT_S - (time.monotonic() - start)
    run = spawn(out_dir, f"{workload}-seed{seed}-trace{trace}", flags, left)
    samples = [p["setup_s"] for p in probes] + [run["setup_s"]]
    run["metrics"]["setup_s"] = statistics.median(samples)
    run["setup_samples"] = samples
    run["workload"]["held_out_seed"] = HELD_OUT_SEED
    with open(os.path.join(out_dir, f"record-{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(run, fh, indent=1)
    return run


def _top(ranked, n=3) -> str:
    return ", ".join(f"{m} {share:.0%}" for m, share in ranked[:n])


def report(workload: str, run: dict, trace: int) -> None:
    """The readable part of the output, before the JSON line."""
    m, w, h = run["metrics"], run["workload"], run["host"]
    n, failed = run["attempted"], len(run["failures"])
    print(f"== {workload}  seed={w['seed']}  trace={trace}  held-out seed={HELD_OUT_SEED}")
    print(f"host: {h['cpu_model']}, nproc={h['nproc']}, affinity={h['affinity']}, "
          f"RAM {h['ram_gib']} GiB, caches/core {h['caches_per_core']}, Python {h['python']}, "
          f"NumPy {h['numpy']} ({h['blas']}), BLAS threads {h['blas_threads']}")
    print(f"jobs by kind: {w['jobs_by_kind']}")
    print(f"orders/depths by kind: {w['orders_by_kind']}")
    print(f"repeat share (function, inputs): {w['repeat_share']:.3f}")
    print(f"largest table: order {w['largest_table_order']}, {w['largest_table_bytes']} B "
          f"= {w['largest_table_over_l2'] or 0:.3g} x L2 ({w['l2_bytes_per_core']} B per core)")
    print(f"setup samples s: {[round(s, 4) for s in run['setup_samples']]}  "
          f"parts: { {k: round(v, 4) for k, v in run['setup_parts'].items()} }")
    timed = run["timed_jobs"]
    print(f"jobs attempted {n}, failed {failed}, failed_frac {failed / n:.4g}; "
          f"p50/p90 over {timed} untraced jobs, {timed - -(-9 * timed // 10)} beyond p90")
    for key, value in m.items():
        print(f"  {key} = {value:.6g}")
    for line in run["failures"][:10]:
        print(f"FAILED {line}", file=sys.stderr)
    if trace:
        for key, value in run["layers"].items():
            print(f"  {key} = {value:.6g}")
        for key, ranked in run["dominance"].items():
            print(f"dominant self time for {key}: {_top(ranked)}")
        print(f"job that set peak_rss_mb: {run['peak_rss_job']}")
        parts = run["setup_parts"]
        print(f"dominant part of setup_s: {max(parts, key=parts.get)}")
        failing = sorted({line.split("(")[0] for line in run["failures"]})
        print(f"failed jobs behind ok_frac: {', '.join(failing) or 'none'}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def pick(spec_list, values: dict, prefix: str = "") -> dict:
    return {f"{prefix}{s['name']}": {"value": values[s["name"]], "unit": s["unit"]}
            for s in spec_list}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "rscorr", "__init__.py")):
        print(f"no rscorr sources under {ROOT}/src; run from a source checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    plan = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all"
            else [(args.workload, args.trace)])
    metrics, attempted, failed = {}, 0, 0
    for workload, trace in plan:
        run = measure(workload, args.seed, args.seconds, trace)
        report(workload, run, trace)
        attempted += run["attempted"]
        failed += len(run["failures"])
        prefix = f"{workload}." if args.workload == "all" else ""
        values = run["layers"] if trace else run["metrics"]
        metrics.update(pick(spec["per_layer" if trace else "end_to_end"], values, prefix))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
