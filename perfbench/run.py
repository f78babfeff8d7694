"""Decomposition benchmark: closed-loop runner over helmdecomp's public API.

One process runs one workload: one client, one op at a time, BLAS threads
pinned to the CPUs this process may use.  It runs ops for ``--seconds``
seconds and prints, as the last line of standard output, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the entry points are wrapped by ``tracer.py`` and the
metrics are the per-layer ones (spans are written to
``.perfbench_out/``).

    python3 perfbench/run.py --workload curved-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all          # every workload, untraced and traced

``--all`` prints each end-to-end metric by name with its unit and sample
count, the tracing overhead and the accuracy figures, and exits nonzero
when any op fails its correctness gate.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
# set-up (after imports) is repeated and its median reported
SETUP_REPEATS = 5


def _pin_threads():
    """Pin BLAS/OpenMP threads to the usable CPUs; must run before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(workload, seed, threads):
    import numpy

    from helmdecomp import _fast

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "git_sha": _git_sha(),
        "backend": "numba" if _fast._HAVE_NUMBA else "numpy",
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": metadata.version("scipy"),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace, spec):
    threads = _pin_threads()
    if not (ROOT / "src" / "helmdecomp" / "__init__.py").is_file():
        print(f"error: no helmdecomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import workloads

    import_s = time.perf_counter() - _T0
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    wl = workloads.make(name, workdir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            state = wl.setup(seed)
            inp = wl.prepare(state, 0)
            setups.append(time.perf_counter() - t)
        setup_s = import_s + _median(setups)

        tr = tracer.Tracer()
        if trace:
            tr.install()
        times, per_op, failed = [], [], 0
        start = time.perf_counter()
        while True:
            i = len(times)
            if i > 0:
                inp = wl.prepare(state, i)
            tr.op = i
            t = time.perf_counter()
            try:
                out = wl.run(state, inp)
            except Exception:  # a failed op is counted, never dropped
                out = None
                failed += 1
                traceback.print_exc()
            times.append(time.perf_counter() - t)
            tr.op = None
            accuracy = {}
            if out is not None:
                try:
                    accuracy = wl.check(state, inp, out)
                except workloads.GateFailure as exc:
                    failed += 1
                    print(f"op {i}: {exc}", file=sys.stderr)
                except Exception:  # output the gate cannot even read fails the op too
                    failed += 1
                    traceback.print_exc()
            if trace:
                m = tr.op_metrics(i)
                m.update({"accuracy." + k: v for k, v in accuracy.items()})
                m["trace.op_s"] = times[-1]
                m["trace.uncovered_s"] = times[-1] - m["trace.self_sum_s"]
                per_op.append(m)
            if time.perf_counter() - start + _median(times) > seconds:
                break
        tr.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    env = env_stamp(name, seed, threads)
    print("env: " + json.dumps(env, sort_keys=True))
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = tracer.median_metrics(per_op, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{name}-seed{seed}.json").write_text(json.dumps(
            {"env": env, "op_s": times, "spans": tr.to_list()}))
    else:
        values = {"op_s": _median(times), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"{name}: {len(times)} ops, {failed} failed, op_s samples "
          + " ".join(f"{t:.4f}" for t in times)
          + f"; setup_s = import {import_s:.4f} + median of "
          + " ".join(f"{t:.4f}" for t in setups))
    result = {
        "correct": failed == 0, "attempted": len(times), "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def run_all(names, seed, seconds):
    """Every workload, untraced then traced, as child processes; a summary table."""
    rc = 0
    rows = []
    for name in names:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name}: run failed with exit code {proc.returncode}", file=sys.stderr)
                return 1
            results.append(json.loads(lines[-1]))
        plain, traced = results
        n = plain["attempted"]
        fail_ratio = plain["failed"] / n
        if not (plain["correct"] and traced["correct"]):
            rc = 1
        for key, m in plain["metrics"].items():
            rows.append(f"{name:14s} {key:32s} {m['value']:14.6g} {m['unit']:6s} n={n}")
        rows.append(f"{name:14s} {'fail_ratio':32s} {fail_ratio:14.6g} {'1':6s} n={n}")
        tm = traced["metrics"]
        overhead = tm["trace.op_s"]["value"] - plain["metrics"]["op_s"]["value"]
        rows.append(f"{name:14s} {'trace.overhead_s':32s} {overhead:14.6g} {'s':6s} "
                    f"n={traced['attempted']}")
        for key, m in tm.items():
            if key.startswith("accuracy.") and m["value"] != 0.0:
                rows.append(f"{name:14s} {key:32s} {m['value']:14.6g} {m['unit']:6s} "
                            f"n={traced['attempted']}")
    print("\n".join(rows))
    return rc


def main(argv=None):
    if not SPEC_PATH.is_file():
        print(f"error: {SPEC_PATH} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.all:
        return run_all(names, args.seed, seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args.workload, args.seed, seconds, args.trace, spec)


if __name__ == "__main__":
    sys.exit(main())
