"""Self-tests of the benchmark itself, at a small size.

    python3 perfbench/selftest.py

Checks that tracing changes no output bit, that the spans and counts the
per-layer metrics rest on fire where they should and repeat exactly, that
the correctness gate rejects a wrong answer, and that run.py refuses
to run without the program's sources.  Runs every check and exits nonzero
if any failed.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
NORMS_ONLY = {"fast.gagliardo_pairs", "sobolev.gagliardo_half"}


def _snapshot(inp, out):
    """Everything an op produced, in a form compared bit for bit."""
    if isinstance(out, int):  # curved-cold: CLI exit code plus the files it wrote
        files = sorted((inp["dir"] / "out").iterdir())
        return [out] + [(f.name, f.read_bytes()) for f in files]
    if isinstance(out, tuple):  # decompose + verify
        res, rep = out
        return [res.v0.data.tobytes(), res.grad_q1.data.tobytes(),
                res.grad_q2.data.tobytes(), res.residual_div, res.residual_normal,
                json.dumps(rep.to_dict())]
    return sorted((k, float(v).hex()) for k, v in out.items())


def _op(wl, state, i, tr=None):
    """Run op i (traced when a tracer is given); return (snapshot, per-op metrics)."""
    inp = wl.prepare(state, i)
    if tr is not None:
        tr.op = i
    try:
        out = wl.run(state, inp)
    finally:
        if tr is not None:
            tr.op = None
    snap = _snapshot(inp, out)
    wl.check(state, inp, out)
    return snap, (tr.op_metrics(i) if tr is not None else None)


def _traced_op(wl, state, i):
    tr = tracer.Tracer()
    tr.install()
    try:
        return _op(wl, state, i, tr), tr
    finally:
        tr.uninstall()


def _counts(metrics):
    return {k: v for k, v in metrics.items()
            if not (k.endswith(".s") or k.endswith("_s") or k.endswith("ns_per_pair"))}


def _workload_names():
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_tracing_changes_no_output():
    for name in _workload_names():
        wl = workloads.make(name, WORK / name, small=True)
        state = wl.setup(3)
        plain, _ = _op(wl, state, 0)
        (traced, _), _ = _traced_op(wl, state, 0)
        assert plain == traced, f"{name}: traced output differs from untraced"


def test_every_span_fires_on_curved_cold():
    wl = workloads.make("curved-cold", WORK / "cold", small=True)
    state = wl.setup(4)
    _, tr = _traced_op(wl, state, 0)
    fired = {s.name for s in tr.spans}
    expected = {name for name, *_ in tracer.SPANS} - NORMS_ONLY
    assert expected <= fired, f"spans that never fired: {sorted(expected - fired)}"


def test_flat_bypasses_s():
    wl = workloads.make("flat96", WORK / "flat", small=True)
    state = wl.setup(5)
    (_, m), _ = _traced_op(wl, state, 0)
    assert m["fast.dir_gradslp_rows.pairs"] == 0
    assert m["neumann.estimate_contraction.apply_S_calls"] == 1
    assert m["layers.apply_S.dense_bytes"] == 0


def test_counts_repeat_exactly():
    for name in ("curved-cold", "norms"):
        wl = workloads.make(name, WORK / name, small=True)
        state = wl.setup(6)
        (_, first), _ = _traced_op(wl, state, 1)
        (_, second), _ = _traced_op(wl, state, 1)
        assert _counts(first) == _counts(second), f"{name}: counts differ between runs"
        assert first["trace.self_sum_s"] > 0


def test_self_times_cover_the_op():
    wl = workloads.make("curved-stream", WORK / "stream", small=True)
    state = wl.setup(7)
    inp = wl.prepare(state, 0)
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.op = 0
        t = time.perf_counter()
        wl.run(state, inp)
        wall = time.perf_counter() - t
        tr.op = None
    finally:
        tr.uninstall()
    covered = tr.op_metrics(0)["trace.self_sum_s"]
    assert 0.0 < wall - covered < 0.02 * wall, (wall, covered)


def test_per_layer_metrics_are_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set()
    for name in _workload_names():
        wl = workloads.make(name, WORK / name, small=True)
        state = wl.setup(8)
        (_, m), _ = _traced_op(wl, state, 0)
        produced |= set(m)
    produced |= {"accuracy." + k for k in
                 ("leak_ratio", "residual_div", "residual_normal", "gagliardo_dev")}
    produced |= {"trace.op_s", "trace.uncovered_s"}
    missing = {m["name"] for m in spec["per_layer"]} - produced
    assert not missing, f"declared per-layer metrics never produced: {sorted(missing)}"


def test_dft_pair_count():
    # 48^2 lattice, 4 origin rings, 4x4 subcells: 49 cells, 784 subfrequencies
    from helmdecomp.sobolev import BoundaryDensity

    f = BoundaryDensity(8.0, np.zeros((48, 48)))
    args = {"f": f, "s": -0.5, "origin_rings": 4, "sub": 4}
    assert tracer._dft_pairs(args, None) == {"dft_pairs": 784 * 48 * 48}
    assert tracer._dft_pairs(dict(args, s=0.5), None) == {"dft_pairs": 0}


def test_gate_rejects_a_wrong_answer():
    wl = workloads.make("curved-stream", WORK / "gate", small=True)
    state = wl.setup(9)
    v = wl.prepare(state, 0)
    try:
        workloads._gate_decomposition(True, v, v.data, 0.0, 0.0)
    except workloads.GateFailure:
        pass
    else:
        raise AssertionError("a field that did not vanish passed the gate")
    try:
        workloads._gate_decomposition(False, v, 0.0 * v.data, 0.0, 0.0)
    except workloads.GateFailure:
        pass
    else:
        raise AssertionError("a failed verify passed the gate")


def test_refuses_to_run_without_sources():
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "norms",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main():
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    try:
        for name, fn in tests:
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail the run
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        if WORK.parent.exists() and not any(WORK.parent.iterdir()):
            WORK.parent.rmdir()
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
