"""Span tracer that wraps helmdecomp's public entry points from outside.

The tracer replaces the module attributes callers look up (for example
``helmdecomp.neumann.apply_S`` or ``helmdecomp._fast.gradslp_sum``) and the
methods of two classes with wrappers that record one span per call: name,
start, end and the enclosing span.  Spans stay in memory and are written
out once, when the run ends.  Counts and byte sizes are computed from the
call's arguments (and, for the series solve, from the returned record),
never from program internals, so they repeat exactly for a given input.

Nothing is recorded outside an op (``Tracer.op is None``), so input
generation and correctness checks never show up as layer time.
"""

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict


def _pairs(xs_key, ys_key):
    def count(args, _result):
        return {"pairs": len(args[xs_key]) * len(args[ys_key])}
    return count


def _gagliardo_pairs(args, _result):
    m = len(args["coords"])
    return {"pairs": m * (m - 1)}


def _dft_pairs(args, _result):
    """Direct-sum DFT pairs of the s = -1/2 origin refinement.

    Cells whose centre lies within ``origin_rings`` frequency spacings of
    the origin are split into ``sub``^2 subfrequencies, each a full sum over
    the ``res``^2 lattice; the other orders use the FFT only.
    """
    f = args["f"]
    if args["s"] != -0.5:
        return {"dft_pairs": 0}
    rings = int(args["origin_rings"])
    # fftfreq index range of the lattice, cut to the rings around the origin
    ks = range(max(-(f.res // 2), -rings), min(f.res - f.res // 2, rings + 1))
    near = sum(1 for i in ks for j in ks if i * i + j * j <= rings * rings)
    return {"dft_pairs": near * args["sub"] ** 2 * f.res * f.res}


def _dense_bytes(args, _result):
    # a flat boundary has S == 0 and no matrix to hold
    if args["hs"].boundary.is_flat:
        return {"dense_bytes": 0}
    nodes = args["q"].res ** 2
    return {"dense_bytes": nodes * nodes * 8}


def _fft_bytes(args, _result):
    # one complex128 array on the 2x zero-padded grid
    size = 1
    for r in args["v"].grid.resolution:
        size *= 2 * r
    return {"fft_bytes": size * 16}


def _series(_args, result):
    return {"terms": result.series_terms_used, "residual": result.residual}


def _field_bytes(args, _result):
    return {"bytes": args["field"].data.size * 8}


# (span name, module, attribute path, count function)
SPANS = [
    ("fast.gradslp_sum", "helmdecomp._fast", "gradslp_sum", _pairs("xs", "nodes")),
    ("fast.dir_gradslp_rows", "helmdecomp._fast", "dir_gradslp_rows", _pairs("xs", "nodes")),
    ("fast.gagliardo_pairs", "helmdecomp._fast", "gagliardo_pairs", _gagliardo_pairs),
    ("neumann.estimate_contraction", "helmdecomp.neumann", "estimate_contraction", None),
    ("neumann.solve_density", "helmdecomp.neumann", "solve_density", _series),
    ("layers.SurfaceQuadrature", "helmdecomp.layers", "SurfaceQuadrature.__init__", None),
    ("layers.apply_S", "helmdecomp.layers", "apply_S", _dense_bytes),
    ("sobolev.hs_norm_fourier", "helmdecomp.sobolev", "hs_norm_fourier", _dft_pairs),
    ("sobolev.gagliardo_half", "helmdecomp.sobolev", "gagliardo_half", None),
    ("sobolev.vbmol2_norm", "helmdecomp.sobolev", "vbmol2_norm", None),
    ("pipeline.volume_potential_grad", "helmdecomp.pipeline", "volume_potential_grad", _fft_bytes),
    ("pipeline.normal_trace", "helmdecomp.pipeline", "normal_trace", None),
    ("pipeline.resample_density", "helmdecomp.pipeline", "resample_density", None),
    ("pipeline.verify", "helmdecomp.pipeline", "verify", None),
    ("pipeline.decompose", "helmdecomp.pipeline", "decompose", None),
    ("pipeline.read_field", "helmdecomp.pipeline", "read_field", None),
    ("pipeline.write_field", "helmdecomp.pipeline", "write_field", _field_bytes),
    ("geometry.PerturbedHalfSpace", "helmdecomp.geometry", "PerturbedHalfSpace.__init__", None),
    ("geometry.extend_field", "helmdecomp.geometry", "extend_field", None),
    ("geometry.signed_distance", "helmdecomp.geometry",
     "PerturbedHalfSpace.signed_distance", None),
    ("geometry.project_to_boundary", "helmdecomp.geometry",
     "PerturbedHalfSpace.project_to_boundary", None),
    ("geometry.interp_masked", "helmdecomp.geometry", "interp_masked", None),
    ("cli.main", "helmdecomp.cli", "main", None),
]

# per-op values that are sizes of one array, so repeated calls take the max
_MAX_KEYS = {"layers.apply_S.dense_bytes", "pipeline.volume_potential_grad.fft_bytes"}


class Span:
    __slots__ = ("name", "op", "start", "end", "parent", "counts")

    def __init__(self, name, op, parent):
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.counts = None

    def to_dict(self):
        return {"name": self.name, "op": self.op, "start": self.start, "end": self.end,
                "parent": self.parent, "counts": self.counts}


class Tracer:
    """Records spans for calls made while ``op`` is set; see the module doc."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, count):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(name, self.op, self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(bound.arguments, result)
            return result

        return wrapper

    def install(self):
        """Swap every traced entry point for its wrapper, in every module."""
        for name, modname, attr, count in SPANS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig, count))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, count)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("helmdecomp"):
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            setattr(other, key, wrapped)
                            self._undo.append((other, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def op_metrics(self, op):
        """Per-layer values of one op: inclusive seconds, self seconds, counts."""
        idx = [i for i, s in enumerate(self.spans) if s.op == op]
        child_time = defaultdict(float)
        for i in idx:
            s = self.spans[i]
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out = defaultdict(float)
        self_total = 0.0
        first_apply = None
        for i in idx:
            s = self.spans[i]
            dur = s.end - s.start
            self_s = dur - child_time[i]
            self_total += self_s
            out[s.name + ".s"] += dur
            out[s.name + ".self_s"] += self_s
            out[s.name + ".calls"] += 1
            for key, val in (s.counts or {}).items():
                full = f"{s.name}.{key}"
                out[full] = max(out[full], val) if full in _MAX_KEYS else out[full] + val
            if s.name == "layers.apply_S":
                if first_apply is None:
                    first_apply = dur
                if self._has_ancestor(s, "neumann.estimate_contraction"):
                    out["neumann.estimate_contraction.apply_S_calls"] += 1
        out["layers.apply_S.first_s"] = first_apply or 0.0
        pairs = out["fast.gradslp_sum.pairs"]
        out["fast.gradslp_sum.ns_per_pair"] = (
            1e9 * out["fast.gradslp_sum.s"] / pairs if pairs else 0.0)
        out["trace.self_sum_s"] = self_total
        return out

    def _has_ancestor(self, span, name):
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def to_list(self):
        return [s.to_dict() for s in self.spans]


def median_metrics(per_op, names):
    """Median over ops of each named per-op value (0 where a layer never ran)."""
    return {n: statistics.median(m.get(n, 0.0) for m in per_op) for n in names}
