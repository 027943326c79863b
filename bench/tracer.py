"""Outside-in span tracer for the schatlab benchmark.

The tracer edits nothing under ``src/``.  It replaces module attributes at
run time: every binding of a traced function in every loaded ``schatlab``
module (``from .matcore import schatten_norm`` makes a second binding in
``metrology``, ``twisted`` and ``centralizers``), Sampler methods on the
class, and the public ``numpy.linalg`` factorizations the package calls.
Spans stay in memory as tuples and are aggregated (and optionally written
out) only after the measured region ends.

A target that no longer exists, because a refactor moved or renamed it,
is recorded as absent; the metrics derived from it are then reported as
absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# (span name, home module, attribute path).  Several targets may share a
# span name; the name is the metric prefix.  Only the public numpy.linalg
# names are wrapped, so factorizations numpy makes internally (the SVD
# inside pinv or matrix_rank) count toward their caller, not lapack.svd.
TARGETS = (
    ("matcore.schmidt", "schatlab.matcore", "schmidt"),
    ("matcore.schatten_norm", "schatlab.matcore", "schatten_norm"),
    ("matcore.mat_to_json", "schatlab.matcore", "mat_to_json"),
    ("matcore.mat_from_json", "schatlab.matcore", "mat_from_json"),
    ("lapack.svd", "numpy.linalg", "svd"),
    ("lapack.qr", "numpy.linalg", "qr"),
    ("lapack.eigh", "numpy.linalg", "eigh"),
    ("lapack.pinv", "numpy.linalg", "pinv"),
    ("seqcore.kp_phi", "schatlab.seqcore", "kp_phi"),
    ("seqcore.kp_phi_rows", "schatlab.seqcore", "kp_phi_rows"),
    ("seqcore.lp_norm", "schatlab.seqcore", "lp_norm"),
    ("centralizers.evaluate", "schatlab.centralizers", "evaluate"),
    ("centralizers.frame_ambiguous", "schatlab.centralizers", "frame_ambiguous"),
    ("twisted.twisted_quasinorm", "schatlab.twisted", "twisted_quasinorm"),
    ("twisted.quasinorm_modulus_probe", "schatlab.twisted", "quasinorm_modulus_probe"),
    ("metrology.sampler", "schatlab.metrology", "Sampler.unit_sphere"),
    ("metrology.sampler", "schatlab.metrology", "Sampler.contraction"),
    ("metrology.sampler", "schatlab.metrology", "Sampler.gaussian_block"),
    ("metrology.estimate_constant", "schatlab.metrology", "estimate_constant"),
    ("metrology.fit_morphism", "schatlab.metrology", "fit_morphism"),
    ("metrology.gamma_summing_mc", "schatlab.metrology", "gamma_summing_mc"),
    ("metrology.reevaluate_witness", "schatlab.metrology", "reevaluate_witness"),
    ("experiments.run_experiment", "schatlab.experiments", "run_experiment"),
    ("cli.write", "schatlab.ioutil", "write_json"),
    ("cli.write", "schatlab.ioutil", "write_csv"),
    ("cli.read", "schatlab.ioutil", "read_json"),
    ("cli.run_config", "schatlab.cli", "run_config"),
    ("cli.main", "schatlab.cli", "main"),
)

LAPACK_OPS = ("svd", "qr", "eigh", "pinv")

# spans that only frame the benchmark's own loop; their self time is work
# no layer claims
ROOT_SPANS = ("cli.run_config", "cli.main")


def metric_spans(metric: str) -> set[str]:
    """Span names a per-layer metric is derived from."""
    spans = {name for name, _, _ in TARGETS
             if metric.startswith((name + ".", name + "_"))}
    if "per_sample." in metric:
        spans.add("metrology.estimate_constant")
    return spans


def _shape_tag(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    return tuple(getattr(a, "shape", ()))


def _estimate_tag(sig):
    def tag(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        sampler = bound.arguments["sampler"]
        return (bound.arguments["kind"], int(sampler.dim), str(sampler.tag),
                int(bound.arguments["n_samples"]))
    return tag


class Tracer:
    """Span recorder: (name, tag, start, end, parent index) per call."""

    def __init__(self, only: tuple[str, ...] | None = None):
        self.only = only
        self.spans: list = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn, tag_fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tag = None
                if tag_fn is not None:
                    try:
                        tag = tag_fn(args, kwargs)
                    except (TypeError, KeyError, AttributeError, ValueError):
                        tag = None
                spans[idx] = (name, tag, t0, t1, parent)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> "Tracer":
        found: dict[str, bool] = defaultdict(bool)
        for name, module_name, path in TARGETS:
            if self.only is not None and name not in self.only:
                continue
            found[name] |= self._install_one(name, module_name, path)
        self.absent = {name for name, ok in found.items() if not ok}
        return self

    def _install_one(self, name, module_name, path) -> bool:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if not callable(orig):
            return False
        tag_fn = None
        if name.startswith("lapack."):
            tag_fn = _shape_tag
        elif name == "metrology.estimate_constant":
            tag_fn = _estimate_tag(inspect.signature(orig))
        wrapped = self._wrap(name, orig, tag_fn)
        if isinstance(owner, type):
            self._rebind(owner, attr, orig, wrapped)
            return True
        # every binding of the same function object, in the home module and
        # in each schatlab module that imported it by name
        modules = [owner] + [m for key, m in list(sys.modules.items())
                             if m is not None and m is not owner
                             and (key == "schatlab" or key.startswith("schatlab."))]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    self._rebind(module, key, orig, wrapped)
        return True

    def _rebind(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path) -> None:
        """Write the recorded spans, one JSON array per line:
        name, tag, start, end, index of the parent span (-1 for none)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Aggregate:
    """Per-name totals derived from a finished span list."""

    def __init__(self, spans):
        if any(s is None for s in spans):
            raise ValueError("aggregate spans only after every traced call returned")
        self.spans = spans
        n = len(spans)
        covered = [0.0] * n
        for name, tag, t0, t1, parent in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        # nearest estimate_constant ancestor, and whether a frame_ambiguous
        # call encloses the span; parents always precede their children
        self.estimate = [-1] * n
        self.in_frame_check = [False] * n
        for i, (name, tag, t0, t1, parent) in enumerate(spans):
            self.calls[name] += 1
            self.self_s[name] += (t1 - t0) - covered[i]
            same_name_outer = False
            if parent >= 0:
                self.estimate[i] = self.estimate[parent]
                self.in_frame_check[i] = self.in_frame_check[parent]
                same_name_outer = self._has_ancestor(i, name)
            if not same_name_outer:
                self.total_s[name] += t1 - t0
            if name == "metrology.estimate_constant":
                self.estimate[i] = i
            elif name == "centralizers.frame_ambiguous":
                self.in_frame_check[i] = True

    def _has_ancestor(self, i, name) -> bool:
        parent = self.spans[i][4]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][4]
        return False

    def estimates(self):
        """(kind, dim, tag, n_samples, seconds) for each estimate span."""
        return [(*s[1], s[3] - s[2]) for s in self.spans
                if s[0] == "metrology.estimate_constant" and s[1] is not None]

    def lapack_counts(self) -> dict:
        """LAPACK calls inside estimates, keyed by (sampler tag, kind).

        Each entry holds the sample and estimate totals, the calls made
        while drawing and scoring samples, and under ``frame_check`` the
        calls made by the witness's ``frame_ambiguous`` check, which runs
        once per estimate rather than once per sample.
        """
        table: dict = {}

        def entry(key):
            if key not in table:
                table[key] = {"samples": 0, "estimates": 0,
                              **{op: 0 for op in LAPACK_OPS},
                              "frame_check": {op: 0 for op in LAPACK_OPS}}
            return table[key]

        for kind, dim, tag, n_samples, _ in self.estimates():
            e = entry((tag, kind))
            e["samples"] += n_samples
            e["estimates"] += 1
        for i, (name, tag, t0, t1, parent) in enumerate(self.spans):
            if not name.startswith("lapack.") or self.estimate[i] < 0:
                continue
            estimate_tag = self.spans[self.estimate[i]][1]
            if estimate_tag is None:
                continue
            kind, dim, stag, _ = estimate_tag
            e = entry((stag, kind))
            op = name.split(".", 1)[1]
            if self.in_frame_check[i]:
                e["frame_check"][op] += 1
            else:
                e[op] += 1
        return table

    def svd_work(self) -> int:
        """Sum of m*n*min(m, n) over SVD call shapes (batch dims multiply)."""
        work = 0
        for name, tag, *_ in self.spans:
            if name == "lapack.svd" and tag and len(tag) >= 2:
                batch = 1
                for d in tag[:-2]:
                    batch *= d
                m, n = tag[-2], tag[-1]
                work += batch * m * n * min(m, n)
        return work
