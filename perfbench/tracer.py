"""Outside-in span tracer for the qboson_kit layers.

The tracer wraps the public functions of each layer module, and the algebra
methods of `LinearOperator`, from the benchmark's side: no file of the
package changes.  Modules import functions by name (`from .fock import
relation_residual`), so every module binding of a wrapped function is
replaced, not only the one in its home module.  `uninstall` restores every
binding it replaced.

Spans are kept in memory as `[name, start, end, parent, iteration]` lists and
written out at the end.  A span's self time is its duration minus the time
its child spans cover.  Bookkeeping for the counters runs in spans named
`trace.bookkeeping`, so it is not charged to any layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MARKER = "__perfbench_wrapped__"
ROOT_SPAN = "iteration"
BOOKKEEPING_SPAN = "trace.bookkeeping"

LAYER_MODULES = ("fock", "densities", "phase", "qboson", "multimode", "suites", "cli")

# Span names of fock functions that have their own per-layer metric group;
# every other public fock function falls into "fock.other".
FOCK_GROUPS = {
    "fock.matrix_norm": "fock.matrix_norm",
    "fock.relation_residual": "fock.relation_residual",
    "fock.safe_subspace_projector": "fock.safe_subspace_projector",
    "fock.expectation": "fock.expectation",
    "fock.operator_on_mode": "fock.construct",
    "fock.diagonal_operator": "fock.construct",
    "fock.identity_operator": "fock.construct",
    "fock.ladder": "fock.construct",
    "fock.LinearOperator.__matmul__": "fock.matmul",
    "fock.LinearOperator.__add__": "fock.linear_combo",
    "fock.LinearOperator.__sub__": "fock.linear_combo",
    "fock.LinearOperator.__mul__": "fock.linear_combo",
    "fock.LinearOperator.__rmul__": "fock.linear_combo",
    "fock.LinearOperator.__neg__": "fock.linear_combo",
    "fock.LinearOperator.adjoint": "fock.linear_combo",
}
OPERATOR_METHODS = ("__matmul__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__",
                    "adjoint", "apply", "trace", "toarray", "norm")
OWN_GROUPS = {"densities.mixture_density", "suites.run_suite", "suites.render_report",
              "cli.main"}


def group_of(span_name: str) -> str:
    """The per-layer metric group a span name is charged to."""
    if span_name in FOCK_GROUPS:
        return FOCK_GROUPS[span_name]
    if span_name in OWN_GROUPS or span_name in (ROOT_SPAN, BOOKKEEPING_SPAN):
        return span_name
    module = span_name.split(".")[0]
    if module in ("fock", "densities", "suites"):
        return f"{module}.other"
    return module


def _layer_modules():
    return {name: importlib.import_module(f"qboson_kit.{name}") for name in LAYER_MODULES}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_")):
            yield name, obj


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qboson_kit" or name.startswith("qboson_kit."))]


def installed_wrappers() -> list[str]:
    """Bindings that currently hold a tracer wrapper (empty when uninstalled)."""
    import scipy.sparse.linalg
    from qboson_kit.fock import LinearOperator

    found = [f"{m.__name__}.{name}" for m in _package_modules()
             for name, obj in vars(m).items() if getattr(obj, MARKER, False)]
    found += [f"LinearOperator.{name}" for name, obj in vars(LinearOperator).items()
              if getattr(obj, MARKER, False)]
    for owner, name in ((scipy.sparse.linalg, "svds"), (np.linalg, "norm")):
        if getattr(getattr(owner, name), MARKER, False):
            found.append(f"{owner.__name__}.{name}")
    return found


def foreign_functions(src_dir: str) -> list[str]:
    """Layer functions whose code does not come from the package sources.

    With no wrapper installed, `qboson_kit.fock.matrix_norm` and every other
    function the tracer would wrap must be the package's own function.
    """
    from qboson_kit.fock import LinearOperator

    bad = []
    for mod_name, module in _layer_modules().items():
        for name, fn in _public_functions(module):
            if not fn.__code__.co_filename.startswith(src_dir):
                bad.append(f"{mod_name}.{name}")
    for name in OPERATOR_METHODS:
        fn = vars(LinearOperator)[name]
        if not fn.__code__.co_filename.startswith(src_dir):
            bad.append(f"LinearOperator.{name}")
    return bad


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.iteration = None
        self.counts: dict = defaultdict(Counter)
        self._stack: list[int] = []
        self._projectors_seen: dict = defaultdict(set)
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.iteration]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                book = tracer.open(BOOKKEEPING_SPAN)
                after(args, kwargs, result)
                tracer.close(book)
            return result

        setattr(wrapper, MARKER, True)
        return wrapper

    # -- counters --------------------------------------------------------------

    def _after_matrix_norm(self, args, kwargs, result):
        counts = self.counts[self.iteration]
        kind = args[1] if len(args) > 1 else kwargs.get("kind", "spectral")
        if result == 0.0:
            counts["matrix_norm.zero_calls"] += 1
            return
        if kind != "spectral":
            return
        counts["matrix_norm.nonzero_spectral_calls"] += 1
        m = args[0].tocsr(copy=True)
        m.eliminate_zeros()
        per_row = np.diff(m.indptr)
        per_col = np.bincount(m.indices, minlength=m.shape[1])
        if per_row.max() <= 1 and per_col.max() <= 1:
            counts["matrix_norm.monomial_calls"] += 1

    def _after_matmul(self, args, kwargs, result):
        self.counts[self.iteration]["matmul.nnz_out"] += result.matrix.nnz

    def _after_projector(self, args, kwargs, result):
        space = args[0]
        margin = args[1] if len(args) > 1 else kwargs["margin"]
        key = (space.cutoffs, margin)
        seen = self._projectors_seen[self.iteration]
        if key in seen:
            self.counts[self.iteration]["safe_subspace_projector.rebuilds"] += 1
        seen.add(key)

    def _after_mixture(self, args, kwargs, result):
        dim = result.op.space.dimension
        self.counts[self.iteration]["mixture_density.dense_bytes"] += dim * dim * 16

    def _counting_svds(self, fn):
        tracer = self

        @functools.wraps(fn)
        def svds(*args, **kwargs):
            counts = tracer.counts[tracer.iteration]
            counts["matrix_norm.svds_calls"] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                # matrix_norm then falls back to a dense SVD, which
                # _counting_norm counts.
                counts["matrix_norm.svds_failures"] += 1
                raise

        setattr(svds, MARKER, True)
        return svds

    def _counting_norm(self, fn):
        tracer = self

        @functools.wraps(fn)
        def norm(x, ord=None, *args, **kwargs):
            stack = tracer._stack
            if (ord == 2 and np.ndim(x) == 2 and stack
                    and tracer.spans[stack[-1]][0] == "fock.matrix_norm"):
                tracer.counts[tracer.iteration]["matrix_norm.dense_svd_calls"] += 1
            return fn(x, ord, *args, **kwargs)

        setattr(norm, MARKER, True)
        return norm

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        import scipy.sparse.linalg
        from qboson_kit.fock import LinearOperator

        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {"fock.matrix_norm": self._after_matrix_norm,
                 "fock.safe_subspace_projector": self._after_projector,
                 "densities.mixture_density": self._after_mixture}
        wrappers = {}
        for mod_name, module in _layer_modules().items():
            for name, fn in _public_functions(module):
                span = f"{mod_name}.{name}"
                wrappers[id(fn)] = self._wrap(span, fn, after.get(span))
        for module in _package_modules():
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(module, name, wrappers[id(obj)])
        for name in OPERATOR_METHODS:
            fn = vars(LinearOperator)[name]
            hook = self._after_matmul if name == "__matmul__" else None
            self._patch(LinearOperator, name,
                        self._wrap(f"fock.LinearOperator.{name}", fn, hook))
        self._patch(scipy.sparse.linalg, "svds",
                    self._counting_svds(scipy.sparse.linalg.svds))
        self._patch(np.linalg, "norm", self._counting_norm(np.linalg.norm))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- analysis ----------------------------------------------------------------

    def self_times(self, first: int = 0) -> list[float]:
        """Self time of each span from index `first` on (a span and its children
        are recorded contiguously, so a slice that starts at a root is closed)."""
        spans = self.spans[first:]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= first:
                covered[parent - first] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]

    def summaries(self) -> dict:
        """Per iteration: self time and calls per group, calls per span name, counters."""
        out: dict = {}
        for rec, own in zip(self.spans, self.self_times()):
            name, _, _, parent, it = rec
            summary = out.setdefault(it, {"self_s": Counter(), "calls": Counter(),
                                          "by_name": Counter(),
                                          "counts": dict(self.counts[it]),
                                          "covariant_sign_probes": 0})
            group = group_of(name)
            summary["self_s"][group] += own
            summary["calls"][group] += 1
            summary["by_name"][name] += 1
            if (name == "multimode.covariant_relation_residuals" and parent >= 0
                    and self.spans[parent][0] == "multimode.covariant_bosons"):
                summary["covariant_sign_probes"] += 1
        return out
