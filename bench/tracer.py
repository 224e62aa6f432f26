"""Outside-in tracer for the purecomb modules.

The package's modules import each other's functions by name, so a function
is rebound in every ``purecomb`` module namespace that holds it, not only in
the module that defines it.  Nothing in the package itself is modified: the
wrappers are installed for the traced passes and the originals restored
afterwards.

A span is recorded only while an op is active (``Tracer.op`` is set), so the
benchmark's own output checks, which run between ops, leave no spans.
Spans are kept in memory as ``(name, start, end, parent, op)`` tuples and
reduced to per-function self time and call counts, plus work counts derived
from the arguments and results of a few functions.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (module, functions) to wrap; span names are "<module>.<function>".
WRAPPED = {
    "spaces": ("permute_systems", "apply_op", "contract_bra", "partial_trace",
               "is_unitary", "kron", "compose", "phase_distance"),
    "subspaces": ("from_spanning", "reduced_subspace", "image", "complement", "intersect",
                  "sum_subspaces", "product_subspace", "orthogonality_residual", "is_subset"),
    "families": ("spanning_family", "stability_vectors"),
    "choi": ("choi_of_unitary", "link_product", "plug_unitaries"),
    "combs": ("verify_pure_comb_unitary", "staircase_decompose", "verify_comb_choi",
              "compose_staircase"),
    "twoslot": ("verify_pure_superchannel", "global_p_decomposition", "global_f_decomposition",
                "direct_sum_decompose", "assemble", "trace_future_check"),
    "io": ("load_matrix", "save_matrix", "file_digest"),
    "cli": ("main",),
}

WORK_COUNTS = (
    "subspaces.from_spanning.in_cols",
    "subspaces.from_spanning.out_rank",
    "subspaces.reduced_subspace.in_cols",
    "families.vectors",
    "io.load_matrix.bytes",
    "io.save_matrix.bytes",
    "choi.choi_of_unitary.out_bytes",
)


def _columns(vectors) -> int:
    if isinstance(vectors, np.ndarray):
        return 1 if vectors.ndim == 1 else int(vectors.shape[1])
    return len(vectors)


def _count_from_spanning(counts, args, kwargs, result):
    counts["subspaces.from_spanning.in_cols"] += _columns(args[0] if args else kwargs["vectors"])
    counts["subspaces.from_spanning.out_rank"] += result.dim


def _count_reduced(counts, args, kwargs, result):
    counts["subspaces.reduced_subspace.in_cols"] += (args[0] if args else kwargs["w"]).dim


def _count_family(counts, args, kwargs, result):
    counts["families.vectors"] += len(result)


def _count_load(counts, args, kwargs, result):
    counts["io.load_matrix.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_save(counts, args, kwargs, result):
    counts["io.save_matrix.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _count_choi(counts, args, kwargs, result):
    counts["choi.choi_of_unitary.out_bytes"] += result.op.data.nbytes


COUNTERS = {
    "subspaces.from_spanning": _count_from_spanning,
    "subspaces.reduced_subspace": _count_reduced,
    "families.spanning_family": _count_family,
    "families.stability_vectors": _count_family,
    "io.load_matrix": _count_load,
    "io.save_matrix": _count_save,
    "choi.choi_of_unitary": _count_choi,
}


def span_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]


class Tracer:
    """Records spans and work counts for the wrapped purecomb functions."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, op)
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return wrapper

    def _count_calls(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every wrapped function in every loaded purecomb module."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "purecomb" or key.startswith("purecomb."))]
        for mod_name, fns in WRAPPED.items():
            home = sys.modules[f"purecomb.{mod_name}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, orig))
        # check_operator is counted, not timed: too small to time, its time
        # stays in the caller's self time
        layout_cls = sys.modules["purecomb.layouts"].SlotLayout
        orig = layout_cls.__dict__["check_operator"]
        layout_cls.check_operator = self._count_calls("layouts.check_operator.calls", orig)
        self._undo.append((layout_cls, "check_operator", orig))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def reset(self) -> None:
        """Drop the counts gathered so far; spans are kept for the final dump."""
        self.counts.clear()

    def summary(self, first_span: int) -> dict[str, float]:
        """Per-function calls and self time, per-module self time and work
        counts, over the spans recorded since index ``first_span``."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child[parent - first_span] += end - start
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for mod in WRAPPED:
            out[f"{mod}.self_s"] = 0.0
        for i, (name, start, end, _, _) in enumerate(spans):
            self_s = (end - start) - child[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{name.split('.')[0]}.self_s"] += self_s
        out["layouts.check_operator.calls"] = self.counts.get("layouts.check_operator.calls", 0)
        counts = {key: self.counts.get(key, 0) for key in WORK_COUNTS}
        in_cols = counts.pop("subspaces.from_spanning.in_cols")
        out_rank = counts.pop("subspaces.from_spanning.out_rank")
        out["subspaces.from_spanning.in_cols"] = in_cols
        # useful share of the SVD input: sum of output ranks over input columns
        out["subspaces.from_spanning.kept_ratio"] = out_rank / in_cols if in_cols else 0.0
        out.update(counts)
        return out
