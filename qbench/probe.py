"""What the benchmark knows about threshq's insides: its modules, its memos
and the functions that mark each layer.

Everything here is found by scanning the package at run time, so the
benchmark keeps working when a later change adds, renames or deletes a memo
or a layer function.  Nothing in this file changes what threshq computes:
memos are only cleared, and layer wrappers only time the call they forward.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from types import ModuleType

# (layer metric prefix, defining module, function name).  The metric prefix
# names the module that owns the work, so a per-layer number can be traced
# back to one file.
LAYERS = (
    ("bounds.classify", "bounds", "classify_q"),
    ("bounds.gate", "bounds", "ortho_gate"),
    ("bounds.q2cert", "bounds", "q2_certificate"),
    ("gram.orthocert", "gram", "orthogonal_certificate"),
    ("bounds.chain", "bounds", "chain_certificate"),
    ("bounds.section12", "bounds", "ub_section12"),
    ("gram.dup", "gram", "dup_realization"),
    ("gram.jdup", "gram", "jdup_realization"),
    ("gram.construct", "gram", "construct_library"),
    ("bounds.transfer", "bounds", "transfer_certificate"),
    ("sequences.unique_path", "sequences", "unique_path_bound"),
    ("sequences.creation_order", "sequences", "creation_order_of"),
    ("spectra.in_pattern", "spectra", "in_pattern"),
    ("spectra.cluster", "spectra", "cluster_spectrum"),
    ("spectra.eigensolve", "spectra", "eigen_sym"),
    ("bounds.verify", "bounds", "verify_certificate"),
    ("orthosearch.ssp", "orthosearch", "ssp_check"),
    ("orthosearch.verify_infeasible", "orthosearch", "verify_infeasible"),
)

# Certificate kinds reported as bounds.verify.<kind>; a kind the classifier
# does not produce on a workload reports zero calls.
CERT_KINDS = ("ConnectedLB", "DiameterLB", "TraceLB", "Compare1LB",
              "OrthoUB", "ConstructionUB", "DupChainUB", "TableCitation")
GATE_OUTCOMES = ("feasible", "infeasible", "unknown")


def package_modules(package: ModuleType) -> list[ModuleType]:
    """The package itself followed by every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def find_memos(modules) -> list:
    """Every function defined in one of `modules` that has cache_clear()."""
    return [obj for mod in modules for obj in vars(mod).values()
            if callable(getattr(obj, "cache_clear", None))
            and getattr(obj, "__module__", None) == mod.__name__]


def clear_memos(memos) -> tuple[int, int]:
    """Clear every memo; return the (hits, misses) they had counted."""
    hits = misses = 0
    for memo in memos:
        info = getattr(memo, "cache_info", None)
        if info is not None:
            ci = info()
            hits += ci.hits
            misses += ci.misses
        memo.cache_clear()
    return hits, misses


def require_empty(memos) -> None:
    """Raise unless every memo is empty: a timed region must start cold."""
    full = [m.__qualname__ for m in memos
            if hasattr(m, "cache_info") and m.cache_info().currsize]
    if full:
        raise RuntimeError(f"memo not empty at a timed region: {', '.join(full)}")


class LayerTracer:
    """Spans around calls into each layer, kept in memory.

    install() rebinds every name that refers to a layer function, in every
    module of the package, to a wrapper that records (name, parent, start,
    end, detail); uninstall() puts the original objects back.
    """

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[tuple[str, int, float, float, object]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[ModuleType, str, object]] = []

    def install(self) -> None:
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in self.modules}
        for layer, modname, fname in LAYERS:
            orig = getattr(by_name.get(modname), fname, None)
            if orig is None:
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, orig)
            for mod in self.modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, parent, start, end, _detail(layer, args, kwargs, out))

        traced.__wrapped__ = fn
        return traced


def _detail(layer: str, args, kwargs, out):
    """Per-call fact a layer metric needs: the gate's outcome, the
    certificate kind being verified, or the eigensolve's matrix order."""
    if layer == "bounds.gate":
        return type(out).__name__.lower()
    if layer == "bounds.verify":
        cert = args[1] if len(args) > 1 else kwargs["cert"]
        return cert.kind
    if layer == "spectra.eigensolve":
        A = args[0] if args else kwargs["A"]
        return len(A)
    return None


def layer_names() -> list[str]:
    """Every layer the tracer can report, in report order."""
    names = []
    for layer, _, _ in LAYERS:
        if layer == "bounds.verify":
            names += [f"bounds.verify.{kind}" for kind in CERT_KINDS]
        else:
            names.append(layer)
    return names


def summarize(spans) -> dict[str, float | int]:
    """Per-layer calls and self time (span minus its child spans), plus the
    gate outcome counts and the mean eigensolve order."""
    child = [0.0] * len(spans)
    for layer, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float | int] = {}
    for name in layer_names():
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for outcome in GATE_OUTCOMES:
        out[f"bounds.gate.{outcome}"] = 0
    orders = 0
    for i, (layer, _, start, end, detail) in enumerate(spans):
        name = f"bounds.verify.{detail}" if layer == "bounds.verify" else layer
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - child[i])
        if layer == "bounds.gate":
            key = f"bounds.gate.{detail}"
            out[key] = out.get(key, 0) + 1
        elif layer == "spectra.eigensolve":
            orders += detail
    calls = out["spectra.eigensolve.calls"]
    out["spectra.eigensolve.mean_order"] = orders / calls if calls else 0.0
    return out
