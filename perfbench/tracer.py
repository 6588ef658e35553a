"""Span tracing of the wmtrop layers, installed from outside the program.

`Tracer.install` replaces each function in `LAYERS` by a wrapper at every
name it is bound under: its defining module, and every `wmtrop` module
that imported it by name (such as `monodromy.kernel`).  Methods are
wrapped on their class.  `uninstall` puts the originals back.

Spans live on an in-memory stack; closing one adds its duration to the
parent's child time, so self time is duration minus child time.  Only
per-function aggregates are kept, never one record per span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

LAYERS = {
    "ratlin": [
        "_rref", "kernel", "image", "subspace_intersect", "subspace_sum", "contains",
        "apply_to_subspace", "solve", "char_poly", "RatPoly.eval_matrix", "Matrix.__mul__",
        "Matrix.det",
    ],
    "polyfactor": ["factor_rational", "squarefree_decomposition"],
    "monodromy": [
        "check_wmc", "monodromy_filtration", "weight_decomposition", "weil_weight",
        "check_commutation", "induced_quotient_matrix",
    ],
    "troplattice": ["lattice_hnf", "descriptor", "quotient_components", "dual_graph", "tower_preimages"],
    "tropbundle": ["construct_f", "verify_section", "TropicalSection.corner_value", "minimal_level", "ample_check"],
    "cli": ["run", "render_json", "parse_matrix", "parse_bundle", "parse_section"],
}  # fmt: skip

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# the call whose duration is reported per size rung, by CLI command
TOP_CALL = {
    "wmc-check": "monodromy.check_wmc",
    "weight-filtration": "monodromy.weight_decomposition",
    "bundle-verify-f": "tropbundle.verify_section",
}


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()  # bases and numerators of the ratios
        self.top_ms: defaultdict[str, list[float]] = defaultdict(list)  # rung -> durations
        self.top_name: str | None = None  # TOP_CALL of the job now running
        self.top_rung = ""
        self._stack: list[list[float]] = []  # child time of each open span
        self._open: Counter[str] = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, opened = self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            opened[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                opened[name] -= 1
                if stack:
                    stack[-1][0] += dur
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[0]
                if name == self.top_name:
                    self.top_ms[self.top_rung].append(dur * 1000)
            self._count(name, result)
            return result

        return span

    def _count(self, name: str, result) -> None:
        if name == "ratlin.subspace_intersect" and self._open["monodromy.monodromy_filtration"]:
            self.counts["intersections_in_filtration"] += 1
        elif name == "polyfactor.factor_rational":
            self.counts["factors"] += len(result)
        elif name == "tropbundle.verify_section":
            self.counts["faces"] += len(result.faces)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "wmtrop" or n.startswith("wmtrop.")]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"wmtrop.{mod_name}"]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._swap(cls, attr, original, self._wrap(name, original))
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._swap(module, attr, original, wrapper)

    def _swap(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, cycles: int) -> dict[str, float]:
        """Per-function calls, total and self milliseconds, per traced cycle."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name] / cycles
            out[f"{name}.total_ms"] = self.total[name] * 1000 / cycles
            out[f"{name}.self_ms"] = self.self_time[name] * 1000 / cycles
        return out

    def ratios(self) -> dict[str, tuple[float, int]]:
        """Each ratio with its base count."""

        def ratio(num: float, base: int) -> tuple[float, int]:
            return (num / base if base else 0.0), base

        return {
            "monodromy.intersections_per_filtration": ratio(
                self.counts["intersections_in_filtration"], self.calls["monodromy.monodromy_filtration"]
            ),
            "polyfactor.factors_per_call": ratio(self.counts["factors"], self.calls["polyfactor.factor_rational"]),
            "tropbundle.corner_value_per_face": ratio(
                self.calls["tropbundle.TropicalSection.corner_value"], self.counts["faces"]
            ),
        }
