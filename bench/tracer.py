"""Spans and counts around realgw's layer boundaries, recorded from outside.

``Tracer.install`` replaces every binding of each boundary function in the
loaded ``realgw`` modules (the defining module's and every ``from ... import``
copy) with a wrapper that counts the call and times it.  Nothing under
``src/`` changes, and the wrappers return what the wrapped function returns,
so stdout stays byte-identical.

Times are aggregated per span name: ``seconds`` counts only the outermost
span of a name, ``self_seconds`` is the span's duration minus the time its
child spans cover.  ``heavy_seconds`` is the time during which at least one
span of a ``heavy`` name is open, children included.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (span name, defining module, function, also wrap the defining module's
# own binding).  _kappa_value recurses through psi_kappa's binding; only the
# calls hodge makes into it cross the layer boundary.
BOUNDARIES = (
    ("exact_arith.gcd", "realgw.exact_arith", "poly_gcd", True),
    ("hodge.lambda_product", "realgw.hodge", "lambda_product_integral", True),
    ("hodge.hodge_integral", "realgw.hodge", "hodge_integral", True),
    ("hodge.alpha", "realgw.hodge", "alpha_coeff", True),
    ("series_ids.i1i2", "realgw.hodge", "i1", True),
    ("series_ids.i1i2", "realgw.hodge", "i2", True),
    ("psi_kappa", "realgw.psi_kappa", "_kappa_value", False),
    ("localization.enumerate", "realgw.localization", "enumerate_pairs", True),
    ("localization.iso", "realgw.localization", "isomorphic", True),
    ("localization.aut", "realgw.localization", "automorphism_order", True),
    ("localization.vertex", "realgw.localization", "vertex_contribution", True),
    ("localization.edge", "realgw.localization", "edge_contribution", True),
    ("localization.pair", "realgw.localization", "pair_contribution", True),
    ("localization.sum", "realgw.localization", "gw_real", True),
    ("series_ids.verify", "realgw.series_ids", "verify_identity", True),
    ("series_ids.verify", "realgw.series_ids", "check_conjecture", True),
    ("gw_convert.e_from_gw", "realgw.gw_convert", "e_from_gw", True),
)


class Tracer:
    def __init__(self, heavy=()) -> None:
        self.heavy = frozenset(heavy)
        self.calls: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.heavy_seconds = 0.0
        self.iso_matches = 0
        self.classes = 0
        self._enumerated: set[tuple] = set()
        self._children: list[float] = []  # child time of each open span
        self._open: Counter[str] = Counter()
        self._heavy_open = 0
        self._heavy_start = 0.0

    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "realgw"]
        observers = {
            "localization.iso": self._observe_iso,
            "localization.enumerate": self._observe_enumerate,
        }
        for name, module_name, attr, own_binding in BOUNDARIES:
            defining = sys.modules[module_name]
            fn = getattr(defining, attr)
            span = self._wrap(name, fn, observers.get(name))
            for module in modules:
                if module is defining and not own_binding:
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, span)
        return self

    def _observe_iso(self, args, result) -> None:
        self.iso_matches += bool(result)

    def _observe_enumerate(self, args, result) -> None:
        if args not in self._enumerated:
            self._enumerated.add(args)
            self.classes += len(result)

    def _wrap(self, name, fn, observe):
        clock = time.perf_counter
        children = self._children
        opened = self._open
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        heavy = name in self.heavy

        def span(*args, **kwargs):
            start = clock()
            if heavy:
                if not self._heavy_open:
                    self._heavy_start = start
                self._heavy_open += 1
            children.append(0.0)
            opened[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                calls[name] += 1
                self_seconds[name] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
                opened[name] -= 1
                if not opened[name]:
                    seconds[name] += elapsed
                if heavy:
                    self._heavy_open -= 1
                    if not self._heavy_open:
                        self.heavy_seconds += end - self._heavy_start
            if observe is not None:
                observe(args, result)
            return result

        span.__wrapped__ = fn
        return span

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one job; run.py sums them over a workload."""
        from realgw import hodge, localization, psi_kappa

        c, s, own = self.calls, self.seconds, self.self_seconds
        vertex = localization.vertex_contribution.__wrapped__
        return {
            "exact_arith.normalizations": c["exact_arith.gcd"],
            "exact_arith.gcd_s": s["exact_arith.gcd"],
            "hodge.lambda_product.calls": c["hodge.lambda_product"],
            "hodge.lambda_product.self_s": own["hodge.lambda_product"],
            "hodge.hodge_integral.calls": c["hodge.hodge_integral"],
            "hodge.hodge_integral.self_s": own["hodge.hodge_integral"],
            "hodge.ch_memo_entries": len(hodge._ch_memo),
            "hodge.hodge_memo_entries": len(hodge._hodge_memo),
            "psi_kappa.calls": c["psi_kappa"],
            "psi_kappa.s": s["psi_kappa"],
            "psi_kappa.psi_memo_entries": len(psi_kappa._psi_memo),
            "psi_kappa.kappa_memo_entries": len(psi_kappa._kappa_memo),
            "localization.enumerate.s": s["localization.enumerate"],
            "localization.classes": self.classes,
            "localization.iso_tests": c["localization.iso"],
            "localization.iso_matches": self.iso_matches,
            "localization.aut_calls": c["localization.aut"],
            "localization.vertex.calls": c["localization.vertex"],
            "localization.vertex.misses": vertex.cache_info().misses,
            "localization.vertex.self_s": own["localization.vertex"],
            "localization.edge.calls": c["localization.edge"],
            "localization.edge.s": s["localization.edge"],
            "localization.sum.self_s": own["localization.sum"],
            "series_ids.verify.self_s": own["series_ids.verify"],
            "series_ids.i1i2.calls": c["series_ids.i1i2"],
            "series_ids.i1i2.misses": (
                hodge.I1.cache_info().misses + hodge.I2.cache_info().misses
            ),
            "gw_convert.e_from_gw.s": s["gw_convert.e_from_gw"],
        }
