"""Span recording for the traced run.

`Tracer.install(pkg)` rebinds every public function of each layer module, at
every module and class attribute that holds it (the package namespace, the
modules that imported it by name, `Polynomial.__call__`), to a wrapper that
records a span. `uninstall()` puts the original objects back and reports
whether every attribute is the original object again.

A span's self time is its duration minus the time of the spans it encloses.
A layer's inclusive time counts only its outermost spans, so a layer that
calls itself is not counted twice. Callbacks handed to `bisect` and
`minimize_1d` are timed as spans of the layer that defined them.
"""

from __future__ import annotations

import inspect
import math
from collections import defaultdict
from time import perf_counter

LAYERS = ("polynomial", "operator", "certificates", "solver", "numerics", "cli")


#: Argument-coercion helpers called inside nearly every other function. They
#: are too small to time without distorting their callers; their cost stays
#: in the caller's span.
UNTIMED = frozenset({"operator.as_norm", "operator.conjugate_exponent"})


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self s, total s
        self.layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # depth, self s, incl s
        self.counts: dict[str, float] = defaultdict(float)
        self._top = [0.0]
        self._stack: list[float] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._post = {
            "operator.weierstrass_correction": self._count_correction,
            "operator.distances": self._count_distances,
            "numerics.match_roots": self._count_candidates,
            "solver.run_sor": self._count_solve,
        }

    @property
    def top_s(self) -> float:
        """Time inside spans entered with no span open."""
        return self._top[0]

    # -- spans -------------------------------------------------------------

    def span(self, layer: str, name: str, fn):
        """Wrap fn so each call records a span `name` in `layer`."""
        post = self._post.get(name)
        pre = self._count_evals if name in ("numerics.bisect", "numerics.minimize_1d") else None
        stack, top = self._stack, self._top
        rec, lrec = self.spans[name], self.layers[layer]

        def traced(*args, **kwargs):
            if pre is not None:
                args = pre(name, args)
            lrec[0] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                own = elapsed - stack.pop()
                rec[0] += 1
                rec[1] += own
                rec[2] += elapsed
                lrec[0] -= 1
                lrec[1] += own
                if lrec[0] == 0:
                    lrec[2] += elapsed
                if stack:
                    stack[-1] += elapsed
                else:
                    top[0] += elapsed
            if post is not None:
                post(args, kwargs, result, fn)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- computed counts ---------------------------------------------------

    def _count_correction(self, args, kwargs, result, fn) -> None:
        n = len(result)
        self.counts["operator.pair_ops"] += n * (n - 1)

    def _count_distances(self, args, kwargs, result, fn) -> None:
        n = len(result[0])
        self.counts["operator.pair_ops"] += n * (n - 1) // 2

    def _count_candidates(self, args, kwargs, result, fn) -> None:
        # Assignments the matcher weighs: every permutation on the exhaustive
        # path, every computed/true pair on the assignment path.
        n = len(result[0])
        param = inspect.signature(fn).parameters.get("exhaustive_limit")
        limit = kwargs.get("exhaustive_limit", args[3] if len(args) > 3 else None)
        if limit is None and param is not None:
            limit = param.default
        exhaustive = limit is not None and n <= limit
        self.counts["numerics.match_roots.candidates"] += math.factorial(n) if exhaustive else n * n

    def _count_solve(self, args, kwargs, trace, fn) -> None:
        records = trace.records
        final_is_last = tuple(trace.final) == tuple(records[-1].z)
        self.counts["solver.iterations"] += records[-1].k + (0 if final_is_last else 1)
        reason = getattr(trace, "stop_reason", None)
        if reason is None:
            if trace.error is not None:
                reason = "aborted"
            elif not trace.converged:
                reason = "max_iter"
            else:
                reason = "tol_e" if final_is_last else "tol_step"
        self.counts[f"solver.stop.{reason}"] += 1
        self.counts["solver.damped_steps"] += sum(1 for r in records if r.h < 1.0)

    def _count_evals(self, name: str, args: tuple) -> tuple:
        f = args[0]
        layer = f.__module__.rsplit(".", 1)[-1]
        timed = self.span(layer, f"{layer}.callback", f)
        counts, key = self.counts, f"{name}.evals"

        def counted(x):
            counts[key] += 1
            return timed(x)

        return (counted,) + tuple(args[1:])

    # -- binding -----------------------------------------------------------

    def install(self, pkg) -> None:
        """Rebind every public function of every layer to a span wrapper."""
        wrappers: dict[int, tuple[object, object]] = {}
        owners: list[object] = [pkg.package]
        for layer in LAYERS:
            module = getattr(pkg, layer)
            owners.append(module)
            for attr, obj in list(vars(module).items()):
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    owners.append(obj)
                    for meth, member in list(vars(obj).items()):
                        func = getattr(member, "__func__", member)
                        if meth.startswith("_") or not inspect.isfunction(func):
                            continue
                        traced = self.span(layer, f"{layer}.{meth}", func)
                        if isinstance(member, classmethod):
                            traced = classmethod(traced)
                        wrappers[id(member)] = (member, traced)
                elif (
                    not attr.startswith("_")
                    and f"{layer}.{attr}" not in UNTIMED
                    and callable(obj)
                    and not inspect.isclass(obj)
                    and getattr(obj, "__module__", None) == module.__name__
                ):
                    wrappers[id(obj)] = (obj, self.span(layer, f"{layer}.{attr}", obj))
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(owner, attr, entry[1])
                    self._bindings.append((owner, attr, value))

    def uninstall(self) -> bool:
        """Restore every rebound attribute; True when all are the originals again."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._bindings)
        self._bindings.clear()
        return restored
