"""Span recorder for the traced run, and the wrappers that feed it.

Wrappers replace a cdtlab function at every module attribute bound to it,
because `from .arith import kronecker` and the like give each importing
module its own binding; patching only the defining module would miss the
calls made through the others.  Builtins such as `pow` are not wrapped.

Spans (name, start, end, parent) are kept in flat arrays in memory and
written out once, at the end of the run.  Self time, a span's duration
minus the time its children cover, is accumulated as spans close.  Spans
opened inside forked worker processes live in the workers' copies of the
recorder and are lost.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # open spans: [index, name id, start, child time]
        self.stats: dict[str, dict[int, list]] = {}  # scope -> name id -> [calls, total, self]
        self.counters: dict[str, dict[str, float]] = {}  # scope -> counter -> value
        self.last_table = None  # the prime table the last prime_table call returned
        self.set_scope("setup")

    def set_scope(self, scope: str) -> None:
        """Attribute the spans and counts that follow to `scope`."""
        self._stats = self.stats.setdefault(scope, {})
        self._counters = self.counters.setdefault(scope, {})

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> list:
        stack = self._stack
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.end.append(0.0)
        frame = [idx, nid, 0.0, 0.0]
        stack.append(frame)
        t = perf_counter()
        self.start.append(t)
        frame[2] = t
        return frame

    def close(self, frame: list) -> float:
        t = perf_counter()
        idx, nid, t0, child = frame
        self.end[idx] = t
        dur = t - t0
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][3] += dur
        st = self._stats.get(nid)
        if st is None:
            st = self._stats[nid] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        return dur

    def count(self, counter: str, n: float) -> None:
        self._counters[counter] = self._counters.get(counter, 0) + n

    def stat(self, scopes, name: str, field: int) -> float:
        """Sum of calls (field 0), total (1) or self (2) seconds of `name`."""
        nid = self._ids.get(name)
        return sum(self.stats.get(s, {}).get(nid, (0, 0.0, 0.0))[field] for s in scopes)

    def counter(self, scopes, name: str) -> float:
        return sum(self.counters.get(s, {}).get(name, 0) for s in scopes)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def check_roots(self, root: str) -> tuple[float, int]:
        """Check the span tree under every closed span named `root`.

        Returns the largest gap between a root's duration and the sum of
        the self times of the spans under it, and the number of spans that
        leave their parent's interval or overlap an earlier sibling.  Both
        are zero when no interval is counted twice.
        """
        a = self.arrays()
        n = len(a["start"])
        if n == 0:
            return 0.0, 0
        dur = a["end"] - a["start"]
        par = a["parent"]
        has_par = par >= 0
        child = np.bincount(par[has_par], weights=dur[has_par], minlength=n)
        self_t = dur - child
        top = np.where(has_par, par, np.arange(n))  # walk up to each span's root
        while True:
            up = np.where(par[top] >= 0, par[top], top)
            if np.array_equal(up, top):
                break
            top = up
        rid = self._ids.get(root)
        roots = np.flatnonzero(a["name_id"] == rid) if rid is not None else np.array([], int)
        roots = roots[par[roots] < 0]
        sums = np.bincount(top, weights=self_t, minlength=n)
        gap = float(np.max(np.abs(sums[roots] - dur[roots]))) if roots.size else 0.0
        p = par[has_par]
        idx = np.flatnonzero(has_par)
        bad = int(np.count_nonzero((a["start"][idx] < a["start"][p]) | (a["end"][idx] > a["end"][p])))
        # siblings in creation order: each starts after the previous ends
        order = idx[np.lexsort((idx, p))]
        same = par[order[1:]] == par[order[:-1]]
        bad += int(np.count_nonzero(same & (a["start"][order[1:]] < a["end"][order[:-1]])))
        return gap, bad


def _span_wrapper(tracer: Tracer, fn, name: str, after=None):
    """Wrapper that records one span per call; `after(result)` may count
    something about the result once the span has closed."""
    nid = tracer.intern(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(frame)
        if after is not None:
            after(result)
        return result

    return wrapper


def _result_counters(tracer: Tracer) -> dict:
    """Counts taken from return values, keyed by span name."""

    def table_miss(table) -> None:
        # a miss is a call that hands back another table than the last call
        if table is not tracer.last_table:
            tracer.count("chebotarev.prime_table.misses", 1)
            tracer.last_table = table

    return {
        "chebotarev.prime_table": table_miss,
        "chebotarev.psi_events": lambda events: tracer.count("chebotarev.events", len(events)),
        "betasieve.beta_sieve_weights": lambda w: tracer.count(
            "betasieve.lambda_terms", sum(1 for v in w.lam.values() if v)
        ),
    }


def _blocks_wrapper(tracer: Tracer, fn, name: str):
    """Generator wrapper: one span per `next`, plus block and point counts."""
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            frame = tracer.open(nid)
            try:
                block = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(frame)
            tracer.count(name + ".blocks", 1)
            tracer.count(name + ".points", len(block[2]))
            yield block

    return wrapper


# (defining module, function) pairs that get a span; the span name is
# "<module>.<function>".
SPANNED = (
    ("arith", "primes_up_to"),
    ("arith", "is_prime"),
    ("arith", "sqrt_mod"),
    ("arith", "kronecker"),
    ("arith", "li"),
    ("quadforms", "class_representatives"),
    ("quadforms", "prime_to_class"),
    ("quadforms", "compose"),
    ("quadforms", "reduce_form"),
    ("quadforms", "induced_form"),
    ("quadforms", "represented_blocks"),
    ("chebotarev", "prime_table"),
    ("chebotarev", "count_prime_points"),
    ("chebotarev", "theorem15_experiment"),
    ("chebotarev", "sieved_sum_S"),
    ("chebotarev", "psi_events"),
    ("densities", "delta_f"),
    ("betasieve", "beta_sieve_weights"),
    ("cli", "main"),
)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every SPANNED function at each cdtlab module attribute bound to
    it.  Returns the (module, attribute, original) triples for `uninstall`."""
    import cdtlab
    import cdtlab.cli  # noqa: F401  (loads every submodule)

    modules = [cdtlab] + [
        m for n, m in sorted(sys.modules.items()) if n.startswith("cdtlab.") and m is not None
    ]
    after = _result_counters(tracer)
    wrappers = {}
    for mod_name, fn_name in SPANNED:
        fn = getattr(sys.modules[f"cdtlab.{mod_name}"], fn_name)
        name = f"{mod_name}.{fn_name}"
        if fn_name == "represented_blocks":
            wrappers[id(fn)] = _blocks_wrapper(tracer, fn, name)
        else:
            wrappers[id(fn)] = _span_wrapper(tracer, fn, name, after.get(name))
    installed = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            w = wrappers.get(id(value))
            if w is not None:
                setattr(mod, attr, w)
                installed.append((mod, attr, value))
    return installed


def uninstall(installed) -> None:
    for mod, attr, original in installed:
        setattr(mod, attr, original)
