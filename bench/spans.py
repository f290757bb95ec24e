"""Span tracing of the engine's public functions, installed from outside.

A :class:`Tracer` replaces each traced function with a wrapper that records
one span per call: the function's name, start and end times, the span that
was open when it was called (its parent), and the id of the benchmark
operation it belongs to.  The engine is not modified; the wrappers are put
into every module namespace that holds the function, because a module that
did ``from .linalg import solve_membership`` keeps its own reference and a
wrapper on ``linalg`` alone would miss those calls.

Spans are kept in flat arrays in memory and written out by :meth:`Tracer.dump`
when the run ends.  Counts that a span alone cannot give (matrix sizes,
successful solves, lift iterations) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, TextIO, Tuple

# (metric prefix, module, attribute); an attribute of the form
# "Class.method" is patched on the class.
TRACED: List[Tuple[str, str, str]] = [
    ("linalg.rref", "linalg", "rref"),
    ("linalg.solve_membership", "linalg", "solve_membership"),
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("linalg.quotient_dim", "linalg", "quotient_dim"),
    ("linalg.rowspace_add", "linalg", "RowSpace.add"),
    ("cohomology.toomer_oracle", "cohomology", "toomer_oracle"),
    ("cohomology.cohomology_basis", "cohomology", "cohomology_basis"),
    ("cohomology.cochain_maps", "cohomology", "cochain_maps"),
    ("cohomology.is_elliptic", "cohomology", "is_elliptic"),
    ("cohomology.is_boundary", "cohomology", "is_boundary"),
    ("spectral.spectral_run", "spectral", "spectral_run"),
    ("spectral.delta_cohomology", "spectral", "delta_cohomology"),
    ("spectral.delta_matrix", "spectral", "delta_matrix"),
    ("spectral.representative_depth", "spectral", "representative_depth"),
    ("spectral.lift_to_d_cocycle", "spectral", "lift_to_d_cocycle"),
    ("murillo.coefficient_matrix", "murillo", "coefficient_matrix"),
    ("murillo.murillo_fundamental_class", "murillo", "murillo_fundamental_class"),
    ("murillo._det_cofactor", "murillo", "_det_cofactor"),
    ("murillo._det_bareiss", "murillo", "_det_bareiss"),
    ("algebra.basis", "algebra", "basis"),
    ("algebra.mul", "algebra", "Element.__mul__"),
    ("algebra.parse_element", "algebra", "parse_element"),
    ("differential.apply", "differential", "Derivation.__call__"),
    ("differential.build_differential", "differential", "build_differential"),
    ("cli.main", "cli", "main"),
    ("cli.parse_model_file", "cli", "parse_model_file"),
    ("selftest.check_poincare_duality", "selftest", "check_poincare_duality"),
]

#: The randomized law checks are reached through ``selftest.RANDOM_CHECKS``
#: and are reported together under this name.
RANDOM_CHECKS = "selftest.random_checks"

#: Spans whose solves make up the depth searches.
DEPTH_SEARCHES = ("cohomology.toomer_oracle", "spectral.representative_depth")

#: Spans whose inclusive time (``.total_s``) is reported as well as self time.
TOTALS = (
    "cohomology.toomer_oracle",
    "spectral.representative_depth",
    "spectral.spectral_run",
    "cohomology.is_elliptic",
    "cohomology.cohomology_basis",
    RANDOM_CHECKS,
    "selftest.check_poincare_duality",
)

LAYERS = ("linalg", "cohomology", "spectral", "murillo", "algebra", "differential")


class Tracer:
    """Records spans and counters for every call of the traced functions."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]
        self.op_id = -1
        self.counts: Dict[str, int] = defaultdict(int)
        self._restore: List[Callable[[], None]] = []
        self._depth_ids: Tuple[int, ...] = ()
        self._seen: Dict[str, set] = defaultdict(set)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """A wrapper that records a span around each call of ``fn``.

        ``after(args, result)`` runs once the span has ended, so the cost of
        counting falls in the caller's self time, not in ``fn``'s.
        """
        nid = self._id(name)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- counters recorded at the span boundaries ---------------------------

    def _after_rref(self, args, result) -> None:
        m = args[0]
        entries = m.nrows * m.ncols
        nonzeros = sum(len(row) - row.count(0) for row in m.entries)
        c = self.counts
        c["linalg.rref.entries"] += entries
        c["linalg.rref.nonzeros"] += nonzeros
        if entries > c["linalg.rref.max_entries"]:
            c["linalg.rref.max_entries"] = entries

    def _after_solve(self, args, result) -> None:
        hit = result is not None
        self.counts["linalg.solve_membership.hits"] += hit
        if any(self.name[i] in self._depth_ids for i in self._stack[1:]):
            self.counts["depth.solves"] += 1
            self.counts["depth.hits"] += hit

    def _after_lift(self, args, result) -> None:
        self.counts["spectral.lift_to_d_cocycle.iterations"] += result.iterations

    def _distinct(self, name: str) -> Callable:
        def after(args, result) -> None:
            self._seen[name].add((self.op_id, id(args[0]), args[1]))

        return after

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Put wrappers in place in every ``sullivan`` module that binds a
        traced function.  :meth:`uninstall` undoes it."""
        import sullivan.cli  # noqa: F401  (loads every engine module)

        self._depth_ids = tuple(self._id(n) for n in DEPTH_SEARCHES)
        after = {
            "linalg.rref": self._after_rref,
            "linalg.solve_membership": self._after_solve,
            "spectral.lift_to_d_cocycle": self._after_lift,
            "cohomology.cochain_maps": self._distinct("cohomology.cochain_maps"),
            "cohomology.cohomology_basis": self._distinct("cohomology.cohomology_basis"),
        }
        engine = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "sullivan" or key.startswith("sullivan."))
        ]
        for name, module, attr in TRACED:
            owner = sys.modules["sullivan." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original, after.get(name)))
                self._restore.append(lambda c=cls, m=meth, o=original: setattr(c, m, o))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, after.get(name))
            for mod in engine:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append(
                            lambda md=mod, k=key, o=original: setattr(md, k, o)
                        )
        checks = sys.modules["sullivan.selftest"].RANDOM_CHECKS
        saved = list(checks)
        checks[:] = [(label, self.wrap(RANDOM_CHECKS, fn)) for label, fn in saved]
        self._restore.append(lambda: checks.__setitem__(slice(None), saved))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results ------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """Per-layer metrics: calls, self time and the recorded counters."""
        n = len(self.start)
        start, end = self.start, self.end
        child = array("d", bytes(8 * n))  # time covered by each span's children
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        total_s: Dict[str, float] = defaultdict(float)
        total_ids = {self._id(t) for t in TOTALS}
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            dur = end[i] - start[i]
            self_s[name] += dur - child[i]
            if self.name[i] in total_ids and not self._inside_same(i):
                total_s[name] += dur
        out: Dict[str, float] = {}
        for name in [t[0] for t in TRACED] + [RANDOM_CHECKS]:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in TOTALS:
            out[f"{name}.total_s"] = total_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.startswith(layer + ".")
            )
        c = self.counts
        for key in (
            "linalg.rref.entries",
            "linalg.rref.nonzeros",
            "linalg.rref.max_entries",
            "linalg.solve_membership.hits",
            "spectral.lift_to_d_cocycle.iterations",
            "depth.solves",
        ):
            out[key] = c[key]
        out["linalg.rref.density"] = (
            c["linalg.rref.nonzeros"] / c["linalg.rref.entries"]
            if c["linalg.rref.entries"] else 0.0
        )
        out["depth.hit_ratio"] = (
            c["depth.hits"] / c["depth.solves"] if c["depth.solves"] else 0.0
        )
        for name in ("cohomology.cochain_maps", "cohomology.cohomology_basis"):
            out[f"{name}.distinct"] = len(self._seen[name])
        out["trace.spans"] = n
        return out

    def _inside_same(self, i: int) -> bool:
        nid = self.name[i]
        p = self.parent[i]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def dump(self, out: TextIO) -> None:
        """Write every span as a tab-separated line: name, start, end,
        parent index (-1 for none) and operation id; times in seconds from
        the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        out.write("name\tstart_s\tend_s\tparent\top\n")
        for i in range(len(self.start)):
            out.write(
                f"{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
            )
