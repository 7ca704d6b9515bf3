"""Spans around horoflex functions, recorded from outside the package.

``Tracer.install`` rebinds every ``horoflex.*`` module attribute that refers
to a traced function (so ``semigroup.hilbert_basis`` and lattice-internal
global calls are both caught) and patches traced methods on their class,
under every class attribute that refers to them (``__rmul__`` is
``__mul__``).  ``uninstall`` puts the originals back.  Spans are kept in
flat arrays and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from typing import Any, Callable, Optional, Sequence

# (module, qualified name, size of one result or None)
TARGETS: tuple[tuple[str, str, Optional[Callable[[Any], int]]], ...] = (
    ("lattice", "hilbert_basis", len),
    ("lattice", "solve_left", None),
    ("lattice", "matrix_rank", None),
    ("lattice", "generators_from_inequalities", lambda result: len(result[1])),
    ("lattice", "face_lattice", len),
    ("lattice", "dual_cone", None),
    ("semigroup", "is_saturated", None),
    ("semigroup", "saturate", None),
    ("semigroup", "flexibility_verdict", None),
    ("semigroup", "grading_for_face", None),
    ("reporting", "verify_check_report", None),
    ("reporting", "parse_spec", None),
    ("reporting", "build_check_report", None),
    ("reporting", "build_saturate_report", None),
    ("reporting", "build_orbits_report", None),
    ("reporting", "build_grading_report", None),
    ("reporting", "build_ehm_report", None),
    ("reporting", "build_danielewski_report", None),
    ("cli", "main", None),
    ("poly", "exp_lnd", None),
    ("poly", "compose_substitutions", None),
    ("poly", "divide", None),
    ("poly", "preserves_hypersurface", None),
    ("poly", "Polynomial.substitute", None),
    ("poly", "Polynomial.__mul__", None),
    ("poly", "Derivation.apply", None),
    ("ehm", "enumerate_invariant_monomials", len),
    ("ehm", "verify_actions_on_hypersurface", None),
    ("danielewski", "composition_law", None),
)

# Name of the size count of each target that has one.
SIZE_NAMES = {
    "lattice.hilbert_basis": "elements",
    "lattice.generators_from_inequalities": "rays_out",
    "lattice.face_lattice": "faces",
    "ehm.enumerate_invariant_monomials": "monomials",
}

PACKAGE = "horoflex"


def _package_modules() -> list[Any]:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Records one span per call of each target: name, start, end, parent, op."""

    def __init__(self):
        self.names = [f"{module}.{qualname}" for module, qualname, _ in TARGETS]
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.sizes = [0] * len(TARGETS)
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- rebinding -------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for nid, (module, qualname, size) in enumerate(TARGETS):
            cls_name, _, attr = qualname.rpartition(".")
            home = sys.modules[f"{PACKAGE}.{module}"]
            if cls_name:
                home = getattr(home, cls_name)
            original = vars(home)[attr]
            wrapper = self._wrap(nid, original, size)
            for owner in [home] if cls_name else modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._saved.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, nid: int, fn: Callable, size: Optional[Callable[[Any], int]]) -> Callable:
        start, end, parent, name, op = self.start, self.end, self.parent, self.name, self.op
        stack, sizes = self._stack, self.sizes
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            op.append(tracer.op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if size is not None:
                sizes[nid] += size(result)
            return result

        return traced

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """``<name>.calls``, ``.total_ms``, ``.self_ms`` and size counts per target."""
        selfs = self_times(self.start, self.end, self.parent)
        n = len(self.names)
        calls, total, own = [0] * n, [0] * n, [0] * n
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            total[nid] += self.end[i] - self.start[i]
            own[nid] += selfs[i]
        out: dict[str, float] = {}
        for nid, label in enumerate(self.names):
            out[f"{label}.calls"] = calls[nid]
            out[f"{label}.total_ms"] = total[nid] / 1e6
            out[f"{label}.self_ms"] = own[nid] / 1e6
            if label in SIZE_NAMES:
                out[f"{label}.{SIZE_NAMES[label]}"] = self.sizes[nid]
        return out

    def write(self, path) -> None:
        """Spans as gzip CSV: op, span, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{self.op[i]},{i},{self.parent[i]},{names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )


def self_times(start: Sequence[int], end: Sequence[int], parent: Sequence[int]) -> list[int]:
    """Duration of each span minus the part of it that its children cover.

    Spans must be listed in order of start, as the tracer records them; the
    children of a span then arrive in start order, so their union is
    measured in one pass by remembering how far coverage already reaches.
    """
    n = len(start)
    covered = [0] * n
    reach = list(start)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]
