"""The ladder of large datums: cones over a cube, a cross-polytope and cyclic polytopes.

Each datum is the cone over a lattice polytope P: one generator ``(p, 1)``
per vertex p, with torus rank ``dim P`` and dominant rank 1.

- ``cubeN``: the (N-1)-cube ``{0, 1}^(N-1)``, rank N;
- ``cross6``: the 5-dimensional cross-polytope ``±e_i``, rank 6;
- ``cyclicN``: the cyclic polytope with vertices ``(t, t^2, ..., t^5)``,
  ``t = 0..N-1``, rank 6.

Run as a script, ``python tests/ladder.py DIR`` writes each datum in
``LADDER`` as the datum file ``DIR/<name>.json``.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import product


def cone_over(points):
    """The datum payload of the cone over lattice points."""
    return {
        "torus_rank": len(points[0]),
        "dominant_rank": 1,
        "generators": [[*p, 1] for p in points],
    }


def cube(n):
    return cone_over(list(product((0, 1), repeat=n - 1)))


def cross(n):
    d = n - 1
    points = [tuple(s if j == i else 0 for j in range(d)) for i in range(d) for s in (1, -1)]
    return cone_over(points)


def cyclic(n):
    return cone_over([tuple(t**k for k in range(1, 6)) for t in range(n)])


LADDER = {
    "cube5": cube(5),
    "cube6": cube(6),
    "cross6": cross(6),
    "cyclic8": cyclic(8),
    "cyclic12": cyclic(12),
}


def write(directory):
    """Write every ladder datum as ``<name>.json`` in ``directory``."""
    os.makedirs(directory, exist_ok=True)
    for name, payload in LADDER.items():
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/ladder.py DIR")
    write(sys.argv[1])
