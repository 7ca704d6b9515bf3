"""Seeded inputs for the three workloads.

Every generator takes a seed and returns plain data (lists, tuples, dicts of
ints), so the same seed always gives the same inputs and nothing here imports
horoflex.  Inputs come in rounds of a fixed composition: the seed chooses the
members of each class, while the share of each class stays the same in every
run.  That keeps runs of different seeds comparable (see README.md).
"""

from __future__ import annotations

import random
from itertools import product
from math import gcd
from typing import Any

# One round of the certify workload, by datum class.  Rank-2 and line datums
# are the small ops that op_p50_ms tracks; rank-4 datums are the Hilbert-basis
# ops that op_p90_ms tracks.
CERTIFY_ROUND = (
    "rank2", "rank4", "rank2", "line", "rank2", "rank2", "rank4",
    "rank2", "rank3", "rank2", "line", "rank2", "rank4", "rank2",
)

# Box volume band for rank-4 datums (see rank4_datum).
RANK4_BOX = (150, 450)

# One round of the orbits workload, by polytope family: six rank-4 cones
# (20-28 faces, about 11 ms per op) and one rank-5 cone (56 faces, about
# 40 ms per op), so that rank-4 ops are most ops (op_p50_ms) and rank-5 ops
# the tail (op_p90_ms).  One rank-5 family keeps the tail steady.
ORBITS_ROUND = (
    "cube3_subset", "octahedron", "cube3_subset", "prism3",
    "bipyramid", "cube3_subset", "pyramid_cube3",
)

# One round of the identities workload; each ehm op draws its degree bound
# from EHM_BOUNDS.
EHM_BOUNDS = (8, 32)
IDENTITIES_ROUND = (
    "ehm", "flow", "ehm", "danielewski", "ehm", "flow", "ehm", "flow", "ehm",
)
FLOW_VARIABLES = (3, 4, 5)
# Upper limit of nilpotency_weight for a flow's derivation.
FLOW_WEIGHT_MAX = 20


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def datum(gens: list[tuple[int, ...]], label: str) -> dict[str, Any]:
    """A datum file payload with one dominant coordinate (the last)."""
    return {
        "torus_rank": len(gens[0]) - 1,
        "dominant_rank": 1,
        "generators": [list(g) for g in gens],
        "label": label,
    }


# ---------------------------------------------------------------------------
# certify


def integer_det(rows: list[tuple[int, ...]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def box_volume(gens: list[tuple[int, ...]]) -> int:
    """Lattice points of the bounding box of the parallelepiped of gens."""
    vol = 1
    for j in range(len(gens[0])):
        vol *= sum(max(0, g[j]) for g in gens) - sum(min(0, g[j]) for g in gens) + 1
    return vol


def _weights(rng: random.Random, rank: int, count: int, torus: int, top: int) -> list[tuple[int, ...]]:
    gens: set[tuple[int, ...]] = set()
    while len(gens) < count:
        gens.add(
            tuple(rng.randint(-torus, torus) for _ in range(rank - 1))
            + (rng.randint(1, top),)
        )
    return sorted(gens)


def rank4_datum(rng: random.Random) -> list[tuple[int, ...]]:
    """Four weights spanning a full-dimensional simplicial cone.

    The box volume is held in RANK4_BOX, because the Hilbert-basis scan of
    the seed commit costs about one solve per box point: without the band a
    few boxes would decide a whole run's throughput.
    """
    while True:
        gens = _weights(rng, 4, 4, 1, 2)
        if integer_det(gens) and RANK4_BOX[0] <= box_volume(gens) <= RANK4_BOX[1]:
            return gens


def line_datum(rng: random.Random) -> list[tuple[int, ...]]:
    """Weights whose cone contains the line through the first unit vector."""
    rank = rng.randint(2, 4)
    e = tuple(1 if j == 0 else 0 for j in range(rank))
    extra = _weights(rng, rank, rng.randint(1, 2), 2, 3)
    return sorted({e, tuple(-x for x in e), *extra})


def certify_datums(seed: int, rounds: int) -> list[dict[str, Any]]:
    """Datums for `check` (and `saturate` plus `check` on non-normal ones).

    Each item carries its class and whether its cone contains a line, which
    the output check compares with the verdict.
    """
    rng = _rng("certify", seed)
    items = []
    for r in range(rounds):
        for i, cls in enumerate(CERTIFY_ROUND):
            if cls == "rank2":
                gens = _weights(rng, 2, rng.randint(2, 4), 6, 6)
            elif cls == "rank3":
                gens = _weights(rng, 3, rng.randint(3, 4), 1, 3)
            elif cls == "rank4":
                gens = rank4_datum(rng)
            else:
                gens = line_datum(rng)
            items.append({
                "class": cls,
                "line": cls == "line",
                "spec": datum(gens, f"certify-{seed}-{r}-{i}"),
            })
    return items


# ---------------------------------------------------------------------------
# orbits


def _lift(points: list[tuple[int, ...]], rng: random.Random) -> list[tuple[int, ...]]:
    """Move the polytope by a seeded signed permutation and shift, then put it
    at height 1.  The face lattice is unchanged and coordinates stay small."""
    n = len(points[0])
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    shift = [rng.randint(-1, 1) for _ in range(n)]
    return sorted({
        tuple(signs[i] * p[perm[i]] + shift[i] for i in range(n)) + (1,) for p in points
    })


def _affine_rank(points: list[tuple[int, ...]]) -> int:
    base = points[0]
    rows = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    rank = 0
    cols = len(base)
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f, g = rows[i][col], rows[rank][col]
            rows[i] = [a * g - b * f for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _cube_subset(rng: random.Random, dim: int, low: int, high: int) -> list[tuple[int, ...]]:
    vertices = list(product((0, 1), repeat=dim))
    while True:
        chosen = rng.sample(vertices, rng.randint(low, high))
        if _affine_rank(chosen) == dim:
            return chosen


def polytope(family: str, rng: random.Random) -> list[tuple[int, ...]]:
    """Vertices of one polytope of the family (before the unimodular lift)."""
    if family == "cube3_subset":
        return _cube_subset(rng, 3, 5, 8)
    if family == "pyramid_cube3":
        return [c + (0,) for c in product((0, 1), repeat=3)] + [(0, 0, 0, 1)]
    if family == "octahedron":
        return [tuple(s if j == i else 0 for j in range(3)) for i in range(3) for s in (1, -1)]
    if family == "prism3":
        k = rng.randint(3, 6)
        base = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 1), (1, 2)][:k]
        return [b + (h,) for b in base for h in (0, 1)]
    if family == "bipyramid":
        k = rng.randint(3, 4)
        base = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)][:k]
        return base + [(0, 0, 1), (0, 0, -1)]
    raise ValueError(f"unknown polytope family {family!r}")


def orbits_datums(seed: int, rounds: int) -> list[dict[str, Any]]:
    """Pointed cones over lattice polytopes: one `orbits` op, then a
    `grading --face N` op for every face."""
    rng = _rng("orbits", seed)
    items = []
    for r in range(rounds):
        for i, family in enumerate(ORBITS_ROUND):
            gens = _lift(polytope(family, rng), rng)
            items.append({"class": family, "spec": datum(gens, f"orbits-{seed}-{r}-{i}")})
    return items


# ---------------------------------------------------------------------------
# identities


def _ehm_parameters(rng: random.Random) -> tuple[int, int, int]:
    while True:
        q = rng.randint(2, 7)
        p = rng.randint(1, q - 1)
        if gcd(p, q) == 1:
            return p, q, rng.randint(1, 6)


def nilpotency_weight(images: dict[str, list[tuple[tuple[int, ...], int]]]) -> int:
    """Sum over the variables of w, where w(x1) = 1 and w(xi) is one more
    than the largest weighted degree of a term of D(xi); w(xi) bounds the
    number of applications of D that kill xi."""
    weights: list[int] = []
    for i in range(len(images)):
        terms = images[f"x{i + 1}"]
        weights.append(1 + max(sum(e * w for e, w in zip(exps, weights)) for exps, _ in terms))
    return sum(weights)


def triangular_derivation(rng: random.Random, nvars: int) -> dict[str, list[tuple[tuple[int, ...], int]]]:
    """Images of x1..xn: D(x1) is a nonzero constant and D(xi) a polynomial
    in x1..x(i-1) of degree at most 2, so D is locally nilpotent.

    Each image is a list of (exponents over x1..xn, integer coefficient).
    The nilpotency weight is held to FLOW_WEIGHT_MAX: flow cost grows
    steeply with it (a weight-39 flow took 800 ms, a weight-20 one 40 ms).
    """
    while True:
        images = {"x1": [((0,) * nvars, rng.choice((-2, -1, 1, 2)))]}
        for i in range(1, nvars):
            terms: dict[tuple[int, ...], int] = {}
            for _ in range(rng.randint(1, 3)):
                exps = [0] * nvars
                for _ in range(rng.randint(0, 2)):
                    exps[rng.randrange(i)] += 1
                terms[tuple(exps)] = rng.choice((-2, -1, 1, 2))
            images[f"x{i + 1}"] = sorted(terms.items())
        if nilpotency_weight(images) <= FLOW_WEIGHT_MAX:
            return images


def identities_ops(seed: int, rounds: int) -> list[tuple[Any, ...]]:
    """Ops of the polynomial half: ehm checks, danielewski, derivation flows."""
    rng = _rng("identities", seed)
    ops: list[tuple[Any, ...]] = []
    for _ in range(rounds):
        nvars = list(FLOW_VARIABLES)
        rng.shuffle(nvars)
        for kind in IDENTITIES_ROUND:
            if kind == "ehm":
                ops.append(("ehm",) + _ehm_parameters(rng) + (rng.randint(*EHM_BOUNDS),))
            elif kind == "flow":
                ops.append(("flow", triangular_derivation(rng, nvars.pop())))
            else:
                ops.append(("danielewski",))
    return ops
