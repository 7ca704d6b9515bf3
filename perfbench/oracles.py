"""Independent routes for checking horoflex outputs.

The routes follow the oracles of the test suite (Fourier-Motzkin for cone
membership, Smith-style diagonalization for lattice membership, exhaustive
descent for semigroup membership, Fraction elimination for rank), but live in
the benchmark so that the checks are the same on every commit it measures.
Nothing here imports horoflex.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Vec = tuple[int, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def rank(rows: Sequence[Sequence[int]]) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][col]:
                f = mat[i][col] / mat[r][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def in_span(rows: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """True when v lies in the rational span of rows (the zero span is {0})."""
    if not rows:
        return not any(v)
    return rank(list(rows) + [v]) == rank(rows)


def _normalize(row: Sequence[int]) -> Vec:
    g = 0
    for x in row:
        g = gcd(g, abs(x))
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def cone_inequalities(gens: Sequence[Vec], n: int) -> list[Vec]:
    """Inequalities of cone(gens) by Fourier-Motzkin elimination of multipliers.

    The cone is the projection onto x of {(lam, x) : lam >= 0, x = sum lam_i g_i}.
    """
    m = len(gens)
    rows: list[Vec] = [tuple(1 if t == i else 0 for t in range(m + n)) for i in range(m)]
    for j in range(n):
        row = tuple(-g[j] for g in gens) + tuple(1 if t == j else 0 for t in range(n))
        rows.append(row)
        rows.append(tuple(-x for x in row))
    for _ in range(m):
        pos = [r for r in rows if r[0] > 0]
        neg = [r for r in rows if r[0] < 0]
        out = {_normalize(r[1:]) for r in rows if r[0] == 0 and any(r[1:])}
        for p in pos:
            for q in neg:
                comb = tuple(p[0] * q[j] - q[0] * p[j] for j in range(1, len(p)))
                if any(comb):
                    out.add(_normalize(comb))
        rows = sorted(out)
    return [r for r in rows if any(r)]


def in_cone(normals: Sequence[Vec], v: Sequence[int]) -> bool:
    return all(dot(a, v) >= 0 for a in normals)


class LatticeOracle:
    """Integer solvability of (generators as columns) x = v, by diagonalization."""

    def __init__(self, gens: Sequence[Vec], n: int):
        cols = len(gens)
        a = [[g[i] for g in gens] for i in range(n)]
        u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        t = 0
        while t < n and t < cols:
            best = None
            for i in range(t, n):
                for j in range(t, cols):
                    if a[i][j] and (best is None or abs(a[i][j]) < best[0]):
                        best = (abs(a[i][j]), i, j)
            if best is None:
                break
            _, bi, bj = best
            a[t], a[bi] = a[bi], a[t]
            u[t], u[bi] = u[bi], u[t]
            for row in a:
                row[t], row[bj] = row[bj], row[t]
            dirty = False
            for i in range(t + 1, n):
                q = a[i][t] // a[t][t]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                dirty = dirty or a[i][t] != 0
            for j in range(t + 1, cols):
                q = a[t][j] // a[t][t]
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                dirty = dirty or a[t][j] != 0
            if not dirty:
                t += 1
        self._n = n
        self._pivots = t
        self._diag = [a[i][i] for i in range(t)]
        self._u = u

    def contains(self, v: Sequence[int]) -> bool:
        w = [dot(row, v) for row in self._u]
        if any(w[i] % self._diag[i] for i in range(self._pivots)):
            return False
        return all(w[i] == 0 for i in range(self._pivots, self._n))


class SemigroupOracle:
    """Membership in the additive closure of gens, by exhaustive descent.

    ``level`` must be a functional that is >= 1 on every generator, so each
    subtraction lowers it and the descent terminates.
    """

    def __init__(self, gens: Sequence[Vec], level: Sequence[int]):
        if any(dot(level, g) < 1 for g in gens):
            raise ValueError("descent functional is not positive on every generator")
        self._gens = [tuple(g) for g in gens]
        self._level = tuple(level)
        self._memo: dict[Vec, bool] = {}

    def member(self, v: Sequence[int]) -> bool:
        memo = self._memo
        stack = [tuple(v)]
        while stack:
            cur = stack.pop()
            if cur in memo:
                continue
            if not any(cur):
                memo[cur] = True
                continue
            if dot(self._level, cur) <= 0:
                memo[cur] = False
                continue
            children = [tuple(c - g for c, g in zip(cur, gen)) for gen in self._gens]
            if any(memo.get(ch) is True for ch in children):
                memo[cur] = True
                continue
            pending = [ch for ch in children if ch not in memo]
            if pending:
                stack.append(cur)
                stack.extend(pending)
            else:
                memo[cur] = False
        return memo[tuple(v)]
