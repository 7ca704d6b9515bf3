"""Independent cross-checks used only by the test suite.

Everything here recomputes package results along different algorithmic
routes: cone membership via Fourier-Motzkin projection of the multiplier
polytope, double description with every zero set recomputed by dot
products, orbits and gradings with the facet incidence recomputed by dot
products, lattice membership via Smith-style diagonalization, semigroup
membership via exhaustive descent, invariant monomials of the hypersurface
family by a quadruple loop over the exponents.  None of the package's cone,
lattice, or Hilbert-basis machinery is imported.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, Optional, Sequence

Vec = tuple[int, ...]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _normalize(row: Sequence[int]) -> Vec:
    g = 0
    for x in row:
        g = gcd(g, abs(x))
    if g > 1:
        return tuple(x // g for x in row)
    return tuple(row)


def rational_rank(rows: Sequence[Sequence[int]]) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# cone membership by Fourier-Motzkin projection


def fm_eliminate_first(rows: list[Vec]) -> list[Vec]:
    """Project the system {r . x >= 0} along coordinate 0."""
    pos = [r for r in rows if r[0] > 0]
    neg = [r for r in rows if r[0] < 0]
    out = {_normalize(r[1:]) for r in rows if r[0] == 0 and any(r[1:])}
    for p in pos:
        for n in neg:
            comb = tuple(p[0] * n[j] - n[0] * p[j] for j in range(1, len(p)))
            if any(comb):
                out.add(_normalize(comb))
    return sorted(out)


def cone_inequalities(gens: Sequence[Vec], rank: int) -> list[Vec]:
    """Complete inequality description of cone(gens).

    The cone is the projection onto x of the polyhedron over (lam, x) given
    by lam >= 0 and x = sum(lam_i * g_i); eliminating every multiplier by
    Fourier-Motzkin leaves exactly the inequalities of the cone.
    """
    m = len(gens)
    rows: list[Vec] = []
    for i in range(m):
        rows.append(tuple(1 if t == i else 0 for t in range(m + rank)))
    for j in range(rank):
        row = tuple(-g[j] for g in gens) + tuple(
            1 if t == j else 0 for t in range(rank)
        )
        rows.append(row)
        rows.append(tuple(-x for x in row))
    for _ in range(m):
        rows = fm_eliminate_first(rows)
    return [r for r in rows if any(r)]


def in_cone(normals: Sequence[Vec], v: Vec) -> bool:
    return all(dot(n, v) >= 0 for n in normals)


def cone_is_pointed(normals: Sequence[Vec], rank: int) -> bool:
    # pointed iff the valid inequalities span the full dual space
    if rank == 0:
        return True
    if not normals:
        return False
    return rational_rank(normals) == rank


# ---------------------------------------------------------------------------
# double description with zero sets recomputed by dot products


def _extreme_by_dots(vecs: Sequence[Vec], normals: Sequence[Vec]) -> list[Vec]:
    """The vecs on extreme rays of ``{x : a.x >= 0 for a in normals}``.

    Drops lineality directions and every vec whose zero set, recomputed from
    the normals, lies strictly inside another vec's proper zero set.
    """
    full = (1 << len(normals)) - 1
    zeros = [sum(1 << i for i, a in enumerate(normals) if dot(a, v) == 0) for v in vecs]
    proper = {z for z in zeros if z != full}
    return [
        v for v, z in zip(vecs, zeros)
        if z != full and not any(w != z and w & z == z for w in proper)
    ]


def double_description_by_dots(
    normals: Sequence[Vec], rank: int
) -> tuple[list[Vec], list[Vec]]:
    """A basis of the lineality space and the extreme rays of {x : a.x >= 0}.

    Incremental double description that prunes after every normal with zero
    sets recomputed by dot products.  The lineality basis is not put in
    Hermite form.
    """

    def combine(c: int, u: Vec, d: int, v: Vec) -> Vec:
        return _normalize(tuple(c * x - d * y for x, y in zip(u, v)))

    lines: list[Vec] = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    rays: list[Vec] = []
    processed: list[Vec] = []
    for a in map(tuple, normals):
        if not any(a):
            continue
        hit = next((i for i, v in enumerate(lines) if dot(a, v) != 0), None)
        if hit is not None:
            w = lines.pop(hit)
            if dot(a, w) < 0:
                w = tuple(-x for x in w)
            aw = dot(a, w)
            lines = [combine(aw, v, dot(a, v), w) for v in lines]
            rays = [combine(aw, r, dot(a, r), w) for r in rays]
            rays.append(w)
        else:
            pos = [r for r in rays if dot(a, r) > 0]
            neg = [r for r in rays if dot(a, r) < 0]
            new = [r for r in rays if dot(a, r) >= 0]
            for p in pos:
                for q in neg:
                    new.append(combine(dot(a, p), q, dot(a, q), p))
            rays = new
        processed.append(a)
        rays = _extreme_by_dots(list(dict.fromkeys(r for r in rays if any(r))), processed)
    return lines, sorted(rays)


# ---------------------------------------------------------------------------
# orbits and gradings with the facet incidence recomputed by dot products


def off_face_by_dots(
    facets: Sequence[Vec], zero_normals: Sequence[int], gens: Sequence[Vec]
) -> tuple[int, ...]:
    """Indices of the gens on which some facet vanishing on the face is positive."""
    zero = [facets[i] for i in zero_normals]
    return tuple(i for i, g in enumerate(gens) if any(dot(f, g) > 0 for f in zero))


def grading_by_dots(
    facets: Sequence[Vec], zero_normals: Sequence[int], gens: Sequence[Vec]
) -> tuple[Vec, tuple[int, ...]]:
    """The primitive sum of the facets vanishing on the face, and its value on
    each gen: 0 where every one of those facets vanishes, at least 1 elsewhere."""
    zero = [facets[i] for i in zero_normals]
    functional = _normalize([sum(col) for col in zip(*zero)] if zero else [0] * len(gens[0]))
    weights = tuple(dot(functional, g) for g in gens)
    for g, w in zip(gens, weights):
        assert w == 0 if all(dot(f, g) == 0 for f in zero) else w >= 1
    return functional, weights


# ---------------------------------------------------------------------------
# lattice membership by Smith-style diagonalization


class LatticeOracle:
    """Integer solvability of (generators as columns) * x = v.

    Row and column Euclidean steps diagonalize the matrix; row operations
    are accumulated so each query only transforms v and checks divisibility
    along the diagonal plus exact zeros beyond the rank.
    """

    def __init__(self, gens: Sequence[Vec], rank: int):
        n = len(gens)
        a = [[g[i] for g in gens] for i in range(rank)]
        u = [[1 if i == j else 0 for j in range(rank)] for i in range(rank)]
        t = 0
        while t < rank and t < n:
            best = None
            for i in range(t, rank):
                for j in range(t, n):
                    if a[i][j] and (best is None or abs(a[i][j]) < best[0]):
                        best = (abs(a[i][j]), i, j)
            if best is None:
                break
            _, bi, bj = best
            a[t], a[bi] = a[bi], a[t]
            u[t], u[bi] = u[bi], u[t]
            if bj != t:
                for row in a:
                    row[t], row[bj] = row[bj], row[t]
            dirty = False
            for i in range(t + 1, rank):
                q = a[i][t] // a[t][t]
                if q:
                    for j in range(n):
                        a[i][j] -= q * a[t][j]
                    for j in range(rank):
                        u[i][j] -= q * u[t][j]
                if a[i][t]:
                    dirty = True
            for j in range(t + 1, n):
                q = a[t][j] // a[t][t]
                if q:
                    for i in range(rank):
                        a[i][j] -= q * a[i][t]
                if a[t][j]:
                    dirty = True
            if not dirty:
                t += 1
        self._rank = rank
        self._pivots = t
        self._diag = [a[i][i] for i in range(t)]
        self._u = u

    def contains(self, v: Sequence[int]) -> bool:
        w = [dot(row, v) for row in self._u]
        for i in range(self._pivots):
            if w[i] % self._diag[i]:
                return False
        return all(w[i] == 0 for i in range(self._pivots, self._rank))


# ---------------------------------------------------------------------------
# semigroup membership by exhaustive descent


class SemigroupOracle:
    """Membership in the additive closure of ``gens`` (pointed case only).

    The sum of the cone inequalities is positive on every generator, so
    subtracting a generator strictly lowers it: exhaustive descent over all
    generator subtractions terminates and decides membership exactly.
    """

    def __init__(self, gens: Sequence[Vec], rank: int, normals: Sequence[Vec]):
        phi = tuple(sum(col) for col in zip(*normals)) if normals else (0,) * rank
        levels = [dot(phi, g) for g in gens]
        if any(lv < 1 for lv in levels):
            raise ValueError("descent functional not positive; cone not pointed?")
        self._gens = list(gens)
        self._phi = phi
        self._memo: dict[Vec, bool] = {(0,) * rank: True}

    def member(self, v: Sequence[int]) -> bool:
        memo = self._memo
        phi = self._phi
        stack = [tuple(v)]
        while stack:
            cur = stack.pop()
            if cur in memo:
                continue
            level = dot(phi, cur)
            if level <= 0:
                memo[cur] = False
                continue
            children = [
                tuple(c - g for c, g in zip(cur, gen)) for gen in self._gens
            ]
            if any(memo.get(ch) is True for ch in children):
                memo[cur] = True
                continue
            pending = [ch for ch in children if ch not in memo]
            if pending:
                stack.append(cur)
                stack.extend(pending)
            else:
                memo[cur] = False
        return self._memo[tuple(v)]


# ---------------------------------------------------------------------------
# bounded enumeration


def l1_ball(rank: int, bound: int) -> Iterator[Vec]:
    """Every integer vector with coordinate absolute sum at most ``bound``."""
    if rank == 0:
        yield ()
        return
    for head in range(-bound, bound + 1):
        for tail in l1_ball(rank - 1, bound - abs(head)):
            yield (head,) + tail


class SaturationOracle:
    """Brute-force gap search: cone-and-lattice points missing from the semigroup."""

    def __init__(self, gens: Sequence[Vec], rank: int):
        self.rank = rank
        self.normals = cone_inequalities(gens, rank)
        self.lattice = LatticeOracle(gens, rank)
        self.semigroup = SemigroupOracle(gens, rank, self.normals)

    def gap_in_ball(self, bound: int) -> Optional[Vec]:
        for v in sorted(l1_ball(self.rank, bound)):
            if not any(v):
                continue
            if (
                in_cone(self.normals, v)
                and self.lattice.contains(v)
                and not self.semigroup.member(v)
            ):
                return v
        return None

    def confirms_gap(self, v: Vec) -> bool:
        return (
            in_cone(self.normals, v)
            and self.lattice.contains(v)
            and not self.semigroup.member(v)
        )


# ---------------------------------------------------------------------------
# hypersurface family


def brute_force_monomials(datum, bound: int) -> list[tuple[Vec, int]]:
    """(exponents, grading weight) of every twist-invariant monomial of degree
    <= bound, sorted, by a quadruple loop; the y-exponent is solved for."""
    p, q, k, a = datum.p, datum.q, datum.k, datum.a
    out = []
    for s in range(bound + 1):
        for u in range(bound + 1 - s):
            for v in range(bound + 1 - s - u):
                for w in range(bound + 1 - s - u - v):
                    rest = -p * s - p * u + q * v + q * w
                    if rest > 0 or rest % k:
                        continue
                    z = -rest // k
                    if s + u + v + w + z > bound:
                        continue
                    if (-s - u + v + w) % a:
                        continue
                    out.append(((s, u, v, w, z), p * s + q * u - q * v - p * w))
    return sorted(out)
