"""Exact integer lattices and rational polyhedral cones.

Everything in this module is computed over arbitrary-precision integers; no
floating point is used anywhere.  Ranks, left solves and a simplex's coset
points share one fraction-free (Bareiss) elimination, one pass per question;
kernels, lattice membership and lattice coordinates, the Hilbert basis's frame
included, share the Hermite form.  ``Fraction`` appears only in ``solve_left``,
which nothing here calls.  Double description by adjacency and the face
lattice run on zero sets as int bitmasks.  Scale target is small ambient rank
(interactive use), not bulk polyhedral computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import gcd, lcm, prod
from operator import add, and_, mul, neg, sub
from typing import Iterable, NamedTuple, Optional, Sequence

Vec = tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Vectors of different ambient ranks were mixed in one computation."""


class NonPointedError(ValueError):
    """Raised by operations that are only defined for pointed cones."""


# ---------------------------------------------------------------------------
# vector helpers


def as_vector(coords: Iterable[int], rank: Optional[int] = None) -> Vec:
    """Validate and freeze an integer vector.

    Rejects floats and other inexact types; booleans are rejected as well so
    that weight data cannot silently degrade to flags.
    """
    vec = tuple(coords)
    for c in vec:
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError(f"lattice coordinates must be exact integers, got {c!r}")
    if rank is not None and len(vec) != rank:
        raise DimensionMismatchError(
            f"expected a vector of rank {rank}, got rank {len(vec)}"
        )
    return vec


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise DimensionMismatchError(f"rank mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(map(add, u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(map(sub, u, v))


def vneg(u: Vec) -> Vec:
    return tuple(map(neg, u))


def vscale(c: int, u: Vec) -> Vec:
    return tuple([c * a for a in u])


def is_zero_vec(u: Sequence[int]) -> bool:
    return not any(u)


def primitive(u: Sequence[int]) -> Vec:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = 0
    for a in u:
        g = gcd(g, a)
    if g <= 1:
        return tuple(u)
    return tuple(a // g for a in u)


# ---------------------------------------------------------------------------
# exact linear algebra (one fraction-free integer kernel)


def _check_width(rows: Sequence[Sequence[int]], width: int) -> None:
    if any(len(r) != width for r in rows):
        raise DimensionMismatchError(f"every row must have rank {width}")


def _eliminate(work: list[Sequence[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows, in place.

    Each of columns ``0..ncols-1`` takes as pivot the first row from row
    ``rank`` on that is nonzero there.  Every other row becomes
    ``(p * row - row[col] * pivot_row) // prev`` with ``prev`` the previous
    pivot: exact by Sylvester's identity, so entries stay minors of the
    input (Bareiss, Math. Comp. 22, 1968).  Returns the pivot columns and
    the last pivot ``d`` (1 if none); pivot row ``r`` then holds ``d`` at
    ``pivots[r]`` and 0 at every other pivot column, so ``[S | I]`` with S
    square of full rank becomes ``[d I | d S^-1]``, ``d = ±det S``.
    """
    pivots: list[int] = []
    prev = 1
    nrows = len(work)
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        pick = next((i for i in range(rank, nrows) if work[i][col]), None)
        if pick is None:
            continue
        work[rank], work[pick] = work[pick], work[rank]
        prow = work[rank]
        p = prow[col]
        for i in range(nrows):
            if i == rank:
                continue
            row = work[i]
            f = row[col]
            if f:
                work[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            elif p != prev:
                work[i] = [p * a // prev for a in row]
        pivots.append(col)
        prev = p
    return pivots, prev


def matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    if not rows:
        return 0
    _check_width(rows, len(rows[0]))
    return len(_eliminate(list(rows), len(rows[0]))[0])


def solve_left(
    rows: Sequence[Vec], target: Sequence[int | Fraction]
) -> Optional[tuple[Fraction, ...]]:
    """Solve ``sum_i x_i * rows[i] = target`` over the rationals.

    Returns one solution (free coordinates set to zero) or None when the
    system is inconsistent.
    """
    m = len(rows)
    if m == 0:
        return () if all(t == 0 for t in target) else None
    n = len(rows[0])
    if len(target) != n:
        raise DimensionMismatchError("target rank does not match row rank")
    _check_width(rows, n)
    # one equation per coordinate; a rational target is scaled to integers
    scale = lcm(*(t.denominator for t in target))
    column = [t.numerator * (scale // t.denominator) for t in target]
    aug = list(zip(*rows, column))
    pivots, d = _eliminate(aug, m)
    if any(row[m] for row in aug[len(pivots):]):
        return None
    value = {col: row[m] for col, row in zip(pivots, aug)}
    return tuple(Fraction(value.get(col, 0), d * scale) for col in range(m))


def integer_kernel_basis(rows: Sequence[Vec], ambient_rank: int) -> list[Vec]:
    """Hermite basis of the integer points of ``{x : rows @ x = 0}``.

    The rows of the Hermite form of ``[rows^T | I]`` that vanish on the
    ``rows^T`` columns are a basis over the integers.
    """
    _check_width(rows, ambient_rank)
    m = len(rows)
    aug = [tuple(r[j] for r in rows) + hermite_row(j, ambient_rank) for j in range(ambient_rank)]
    return [row[m:] for row in hermite_normal_form(aug) if is_zero_vec(row[:m])]


def hermite_row(i: int, n: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def hermite_normal_form(rows: Iterable[Sequence[int]]) -> list[Vec]:
    """Row-style Hermite normal form; returns the nonzero rows.

    Pivots are positive, pivot columns strictly increase, and entries above a
    pivot are reduced into ``[0, pivot)``, so the output is canonical for the
    generated subgroup.
    """
    mat = [list(r) for r in rows if not is_zero_vec(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    for r in mat:
        if len(r) != ncols:
            raise DimensionMismatchError("rows of mixed rank")
    top = 0
    for col in range(ncols):
        while True:
            nonzero = [i for i in range(top, len(mat)) if mat[i][col] != 0]
            if not nonzero:
                break
            pick = min(nonzero, key=lambda i: abs(mat[i][col]))
            mat[top], mat[pick] = mat[pick], mat[top]
            done = True
            for i in range(top + 1, len(mat)):
                if mat[i][col] != 0:
                    q = mat[i][col] // mat[top][col]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                    if mat[i][col] != 0:
                        done = False
            if done:
                break
        if top < len(mat) and mat[top][col] != 0:
            if mat[top][col] < 0:
                mat[top] = [-a for a in mat[top]]
            for i in range(top):
                q = mat[i][col] // mat[top][col]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
            top += 1
            if top == len(mat):
                break
    # every row below the last pivot has been reduced to zero
    return [tuple(r) for r in mat[:top]]


# ---------------------------------------------------------------------------
# lattice subgroups


class LatticeSubgroup(NamedTuple):
    """Subgroup of Z^n given by a canonical (Hermite) basis.

    ``coordinates`` reduces a vector against the basis rows at their pivots,
    and ``contains`` asks whether that reduction succeeds; ``member_vector``
    maps integer coefficients in the basis back to Z^n.
    """

    ambient_rank: int
    basis: tuple[Vec, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def coordinates(self, v: Sequence[int]) -> Optional[Vec]:
        """Hermite reduction: clear each pivot with its basis row and keep the
        quotients, v's integer coefficients in ``basis``; None when v is not a
        member (a remainder at a pivot, or a nonzero rest)."""
        vec = as_vector(v, self.ambient_rank)
        coeffs = []
        for row in self.basis:
            col = next(j for j, a in enumerate(row) if a)
            q, rem = divmod(vec[col], row[col])
            if rem:
                return None
            coeffs.append(q)
            vec = vsub(vec, vscale(q, row))
        return tuple(coeffs) if is_zero_vec(vec) else None

    def contains(self, v: Sequence[int]) -> bool:
        return self.coordinates(v) is not None

    def member_vector(self, coeffs: Sequence[int]) -> Vec:
        out = (0,) * self.ambient_rank
        for c, row in zip(coeffs, self.basis):
            out = vadd(out, vscale(c, row))
        return out


def group_generated(gens: Sequence[Sequence[int]]) -> LatticeSubgroup:
    """Subgroup of Z^n generated (with signs) by the given vectors."""
    vecs = [as_vector(g) for g in gens]
    if not vecs:
        raise ValueError("at least one generator is required")
    rank = len(vecs[0])
    vecs = [as_vector(g, rank) for g in vecs]
    return LatticeSubgroup(rank, tuple(hermite_normal_form(vecs)))


# ---------------------------------------------------------------------------
# double description: halfspaces -> generators


def _extreme(zeros: dict[Vec, int], full: int) -> dict[Vec, int]:
    """The vecs on extreme rays of the cone cut out by the normals of ``full``.

    Used by ``_canonical_rays`` only.  ``zeros`` maps each vec to its zero
    set, bit i set when normal i vanishes on it; ``full`` is the set of all
    normals.  A vec is dropped when every normal vanishes on it (a lineality
    direction), or when another vec's zero set lies strictly between its own
    and ``full`` (Fukuda & Prodon, "Double description method revisited",
    1996).  Exact whenever the vecs and the lineality space generate the
    cone: the minimal face of v is generated by the vecs whose zero sets
    contain Z(v), and every extreme ray in it has a representative among them.
    """
    proper = {z for z in zeros.values() if z != full}
    return {
        v: z for v, z in zeros.items()
        if z != full and not any(w != z and w & z == z for w in proper)
    }


def _combine(c: int, u: Vec, d: int, v: Vec) -> Vec:
    return primitive([c * x - d * y for x, y in zip(u, v)])


def generators_from_inequalities(
    normals: Sequence[Vec], ambient_rank: int
) -> tuple[list[Vec], list[Vec]]:
    """Lineality basis and extreme rays of ``{x : a.x >= 0 for a in normals}``.

    Incremental double description with explicit lineality handling.  After
    each normal the rays are one vector per extreme ray of the cone so far,
    modulo its lines, each with its zero set on the processed normals as a
    bitmask; normal ``a`` (bit ``b``) adds b to the rays it vanishes on.  Rays
    p (a.p > 0) and q (a.q < 0) give ``(a.p) q - (a.q) p``, with zero set
    ``Z(p) & Z(q) | b``, only when adjacent: no other ray's zero set contains
    ``Z(p) & Z(q)`` (Fukuda & Prodon, 1996); no other pair gives an extreme
    ray.  Adjacent rays span a face of codimension ``n - 2 - len(lines)``, so
    they share at least that many zeros.  When ``a`` meets a line w, the
    projection along w onto the kernel of ``a`` maps the cone onto its face
    ``a.x = 0``, so the rays stay extreme (and gain b); w joins them with
    every earlier normal in its zero set, as those vanish on the lines.
    """
    n = ambient_rank
    lines: list[Vec] = [hermite_row(i, n) for i in range(n)]
    zeros: dict[Vec, int] = {}  # ray -> zero set on the processed normals
    processed = 0
    for raw in normals:
        a = as_vector(raw, n)
        if is_zero_vec(a):
            continue
        bit = 1 << processed
        hit = next((i for i, v in enumerate(lines) if dot(a, v) != 0), None)
        if hit is not None:
            w = lines.pop(hit)
            if dot(a, w) < 0:
                w = vneg(w)
            aw = dot(a, w)
            lines = [_combine(aw, v, dot(a, v), w) for v in lines]
            zeros = {_combine(aw, r, dot(a, r), w): z | bit for r, z in zeros.items()}
            zeros[w] = bit - 1
        else:
            values = [(r, z, dot(a, r)) for r, z in zeros.items()]
            masks = list(zeros.values())
            least = n - len(lines) - 2  # the codimension of a 2-face
            zeros = {r: z if ar else z | bit for r, z, ar in values if ar >= 0}
            above = [v for v in values if v[2] > 0]
            below = [v for v in values if v[2] < 0]
            for (p, zp, ap), (q, zq, aq) in product(above, below):
                meet = zp & zq  # adjacent: no ray but p and q lies on it
                if meet.bit_count() >= least and list(map(meet.__and__, masks)).count(meet) == 2:
                    zeros[_combine(ap, q, aq, p)] = meet | bit
        processed += 1
    return hermite_normal_form(lines), sorted(zeros)


# ---------------------------------------------------------------------------
# rational cones


class RationalCone:
    """Rational polyhedral cone with exact V- and H-representations.

    Construction canonicalizes the generators: zero vectors are dropped,
    the rest are primitivized and reduced to the extreme rays, and each
    lineality direction is stored as a +/- pair of rays.  The cone is
    ``{x : e.x = 0 for e in equations, f.x >= 0 for f in facets}``.
    ``equations`` is a Hermite basis of the normals vanishing on the whole
    cone, empty when it is full-dimensional; ``facets`` are the sorted,
    primitive, irredundant inequality normals, one per facet, none of them
    vanishing on the whole cone.  ``lineality_basis`` is a Hermite basis of
    the lines in the cone, empty when it is pointed.  ``zero_sets`` maps each
    primitive generator and ray to its zero set on ``facets`` (bit k: facet k).
    """

    __slots__ = ("ambient_rank", "rays", "equations", "facets", "lineality_basis", "zero_sets")

    def __init__(self, rays: Sequence[Sequence[int]], ambient_rank: Optional[int] = None):
        vecs = [as_vector(r) for r in rays]
        if ambient_rank is None:
            if not vecs:
                raise DimensionMismatchError(
                    "ambient rank is required for a cone with no generators"
                )
            ambient_rank = len(vecs[0])
        vecs = sorted({primitive(v) for v in (as_vector(r, ambient_rank) for r in vecs)
                       if not is_zero_vec(v)})
        object.__setattr__(self, "ambient_rank", ambient_rank)
        # the dual cone's lineality spans the equations, its rays are the facets
        eq, ineq = generators_from_inequalities(vecs, ambient_rank)
        object.__setattr__(self, "equations", tuple(eq))
        object.__setattr__(self, "facets", tuple(ineq))
        lineality, rays, zero_sets = _canonical_rays(vecs, eq, ineq, ambient_rank)
        object.__setattr__(self, "lineality_basis", tuple(lineality))
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "zero_sets", zero_sets)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("RationalCone is immutable")

    def contains(self, v: Sequence[int]) -> bool:
        vec = as_vector(v, self.ambient_rank)
        return all(dot(e, vec) == 0 for e in self.equations) and all(
            dot(f, vec) >= 0 for f in self.facets
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalCone):
            return NotImplemented
        if self.ambient_rank != other.ambient_rank:
            return False
        return all(other.contains(r) for r in self.rays) and all(
            self.contains(r) for r in other.rays
        )

    def __repr__(self) -> str:
        return f"RationalCone(rays={list(self.rays)!r}, ambient_rank={self.ambient_rank})"


def _canonical_rays(
    gens: list[Vec], eq: list[Vec], ineq: list[Vec], ambient_rank: int
) -> tuple[list[Vec], tuple[Vec, ...], dict[Vec, int]]:
    """The lineality basis, the rays, and each generator's and ray's zero set
    on ``ineq``.  A line exists exactly when some generator lies on every
    facet: the minimal face, the lineality space, is generated by the
    generators in it, none of them zero.  Extreme generators share a ray
    modulo the lineality space exactly when they share a zero set, and the
    least of them (``gens`` is sorted) is the ray."""
    zeros = {g: sum(1 << i for i, f in enumerate(ineq) if dot(f, g) == 0) for g in gens}
    full = (1 << len(ineq)) - 1
    lineality = integer_kernel_basis(eq + ineq, ambient_rank) if full in zeros.values() else []
    chosen: dict[int, Vec] = {}
    for g, z in _extreme(zeros, full).items():
        chosen.setdefault(z, g)
    lines = [r for line in lineality for r in (line, vneg(line))]
    zeros.update(dict.fromkeys(lines, full))
    return lineality, tuple(sorted([*chosen.values(), *lines])), zeros


def dual_cone(c: RationalCone) -> RationalCone:
    """The cone of functionals nonnegative on every point of c."""
    lines, rays = generators_from_inequalities(c.rays, c.ambient_rank)
    gens = list(rays)
    for line in lines:
        gens.append(line)
        gens.append(vneg(line))
    return RationalCone(gens, c.ambient_rank)


def is_pointed(c: RationalCone) -> bool:
    """True when the cone contains no line."""
    return len(c.lineality_basis) == 0


# ---------------------------------------------------------------------------
# faces


class FaceDescriptor(NamedTuple):
    """One face of a cone.

    ``zero_normals`` are the indices (into the cone's ``facets``) of every
    facet normal vanishing on the face, ``span_rays`` the indices (into
    ``rays``) of every ray lying on it, and ``dim`` the dimension of its
    linear span.
    """

    zero_normals: tuple[int, ...]
    span_rays: tuple[int, ...]
    dim: int


def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def face_lattice(c: RationalCone) -> list[FaceDescriptor]:
    """All faces of c, each exactly once, ordered by (dim, span_rays).

    Faces are intersections of facets: closing the whole ray set under meets
    with the facets' ray sets (int bitmasks, read off the rays' ``zero_sets``)
    enumerates them all.  A face's ``zero_normals`` are the meet of its rays'
    zero sets.  The face lattice is graded (Ziegler, *Lectures on Polytopes*,
    §2.2) and every facet of a face s is a proper meet ``s & f`` with a
    facet's ray set f, so, visiting subsets first, s is one dimension above
    its largest such meet: O(faces x facets).  The minimal face, the
    lineality space, has the dimension of its basis; for a pointed cone that
    is the zero face, with an empty ``span_rays``.
    """
    rays = c.rays
    masks = [c.zero_sets[r] for r in rays]
    normal_sets = [
        sum(1 << j for j, z in enumerate(masks) if z >> i & 1) for i in range(len(c.facets))
    ]
    meets: dict[int, set[int]] = {}  # ray set -> its proper meets with the facets
    work = [(1 << len(rays)) - 1]
    while work:
        s = work.pop()
        if s not in meets:
            meets[s] = below = set(map(s.__and__, normal_sets))
            below.discard(s)
            work.extend(below)
    full = (1 << len(c.facets)) - 1
    dims: dict[int, int] = {}
    rows = []
    for s in sorted(meets):  # a subset is a smaller int: subfaces come first
        below = meets[s]
        dim = dims[s] = 1 + max(map(dims.__getitem__, below)) if below else len(c.lineality_basis)
        span = _bits(s)
        rows.append((dim, span, _bits(reduce(and_, map(masks.__getitem__, span), full))))
    return [FaceDescriptor(zero, span, dim) for dim, span, zero in sorted(rows)]


# ---------------------------------------------------------------------------
# Hilbert bases


def hilbert_basis(c: RationalCone, subgroup: Optional[LatticeSubgroup] = None) -> list[Vec]:
    """Minimal generating set of the monoid ``c ∩ subgroup`` (c pointed).

    Everything is read in one frame, the Hermite basis of the subgroup
    points on which every one of ``c.equations`` vanishes (a datum's whole
    weight lattice).  There the cone is full-dimensional in ``Z^d``; each of
    ``c.facets`` f reads as ``(b.f for b in frame)``, and each ray r as the
    primitive ``frame.coordinates(P r)``, P the product of the frame's
    pivots: each reduction step divides by one pivot.  Each linearly
    independent ``d``-subset S of rays contributes its rays and one point of
    each of the |det S| cosets of ``Z^d / Z<S>``, taken in the half-open
    parallelepiped of S (Bruns & Ichim, J. Algebra 324, 2010).  That covers
    the Hilbert basis: by conic Caratheodory an irreducible point lies in
    some such simplicial cone, and unless it is a ray of S its coefficients
    there are all below 1.  Each candidate's values under the facet normals
    are computed once; in order of their sum, a positive degree, a candidate
    is kept unless an irreducible one found so far has no larger value.  The
    irreducible ones form the unique minimal generating set, mapped back by
    ``frame.member_vector``.
    """
    if not is_pointed(c):
        raise NonPointedError("non-pointed: Hilbert basis undefined here")
    n = c.ambient_rank
    if subgroup is None:
        subgroup = LatticeSubgroup(n, tuple(hermite_row(i, n) for i in range(n)))
    if subgroup.ambient_rank != n:
        raise DimensionMismatchError("subgroup and cone have different ambient ranks")
    if not c.rays:
        return []
    eq_rows = [tuple(dot(b, e) for b in subgroup.basis) for e in c.equations]
    kernel = integer_kernel_basis(eq_rows, subgroup.rank)
    frame = LatticeSubgroup(n, tuple(hermite_normal_form(map(subgroup.member_vector, kernel))))
    scale = prod(next(a for a in row if a) for row in frame.basis)
    coords: set[Vec] = set()
    for r in c.rays:
        x = frame.coordinates(vscale(scale, r))
        if x is None:
            raise DimensionMismatchError(
                "subgroup does not have full rank inside the span of the cone"
            )
        coords.add(primitive(x))
    rays = sorted(coords)
    normals = [primitive([dot(b, f) for b in frame.basis]) for f in c.facets]
    candidates = set(rays)
    for subset in combinations(rays, frame.rank):
        candidates.update(_parallelepiped_points(subset))
    candidates.discard((0,) * frame.rank)
    values = {h: tuple(dot(f, h) for f in normals) for h in candidates}
    basis: list[Vec] = []
    for h in sorted(candidates, key=lambda v: (sum(values[v]), v)):
        # b reduces h when h - b is in the cone: no value of b exceeds h's
        vh = values[h]
        if not any(all(a <= x for a, x in zip(values[b], vh)) for b in basis):
            basis.append(h)
    return sorted(frame.member_vector(h) for h in basis)


def _parallelepiped_points(gens: Sequence[Vec]) -> list[Vec]:
    """One point of each coset of ``Z^d / Z<gens>``, in the half-open parallelepiped.

    ``gens`` are the ``d`` rows of a ``d x d`` matrix S; linearly dependent
    ones give [].  One elimination of ``[S | I]`` gives ``D = |det S|`` and
    ``±D S^-1``, whose row j is D times the coefficients of e_j on S.  A
    point x has coefficients ``x S^-1``, so ``x -> D x S^-1 mod D`` maps
    ``Z^d / Z<gens>`` one to one onto the subgroup of ``(Z/D)^d`` that those
    rows generate (as do their negatives), listed here by closure from 0.
    An element k of it is the point ``k S / D``, with coefficients ``k / D``
    in ``[0, 1)``.
    """
    d = len(gens)
    work: list[Sequence[int]] = [[*g, *hermite_row(i, d)] for i, g in enumerate(gens)]
    pivots, det = _eliminate(work, d)
    if len(pivots) < d:
        return []
    size = abs(det)
    steps = {tuple(a % size for a in row[d:]) for row in work}
    cosets = {(0,) * d}
    frontier = [(0,) * d]
    while frontier:
        k = frontier.pop()
        for step in steps:
            nxt = tuple((a + b) % size for a, b in zip(k, step))
            if nxt not in cosets:
                cosets.add(nxt)
                frontier.append(nxt)
    return [
        tuple(sum(c * g[t] for c, g in zip(k, gens)) // size for t in range(d))
        for k in cosets
    ]
