"""Root data on a pair of dual integer lattices.

A root datum here is purely combinatorial: a lattice ``X = Z^rank``, a dual
lattice ``Y = Z^rank`` joined to it by an explicit unimodular pairing, a
finite set of roots in ``X`` with matching coroots in ``Y``, and a choice of
simple roots.  Everything downstream (affine Weyl groups, Hecke algebras with
unequal parameters, trace generating functions) is built from this data.

Vectors are plain tuples of ints, written in the chosen bases of ``X`` and
``Y``; the pairing of ``x`` with ``y`` is ``x^T P y`` for the integer matrix
``P`` stored on the datum.  The preset table covers the rank-1 and rank-2
cases used throughout the test-suite plus the two parameterised families
("BnCn(n)" with a non-reduced extension, "GLn(n)" with an infinite
length-zero subgroup).
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import mul

Vec = tuple[int, ...]

#: Safety bound for root generation: a closure that exceeds this many roots
#: is rejected rather than pursued.
MAX_ROOTS = 1000

PRESET_NAMES = ("A1-weight", "A1-root", "A2", "B2", "C2", "G2", "BnCn(n)", "GLn(n)")
#: The two parametrised preset families, "BnCn(n)" and "GLn(n)".
PRESET_FAMILY = re.compile(r"(BnCn|GLn)\((\d+)\)")


class RootSystemError(ValueError):
    """Raised when input data violate the root-datum axioms."""


# ---------------------------------------------------------------------------
# small integer-vector helpers


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vneg(a: Vec) -> Vec:
    return tuple(-x for x in a)


def vscale(c: int, a: Vec) -> Vec:
    return tuple(c * x for x in a)


# ---------------------------------------------------------------------------
# exact linear algebra over Q


def solve(a, b=()):
    """Gauss-Jordan elimination of ``a . X = b`` over the rationals.

    ``a`` is an n x m matrix and ``b`` an n x k matrix, both given as rows of
    numbers; ``b`` may be omitted (k = 0).  Returns ``(rank of a, X)``, where
    ``X`` is an m x k list of rows of Fractions with every free unknown set
    to 0, or ``(rank of a, None)`` when the system has no solution.
    """
    m = len(a[0]) if a else 0
    k = len(b[0]) if b else 0
    rows = [[Fraction(v) for v in row] + [Fraction(v) for v in (b[i] if b else ())]
            for i, row in enumerate(a)]
    pivots: list[int] = []
    for col in range(m):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][col]
        pivot = rows[r] = [v * inv for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                c = row[col]
                rows[i] = [v - c * w for v, w in zip(row, pivot)]
        pivots.append(col)
    rank = len(pivots)
    if any(any(row[m:]) for row in rows[rank:]):
        return rank, None
    x = [[Fraction(0)] * k for _ in range(m)]
    for r, col in enumerate(pivots):
        x[col] = rows[r][m:]
    return rank, x


def solve_columns(cols, xs: list[Vec]) -> list[tuple[Fraction, ...]] | None:
    """For each ``x`` in ``xs``, the coefficients ``c`` with
    ``sum_j c_j * cols[j] = x``, with free ones set to 0; None if some ``x``
    has none.  One elimination, with a right-hand side column per ``x``."""
    if not xs:
        return []
    a = [[col[i] for col in cols] for i in range(len(xs[0]))]
    _, sol = solve(a, [list(row) for row in zip(*xs)])
    if sol is None:
        return None
    return [tuple(row[j] for row in sol) for j in range(len(xs))]


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# the datum itself


class RootDatum(
    namedtuple(
        "RootDatum",
        "rank pairing simple_roots simple_coroots roots coroots name",
        defaults=("",),
    )
):
    """A based root datum: dual lattices, a pairing, roots and coroots.

    ``pairing`` is the integer matrix ``P`` with ``<x, y> = x^T P y``;
    ``roots[i]`` pairs with ``coroots[i]``.  An immutable value: equality
    and hashing read every field, so :func:`derive` caches on it.
    """

    __slots__ = ()

    def pair(self, x: Vec, y: Vec) -> int:
        """The pairing ``<x, y>`` of ``x`` in X with ``y`` in Y."""
        total = 0
        for i, xi in enumerate(x):
            if xi:
                row = self.pairing[i]
                total += xi * sum(p * yj for p, yj in zip(row, y))
        return total

    def form(self, y: Vec) -> Vec:
        """The integer form ``P . y``, so that ``<x, y>`` is the dot product
        of ``x`` with it."""
        return tuple(sum(p * yj for p, yj in zip(row, y)) for row in self.pairing)


# ---------------------------------------------------------------------------
# root generation and validation


def generate_roots(
    simple_roots: tuple[Vec, ...],
    simple_coroots: tuple[Vec, ...],
    pairing: tuple[Vec, ...],
) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Close a simple system under its own reflections.

    Returns the full root/coroot lists (in a deterministic order), or raises
    :class:`RootSystemError` if the input violates the axioms: mismatched
    lengths, ``<alpha, alpha^vee> != 2``, a non-reduced closure, a closure
    that fails to stabilise, or growth past ``MAX_ROOTS``.
    """
    if len(simple_roots) != len(simple_coroots):
        raise RootSystemError("simple roots and coroots must align")
    rank = len(pairing)
    for a in simple_roots:
        if len(a) != rank:
            raise RootSystemError("simple root of wrong rank")
    for b in simple_coroots:
        if len(b) != rank:
            raise RootSystemError("simple coroot of wrong rank")

    # the datum's own pairing, which skips the zero coordinates of x
    partial = RootDatum(rank, pairing, simple_roots, simple_coroots, (), ())
    pair = partial.pair
    for a, b in zip(simple_roots, simple_coroots):
        if pair(a, b) != 2:
            raise RootSystemError(f"<alpha, alpha^vee> = {pair(a, b)} != 2 for {a}")
    # simple roots must be linearly independent
    if solve(simple_roots)[0] != len(simple_roots):
        raise RootSystemError("simple roots are linearly dependent")

    found: dict[Vec, Vec] = {}
    for a, b in zip(simple_roots, simple_coroots):
        if a in found:
            raise RootSystemError("duplicate simple root")
        found[a] = b
    frontier = list(simple_roots)
    while frontier:
        nxt: list[Vec] = []
        for root in frontier:
            coroot = found[root]
            for a, b in zip(simple_roots, simple_coroots):
                n = pair(root, b)
                new_root = vsub(root, vscale(n, a))
                new_coroot = vsub(coroot, vscale(pair(a, coroot), b))
                if new_root in found:
                    if found[new_root] != new_coroot:
                        raise RootSystemError("inconsistent coroot assignment in closure")
                else:
                    found[new_root] = new_coroot
                    nxt.append(new_root)
                if len(found) > MAX_ROOTS:
                    raise RootSystemError(
                        f"root closure exceeded the safety bound of {MAX_ROOTS} roots"
                    )
        frontier = nxt

    roots = tuple(sorted(found))
    coroots = tuple(found[r] for r in roots)
    root_set = set(roots)
    for r in roots:
        if vneg(r) not in root_set:
            raise RootSystemError("root set is not symmetric")
        if vscale(2, r) in root_set:
            raise RootSystemError("root system is not reduced")
        if pair(r, found[r]) != 2:
            raise RootSystemError("closure produced a bad root/coroot pair")
    # full closure check under all (not just simple) reflections; <s, b> is
    # the dot product of s with the integer form P . b, and a reflection
    # fixes every root orthogonal to its coroot
    for r in roots:
        form = partial.form(found[r])
        for s in roots:
            n = sum(map(mul, s, form))
            if n and vsub(s, vscale(n, r)) not in root_set:
                raise RootSystemError("root set is not closed under its reflections")
    return roots, coroots


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_rows(rows, what: str) -> tuple[Vec, ...]:
    """``rows`` as a tuple of int tuples.  Anything else (a row that is not
    a list, an entry that is a string, a float or a bool) is refused rather
    than converted, so ``2.5`` is never read as ``2``."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in rows):
        raise RootSystemError(f"{what} must be a list of lists of integers")
    bad = [v for row in rows for v in row if not _is_int(v)]
    if bad:
        raise RootSystemError(f"{what} entries must be integers, got {bad[0]!r}")
    return tuple(tuple(row) for row in rows)


def make_datum(
    rank: int,
    pairing: list[list[int]],
    simple_roots: list[list[int]],
    simple_coroots: list[list[int]],
    name: str = "",
) -> RootDatum:
    """Validate inputs, generate the closure, and assemble a datum."""
    if not _is_int(rank):
        raise RootSystemError(f"rank must be an integer, got {rank!r}")
    P = _int_rows(pairing, "pairing")
    if len(P) != rank or any(len(row) != rank for row in P):
        raise RootSystemError("pairing matrix must be square of size rank")
    # unimodular: of full rank, with an inverse that is again integral
    full, inv = solve(P, _identity(rank))
    if full < rank or any(v.denominator != 1 for row in inv for v in row):
        raise RootSystemError("pairing matrix must be unimodular")
    sr = _int_rows(simple_roots, "simple_roots")
    sc = _int_rows(simple_coroots, "simple_coroots")
    roots, coroots = generate_roots(sr, sc, P)
    datum = RootDatum(rank, P, sr, sc, roots, coroots, name=name)
    derive(datum)  # run the derived checks eagerly
    return datum


# ---------------------------------------------------------------------------
# derived collections


class DerivedRoots:
    """Positive systems and the non-reduced extension of a datum.

    ``nonreduced_positive`` lists pairs ``(beta, beta^vee)`` over the positive
    part of the possibly non-reduced extension: every positive root together
    with, for each root whose coroot is divisible by 2 in Y, its double
    ``(2*alpha, alpha^vee / 2)``.  ``r1_positive`` keeps only the
    unmultipliable layer (roots whose double is not a root of the extension).
    ``_left_inverse`` is an integer matrix ``N`` and ``_left_den`` an integer
    ``d`` with ``N / d`` a left inverse of the simple roots.
    """

    __slots__ = (
        "positive_roots", "positive_coroots", "coroot", "root", "nonreduced_positive",
        "r1_positive", "two_rho", "two_rho_check", "_simple_roots", "_left_inverse",
        "_left_den",
    )

    def __init__(
        self,
        positive_roots: tuple[Vec, ...],
        positive_coroots: tuple[Vec, ...],
        coroot: dict[Vec, Vec],
        root: dict[Vec, Vec],
        nonreduced_positive: tuple[tuple[Vec, Vec], ...],
        r1_positive: tuple[tuple[Vec, Vec], ...],
        two_rho: Vec,
        two_rho_check: Vec,
        simple_roots: tuple[Vec, ...],
        left_inverse: tuple[Vec, ...],
        left_den: int,
    ):
        self.positive_roots = positive_roots
        self.positive_coroots = positive_coroots
        self.coroot = coroot
        self.root = root
        self.nonreduced_positive = nonreduced_positive
        self.r1_positive = r1_positive
        self.two_rho = two_rho
        self.two_rho_check = two_rho_check
        self._simple_roots = simple_roots
        self._left_inverse = left_inverse
        self._left_den = left_den

    def root_coordinates(self, x: Vec) -> tuple[Fraction, ...] | None:
        """Coordinates of ``x`` in the simple-root basis, or None if x is
        outside the rational span of the roots."""
        return _left_solve(self._simple_roots, self._left_inverse, self._left_den, x)


def _left_solve(simple_roots, left_inverse, den: int, x: Vec) -> tuple[Fraction, ...] | None:
    """``N x / d`` through the left inverse ``N / d`` of the simple roots,
    or None when the roots do not give ``x`` back."""
    nums = [sum(map(mul, row, x)) for row in left_inverse]
    for j, xj in enumerate(x):
        if sum(c * a[j] for c, a in zip(nums, simple_roots)) != den * xj:
            return None
    return tuple(Fraction(c, den) for c in nums)


@lru_cache(maxsize=None)
def derive(datum: RootDatum) -> DerivedRoots:
    coroot = dict(zip(datum.roots, datum.coroots))
    root = dict(zip(datum.coroots, datum.roots))

    # the one elimination: the rows of the solution X of S^T X = 1, for S
    # the simple roots as columns, are a left inverse of S, which gives
    # every root its coordinates
    simple = datum.simple_roots
    _, left = solve(simple, _identity(len(simple)))
    den = math.lcm(*(v.denominator for row in left for v in row))
    left_inverse = tuple(tuple(int(v * den) for v in col) for col in zip(*left))
    positive = []
    for r in datum.roots:
        coords = _left_solve(simple, left_inverse, den, r)
        if coords is None:
            raise RootSystemError("a root lies outside the span of the simple roots")
        if any(c.denominator != 1 for c in coords):
            raise RootSystemError("a root has non-integral simple-root coordinates")
        if all(c >= 0 for c in coords):
            positive.append(r)
        elif not all(c <= 0 for c in coords):
            raise RootSystemError("a root has mixed-sign simple-root coordinates")
    positive.sort()
    positive_roots = tuple(positive)
    positive_coroots = tuple(coroot[r] for r in positive_roots)

    nonreduced = []
    r1 = []
    for r in positive_roots:
        b = coroot[r]
        nonreduced.append((r, b))
        if all(v % 2 == 0 for v in b):
            half = tuple(v // 2 for v in b)
            nonreduced.append((vscale(2, r), half))
            r1.append((vscale(2, r), half))
        else:
            r1.append((r, b))

    two_rho = (0,) * datum.rank
    for r in positive_roots:
        two_rho = vadd(two_rho, r)
    two_rho_check = (0,) * datum.rank
    for b in positive_coroots:
        two_rho_check = vadd(two_rho_check, b)

    for a, b in zip(datum.simple_roots, datum.simple_coroots):
        if datum.pair(two_rho, b) != 2 or datum.pair(a, two_rho_check) != 2:
            raise RootSystemError("2*rho pairing check failed for a simple root")

    return DerivedRoots(
        positive_roots=positive_roots,
        positive_coroots=positive_coroots,
        coroot=coroot,
        root=root,
        nonreduced_positive=tuple(nonreduced),
        r1_positive=tuple(r1),
        two_rho=two_rho,
        two_rho_check=two_rho_check,
        simple_roots=simple,
        left_inverse=left_inverse,
        left_den=den,
    )


@lru_cache(maxsize=None)
def fundamental_weights(datum: RootDatum) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """``(weights, steps)``: ``weights[i] = k_i * omega_i`` for the
    fundamental weight ``omega_i`` (``<omega_i, b_j> = delta_ij`` on the
    simple coroots, free coordinates 0), with ``k_i = steps[i]`` the least
    integer that puts it in X.  One elimination per datum."""
    forms = [datum.form(b) for b in datum.simple_coroots]
    _, omegas = solve(forms, _identity(len(forms)))
    steps = tuple(math.lcm(*(v.denominator for v in col)) for col in zip(*omegas))
    weights = tuple(tuple(int(v * k) for v in col) for col, k in zip(zip(*omegas), steps))
    return weights, steps


# ---------------------------------------------------------------------------
# dominance, decomposition, boxes


def is_dominant(datum: RootDatum, x: Vec) -> bool:
    return all(datum.pair(x, b) >= 0 for b in datum.simple_coroots)


def dominant_shift(datum: RootDatum, xs: list[Vec]) -> int:
    """The least ``N >= 0`` with ``x + N * 2rho`` dominant for every ``x`` in
    ``xs``; since ``<2rho, a_i^vee> = 2`` this is a max of ceilings over the
    simple coroots."""
    n = 0
    for x in xs:
        for b in datum.simple_coroots:
            n = max(n, -(datum.pair(x, b) // 2))  # ceil(-<x, b> / 2)
    return n


def shift_for_bounds(datum: RootDatum, bounds) -> Vec:
    """A dominant ``z`` in X with ``<z, b_i> >= bounds[i]`` for every simple
    coroot ``b_i``, short by ``<z, 2rho^vee>``, the length of ``t_z``.

    It is the shorter of ``sum_i k_i ceil(m_i / k_i) omega_i``, with
    ``m_i = max(bounds[i], 0)`` and ``k_i omega_i`` the least multiple of the
    fundamental weight in X (:func:`fundamental_weights`), and the least multiple
    ``n * 2rho`` with ``2n >= m_i``; ``2rho`` on a tie.  Where every
    ``omega_i`` lies in X (every ``k_i = 1``) the weight sum is the least
    length of all: a dominant ``z`` pairs to some ``c_i >= m_i`` with each
    ``b_i`` and has length ``sum_i c_i <omega_i, 2rho^vee>``.  Where it does
    not (A2) the rounding up to ``k_i`` can make ``2rho`` the shorter.
    """
    der = derive(datum)
    tops = [max(m, 0) for m in bounds]
    z = (0,) * datum.rank
    for m, w, k in zip(tops, *fundamental_weights(datum)):
        z = vadd(z, vscale(-(-m // k), w))
    rho = vscale(-(-max(tops, default=0) // 2), der.two_rho)
    check = der.two_rho_check
    return z if datum.pair(z, check) < datum.pair(rho, check) else rho


def dominant_decomposition(datum: RootDatum, x: Vec) -> tuple[Vec, Vec]:
    """Write ``x = y - z`` with ``y``, ``z`` dominant and ``z`` the minimal
    multiple of the positive-root sum, ``dominant_shift(datum, [x]) * 2rho``."""
    z = vscale(dominant_shift(datum, [x]), derive(datum).two_rho)
    return vadd(x, z), z


def height(datum: RootDatum, x: Vec) -> Fraction:
    """The pairing ``<x, rho^vee>``: on the root lattice this is the sum of
    the simple-root coefficients."""
    return Fraction(datum.pair(x, derive(datum).two_rho_check), 2)


def in_negative_cone(datum: RootDatum, x: Vec) -> bool:
    """True when ``-x`` is a non-negative integer combination of simple roots."""
    coords = derive(datum).root_coordinates(x)
    return coords is not None and all(c.denominator == 1 and c <= 0 for c in coords)


def coordinate_box(rank: int, lo: int, hi: int) -> list[Vec]:
    """Every point of ``[lo, hi]^rank``, in lexicographic order."""
    points: list[Vec] = [()]
    for _ in range(rank):
        points = [p + (c,) for p in points for c in range(lo, hi + 1)]
    return points


# ---------------------------------------------------------------------------
# presets


def build_preset(name: str) -> RootDatum:
    """Construct one of the named presets.

    >>> build_preset("A2").rank
    2

    Recognised names: "A1-weight", "A1-root", "A2", "B2", "C2", "G2",
    "BnCn(n)" and "GLn(n)" for explicit n >= 1 (e.g. "BnCn(2)", "GLn(3)").
    """
    if name == "A1-weight":
        return make_datum(1, [[1]], [[2]], [[1]], name=name)
    if name == "A1-root":
        return make_datum(1, [[1]], [[1]], [[2]], name=name)
    if name == "A2":
        return make_datum(2, [[1, 0], [0, 1]], [[1, 0], [0, 1]], [[2, -1], [-1, 2]], name=name)
    if name == "B2":
        # weight lattice of B2: X = Z f1 + Z f2 with f1 = e1, f2 = (e1+e2)/2,
        # Y = Z(e1-e2) + Z(2 e2); the bases are dual, so the pairing is the
        # identity.  alpha1 = e1 - e2 (long), alpha2 = e2 (short).
        return make_datum(2, [[1, 0], [0, 1]], [[2, -2], [-1, 2]], [[1, 0], [0, 1]], name=name)
    if name == "C2":
        # weight lattice of C2 is Z^2 in standard coordinates;
        # alpha1 = e1 - e2 (short), alpha2 = 2 e2 (long).
        return make_datum(2, [[1, 0], [0, 1]], [[1, -1], [0, 2]], [[1, -1], [0, 1]], name=name)
    if name == "G2":
        # simple-root coordinates; alpha1 short, alpha2 long.
        return make_datum(2, [[1, 0], [0, 1]], [[1, 0], [0, 1]], [[2, -3], [-1, 2]], name=name)
    m = PRESET_FAMILY.fullmatch(name)
    if not m:
        raise RootSystemError(f"unknown preset {name!r}; try one of {', '.join(PRESET_NAMES)}")
    family, n = m.group(1), int(m.group(2))
    # the closed-form root count, refused before any closure is built
    count = 2 * n * n if family == "BnCn" else n * (n - 1)
    if count > MAX_ROOTS:
        raise RootSystemError(
            f"{name} has {count} roots, past the safety bound of {MAX_ROOTS} roots"
        )
    if family == "BnCn":
        if n < 1:
            raise RootSystemError("BnCn(n) needs n >= 1")
        simple_roots = []
        simple_coroots = []
        for i in range(n - 1):
            e = [0] * n
            e[i], e[i + 1] = 1, -1
            simple_roots.append(list(e))
            simple_coroots.append(list(e))
        last = [0] * n
        last[n - 1] = 1
        simple_roots.append(last)
        simple_coroots.append([2 * v for v in last])
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        return make_datum(n, eye, simple_roots, simple_coroots, name=name)
    if n < 2:
        raise RootSystemError("GLn(n) needs n >= 2")
    simple = []
    for i in range(n - 1):
        e = [0] * n
        e[i], e[i + 1] = 1, -1
        simple.append(list(e))
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return make_datum(n, eye, simple, simple, name=name)


# ---------------------------------------------------------------------------
# JSON interchange


def datum_to_json(datum: RootDatum) -> str:
    obj = {
        "rank": datum.rank,
        "pairing": [list(row) for row in datum.pairing],
        "simple_roots": [list(a) for a in datum.simple_roots],
        "simple_coroots": [list(b) for b in datum.simple_coroots],
    }
    if datum.name:
        obj["name"] = datum.name
    return json.dumps(obj, separators=(",", ":")) + "\n"


def datum_from_json(text: str) -> RootDatum:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RootSystemError(f"bad datum JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise RootSystemError("datum JSON must be an object")
    try:
        rank = obj["rank"]
        pairing = obj["pairing"]
        simple_roots = obj["simple_roots"]
        simple_coroots = obj["simple_coroots"]
    except KeyError as exc:
        raise RootSystemError(f"datum JSON missing field: {exc}") from exc
    if "labels" in obj:
        raise RootSystemError(
            "datum JSON carries no labels; give them with --labels "
            "(or LabelSet.numeric_assignment)"
        )
    return make_datum(
        rank, pairing, simple_roots, simple_coroots, name=str(obj.get("name", ""))
    )
