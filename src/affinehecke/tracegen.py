"""The trace on the Bernstein basis and its generating function.

Two independent computations of tau(theta(x)) live here:

* the direct route — tau(theta(x)) read in the Hecke algebra, for a whole
  batch of x as coefficients of one targeted translation inverse that folds
  only the states that can still reach the batch's targets;
* the weighted-partition route — the coefficients of a product of per-root
  series sum_k d(a; k) u_a^k, one for each positive root a of the
  non-reduced extension, read for a whole batch of x at once; the
  coefficient at -x sums, over the ways of writing -x as a non-negative
  integer combination of those roots, the products of the per-root,
  per-multiplicity Laurent polynomials d(a; k).

Their agreement is the content of the generating-function identity

    sum_x tau(theta_x) t(-x) = 1 / (q(w0) c(t) c(t^{-1})),

whose right side the numeric c-functions below evaluate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .bernstein import Bernstein
from .coeffring import LabelSet, LaurentPoly, accumulate
from .rootdata import (
    Vec, coordinate_box, height, in_negative_cone, shift_for_bounds, vadd, vneg,
)
from .weyl import FiniteWeylElem


class PoleError(ArithmeticError):
    """A c-function denominator vanished at the given torus point."""


class ModeError(ValueError):
    """A numeric operation was requested without a numeric label assignment."""


class TorusPoint:
    """A multiplicative character of X, given by its values on the standard
    coordinates; values are exact rationals (ints become Fractions) or
    complex floats."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(Fraction(v) if isinstance(v, int) else v for v in images)
        if any(v == 0 for v in images):
            raise ValueError("torus point values must be nonzero")
        self.images = images

    def value(self, x: Vec):
        out = None
        for v, k in zip(self.images, x):
            if k:
                term = v ** k
                out = term if out is None else out * term
        if out is None:
            return Fraction(1) if self._rational() else complex(1)
        return out

    def _rational(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.images)

    def inv(self) -> "TorusPoint":
        return _moved(tuple(1 / v for v in self.images))

    def apply_w(self, weyl, w: FiniteWeylElem) -> "TorusPoint":
        """The point w(t), acting by (w t)(x) = t(w^{-1} x)."""
        winv = weyl.fin_inv(w)
        rank = len(self.images)
        units = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
        return _moved(tuple(self.value(winv.apply_x(e)) for e in units))

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusPoint) and self.images == other.images

    def __repr__(self) -> str:
        return f"TorusPoint{self.images}"


def _moved(images) -> TorusPoint:
    """The point with values computed from a point's nonzero values: a zero
    among them is a float that left its range, not a bad point."""
    if any(v == 0 for v in images):
        raise OverflowError("a torus coordinate underflowed to 0")
    return TorusPoint(images)


class TraceGen:
    """Trace computations over one Bernstein context.

    ``assignment`` (variable name -> value) makes the numeric operations
    available; formal/symbolic operations ignore it.
    """

    def __init__(self, bernstein: Bernstein, assignment: dict | None = None):
        self.bernstein = bernstein
        self.hecke = bernstein.hecke
        self.labels: LabelSet = bernstein.labels
        self.weyl = bernstein.weyl
        self.datum = bernstein.datum
        self.derived = bernstein.weyl.derived
        self.assignment = assignment
        self._d_cache: dict[tuple[Vec, int], LaurentPoly] = {}
        self._root_coords: list[tuple[Vec, tuple[int, ...]]] | None = None
        self._nonreduced = {
            r for root, _c in self.derived.nonreduced_positive for r in (root, vneg(root))
        }
        self._label_values: dict[Vec, tuple] = {}  # per root: q_a, 1/B_a, q_{2a}

    # -- d coefficients ------------------------------------------------------

    def d_coeff(self, root: Vec, k: int) -> LaurentPoly:
        """The weight of multiplicity k on one positive root of the
        non-reduced extension, in the pair (A, B) of ``LabelSet.c_pair``:

            d(a; k) = (B/A - 1)(1/(AB) - 1) * sum_{j<k} A^{k-2j}

        and d(a; 0) = 1.  The finite sum is the quotient
        (A^{-k} - A^{k}) / (A^{-2} - 1), so no division is needed.
        """
        if k < 0:
            raise ValueError("multiplicity must be non-negative")
        key = (tuple(root), k)
        cached = self._d_cache.get(key)
        if cached is not None:
            return cached
        labels = self.labels
        if k == 0:
            out = labels.one()
        else:
            one = labels.one()
            a, b = labels.c_pair(root)
            geometric = sum((a ** (k - 2 * j) for j in range(k)), labels.zero())
            out = (b * a.inverse() - one) * ((a * b).inverse() - one) * geometric
        self._d_cache[key] = out
        return out

    # -- the partition route -------------------------------------------------

    def _positive_roots_with_coords(self) -> list[tuple[Vec, tuple[int, ...]]]:
        if self._root_coords is None:
            out = []
            for root, _coroot in self.derived.nonreduced_positive:
                coords = self.derived.root_coordinates(root)
                assert coords is not None and all(c.denominator == 1 for c in coords)
                out.append((root, tuple(int(c) for c in coords)))
            self._root_coords = out
        return self._root_coords

    def trace_theta_partition(self, xs: list[Vec]) -> dict[Vec, LaurentPoly]:
        """tau(theta(x)) for a batch of x by the weighted-partition formula.

        The generating series sum_x tau(theta_x) t(-x) is the product, over
        the positive roots a of the non-reduced extension, of the per-root
        series sum_k d(a; k) u_a^k with u_a = t(-a).  Its coefficients are
        read in the simple-root coordinates p of -x, folding in one root at
        a time,

            new[p] = sum_k d(a; k) old[p - k c_a],

        over the cells below some target: that set is closed under
        p -> p - k c_a, so each value depends on its own point only.  An x
        off the negative cone or with -x off the root lattice gets zero.
        """
        datum = self.datum
        cells_of = {
            x: tuple(-int(c) for c in self.derived.root_coordinates(x))
            for x in map(tuple, xs)
            if in_negative_cone(datum, x)
        }
        cells = set()
        for p in cells_of.values():
            cells.update(itertools.product(*(range(c + 1) for c in p)))
        table = {(0,) * len(datum.simple_roots): self.labels.one()}
        for root, step in self._positive_roots_with_coords():
            new: dict[tuple[int, ...], LaurentPoly] = {}
            for p in cells:
                k, below = 0, p
                while min(below) >= 0:
                    old = table.get(below)
                    if old is not None:
                        accumulate(new, p, self.d_coeff(root, k) * old)
                    k += 1
                    below = tuple(a - b for a, b in zip(below, step))
            table = new
        zero = self.labels.zero()
        return {x: table.get(cells_of.get(x), zero) for x in map(tuple, xs)}

    # -- the direct trace ----------------------------------------------------

    def trace_sweep(self, xs: list[Vec]) -> dict[Vec, LaurentPoly]:
        """Direct traces for a batch of x, sharing one translation inverse.

        Every x is decomposed against one dominant shift z that makes every
        ``y = x + z`` dominant: ``rootdata.shift_for_bounds`` at the bounds
        ``m_i = max_x -<x, b_i>``, the shortest such z where the fundamental
        weights lie in X.  On the normalised basis
        ``theta_x = T~_{t_y} T~_{t_z}^{-1}`` for any dominant y, z with
        ``x = y - z`` (Lusztig, *Affine Hecke algebras and their graded
        version*, 1989), and ``tau(T~_a T~_b) = [ab = 1]``, so
        ``tau(theta_x)`` is the coefficient of ``T~_{t_{-y}}`` in
        ``T~_{t_z}^{-1}``: all traces are coefficients of one targeted
        ``invert_basis``, whose length is that of ``t_z``.  By the subword
        property a fold state u with r letters left can reach ``t_{-y}`` only
        if ``l(u^{-1} t_{-y}) <= r``, and that length is an L1 distance
        between per-root vectors, so the other states are dropped as soon as
        they fall out of reach.
        """
        weyl = self.weyl
        xs = [tuple(x) for x in xs]
        datum = self.datum
        z = shift_for_bounds(
            datum, [max((-datum.pair(x, b) for x in xs), default=0) for b in datum.simple_coroots]
        )
        targets = {x: weyl.translation(vneg(vadd(x, z))) for x in xs}
        inv = self.hecke.invert_basis(weyl.translation(z), targets=list(targets.values()))
        zero = self.labels.zero()
        return {x: self.hecke.coeff(inv, u) or zero for x, u in targets.items()}

    # -- rank-one series cross-check ------------------------------------------

    def d_series_truncation(self, root: Vec, order: int) -> list[LaurentPoly]:
        """Coefficients [d(root;0), ..., d(root;order)] of the generating
        series in u = t(-root)."""
        return [self.d_coeff(root, k) for k in range(order + 1)]

    def inverse_cc_series(self, root: Vec, order: int) -> list[LaurentPoly]:
        """The expansion of 1/(q_a c(a,t) c(a,t^{-1})) in powers of
        u = t(-root), computed by power-series inversion:

            = (1 - Bu)(1 - B^{-1}u) / ((1 - Au)(1 - A^{-1}u))

        with (A, B) from ``LabelSet.c_pair``; the scalar prefactor collapses
        to 1.
        """
        one = self.labels.one()
        a, b = self.labels.c_pair(root)
        s_a = a + a.inverse()
        s_b = b + b.inverse()
        # 1/((1-Au)(1-A^{-1}u)) = 1/(1 - s_a u + u^2): linear recurrence
        g = [one, s_a]
        while len(g) < order + 3:
            g.append(s_a * g[-1] - g[-2])
        out = []
        for k in range(order + 1):
            c = g[k]
            if k >= 1:
                c = c - s_b * g[k - 1]
            if k >= 2:
                c = c + g[k - 2]
            out.append(c)
        return out

    # -- numeric c-functions --------------------------------------------------

    def _need_numeric(self) -> dict:
        if self.assignment is None:
            raise ModeError(
                "this operation needs numeric labels; construct it with an "
                "assignment from LabelSet.numeric_assignment"
            )
        return self.assignment

    def label_values(self, root: Vec) -> tuple:
        """``(q_a, 1/B_a, q_{2a})`` at the assignment for ``a = root``, with
        ``(A_a, B_a)`` from ``LabelSet.c_pair``: each is its monomial
        ``A^{-1} B``, ``B^{-1}``, ``B^{-2}`` evaluated once per root, so a
        float value rounds as that one evaluation does.  Read by
        :meth:`c_factor` and ``PrincipalSeries.n_value``."""
        vals = self._label_values.get(root)
        if vals is None:
            asg = self._need_numeric()
            a, b = self.labels.c_pair(root)
            vals = self._label_values[root] = (
                (a.inverse() * b).evaluate(asg), b.inverse().evaluate(asg), (b ** -2).evaluate(asg)
            )
        return vals

    def c_factor(self, root: Vec, t: TorusPoint):
        """One factor of the c-function, c(a, t) = (1 - A u) / (1 - B u) with
        u = t(-a) and (A, B) from ``LabelSet.c_pair``, for a root of the
        non-reduced extension (the value is 1 for any other vector, matching
        the convention that absent labels are 1).  ``1/A`` is the product
        ``(1/B)·q_a`` of two :meth:`label_values`."""
        root = tuple(root)
        if root not in self._nonreduced:
            return Fraction(1)
        qa, b_inv, _q2a = self.label_values(root)
        u = t.value(vneg(root))
        num = 1 - u / (b_inv * qa)
        den = 1 - u / b_inv
        if den == 0:
            raise PoleError(f"c-function pole at root {root}")
        return num / den

    def c_full(self, t: TorusPoint):
        """The product of c-factors over the positive roots of the
        non-reduced extension."""
        out = None
        for r, _c in self.derived.nonreduced_positive:
            v = self.c_factor(r, t)
            out = v if out is None else out * v
        return out if out is not None else Fraction(1)

    def delta_sqrt_value(self, x: Vec):
        return self.labels.delta_sqrt(tuple(x)).evaluate(self._need_numeric())

    # -- the negative cone ----------------------------------------------------

    def negative_cone_points(self, radius: int) -> list[Vec]:
        """All x in the negative cone with height(-x) <= radius, sorted by
        height then lexicographically: x = -sum_i m_i alpha_i for each m in
        [0, radius]^n with sum(m) <= radius."""
        simples = self.datum.simple_roots
        out = [
            tuple(-sum(k * a[j] for k, a in zip(m, simples)) for j in range(self.datum.rank))
            for m in coordinate_box(len(simples), 0, radius)
            if sum(m) <= radius
        ]
        out.sort(key=lambda x: (height(self.datum, vneg(x)), x))
        return out
