"""The Bernstein basis of the affine Hecke algebra.

Every x is written x = y - z with y, z dominant and z the least multiple of
the sum of positive roots that makes y dominant, and
``theta(x) = theta(y) * theta(z)^{-1}`` with
``theta(y) = delta_sqrt(-y) * T_{t_y}`` for dominant y: one fold of
``T_{t_y}`` through the inverse letters of ``t_z``, which has no letters when
x is itself dominant.

Everything downstream (the commutation relation with the generators, the
star involution on the basis, the expansion of arbitrary elements over pairs
``T_w theta(x)``) is built from that one constructor.  The expansion uses the
same move the other way: it reads its shift off the element, a dominant z
that takes the W0-orbits of the translations in its support into the
dominant cone, where every ``T_w theta(x)`` is one T-term.  Over formal and
exact labels alike that z is ``rootdata.shift_for_bounds`` of the orbits'
bounds, the shortest such z where the fundamental weights lie in X.
"""

from __future__ import annotations

from operator import mul

from .coeffring import LaurentPoly
from .hecke import HeckeAlgebra, HeckeElem
from .rootdata import Vec, dominant_decomposition, shift_for_bounds, vneg, vscale, vsub
from .weyl import FiniteWeylElem


class BoxError(ValueError):
    """Raised when a shifted expansion has a term off the dominant range."""


class Bernstein:
    """Bernstein-basis constructions over a fixed Hecke algebra."""

    def __init__(self, hecke: HeckeAlgebra):
        self.hecke = hecke
        self.weyl = hecke.weyl
        self.labels = hecke.labels
        self.datum = hecke.weyl.datum
        self._theta_cache: dict[Vec, HeckeElem] = {}
        # integer forms of the simple coroots, and per simple coroot b_i the
        # forms of the coroots of its W0-invariant norm sum_a <a, c>^2: a set
        # that holds the orbit of b_i, so since <w y, b> = <y, w^{-1} b> the
        # largest -<y, c> over it bounds -<w y, b_i> over the orbit of y (see
        # _orbit_bounds); the coroots are read off the datum, no orbit walked
        self._simple_forms = [self.datum.form(b) for b in self.datum.simple_coroots]
        forms = sorted(self.datum.form(c) for c in self.datum.coroots)
        roots = self.datum.roots
        norms = {f: sum(sum(map(mul, f, a)) ** 2 for a in roots) for f in forms}
        self._norm_forms = [[f for f in forms if norms[f] == norms[s]]
                            for s in self._simple_forms]

    # -- the basis -----------------------------------------------------------

    def theta(self, x: Vec) -> HeckeElem:
        """``theta(y) * theta(z)^{-1}`` for ``x = y - z`` from
        ``dominant_decomposition``: ``T_{t_y}`` folded through the inverse
        letters of ``t_z`` and scaled by ``delta_sqrt(-y) * delta_sqrt(z)``.
        From ``T_{t_y}`` most inverse letters step down, so the support stays
        near theta(x)'s own size; at a dominant x, z = 0 and the fold is
        empty."""
        x = tuple(x)
        cached = self._theta_cache.get(x)
        if cached is not None:
            return cached
        H = self.hecke
        labels = self.labels
        y, z = dominant_decomposition(self.datum, x)
        out = H.rmul_basis(H.basis(self.weyl.translation(y)), self.weyl.translation(z), inverse=True)
        out = H.scale(out, labels.delta_sqrt(vneg(y)) * labels.delta_sqrt(z))
        self._theta_cache[x] = out
        return out

    # -- the commutation relation --------------------------------------------

    def lusztig_commutation(self, x: Vec, i: int) -> tuple[HeckeElem, HeckeElem]:
        """Both sides of the commutation relation for the i-th finite
        generator: the bracket ``theta(x) T_s - T_s theta(s x)`` and its
        closed form as a finite geometric sum of basis elements.

        The rational form has denominator 1 - theta(-alpha) (reduced case)
        or 1 - theta(-2 alpha) (when 2*alpha lies in the non-reduced
        extension); both divide the numerator exactly, and only the resulting
        polynomial sum is ever materialized.
        """
        weyl = self.weyl
        datum = self.datum
        if not (0 <= i < datum.rank):
            raise ValueError(f"generator index {i} is not a finite simple index")
        alpha = datum.simple_roots[i]
        acheck = datum.simple_coroots[i]
        H = self.hecke
        s = weyl.simple_affine(i)
        sx = weyl.act_point(s, tuple(x))
        lhs = H.sub(
            H.mul(self.theta(x), H.basis(s)),
            H.mul(H.basis(s), self.theta(sx)),
        )

        n = datum.pair(tuple(x), acheck)
        # the sum runs down from x for n >= 0, and from s x with a minus sign
        base, sign = (tuple(x), 1) if n >= 0 else (sx, -1)
        coeffs = self.commutation_coeffs(alpha)
        rhs = H.add(*(
            H.scale(self.theta(vsub(base, vscale(j, alpha))), coeffs[j % 2] * sign)
            for j in range(abs(n))
        ))
        return lhs, rhs

    def commutation_coeffs(self, alpha: Vec) -> tuple[LaurentPoly, LaurentPoly]:
        """``(1/(AB) - 1, 1/A - 1/B)`` for the pair (A, B) of ``alpha`` from
        ``LabelSet.c_pair``: the coefficients of the even and odd steps of the
        commutation relation, both ``q_alpha - 1`` unless ``2*alpha`` is in
        the non-reduced extension."""
        a, b = self.labels.c_pair(alpha)
        return (a * b).inverse() - self.labels.one(), a.inverse() - b.inverse()

    # -- the star involution on the basis --------------------------------------

    def star_theta_check(self, x: Vec) -> bool:
        """Whether star(theta(x)) equals its conjugation formula
        ``T_{w0} theta(-w0 x) T_{w0}^{-1}``."""
        H = self.hecke
        weyl = self.weyl
        w0 = weyl.as_affine(weyl.longest_element())
        y = vneg(weyl.act_point(w0, tuple(x)))
        rhs = H.mul(H.mul(H.basis(w0), self.theta(y)), H.rmul_basis(H.unit(), w0, inverse=True))
        return H.star(self.theta(tuple(x))) == rhs

    # -- expansion over the product basis --------------------------------------

    def expand_in_bernstein(self, h: HeckeElem) -> dict[tuple[FiniteWeylElem, Vec], LaurentPoly]:
        """Exact coordinates of h over the product basis T_w theta(x).

        The coordinates of ``T_{w t_y}`` lie in the convex hull of the orbit
        ``W0 y`` (Lusztig 1989), so with ``z0`` a dominant shift of the
        orbits of the translations in h's support, multiplying by
        ``theta(z0)`` takes every ``T_w theta(x)`` to the single T-term
        ``T_{w t_{x+z0}}`` with ``x + z0`` dominant, and coordinates are read
        off termwise.  A term off the dominant range breaks that invariant and
        raises BoxError.

        ``z0`` is ``shift_for_bounds`` of ``_orbit_bounds``, the shortest
        such shift where the fundamental weights lie in X, over formal and
        exact labels alike.  The shift sets the order of the terms; no
        reader depends on that order.
        """
        weyl = self.weyl
        trans = weyl.trans
        z0 = shift_for_bounds(self.datum, self._orbit_bounds({trans(u) for u in h.terms}))
        shifted = self.hecke.rmul_basis(h, weyl.translation(z0))
        # the factor delta_sqrt(-z0) of theta(z0) and the factor
        # delta_sqrt(xp) that turns T_{t_xp} into theta(xp) multiply to
        # delta_sqrt(xp - z0): its exponents are linear in the point
        delta_sqrt = self.labels.delta_sqrt
        points: dict[Vec, tuple[Vec, LaurentPoly]] = {}  # xp -> (x, weight)
        out: dict[tuple[FiniteWeylElem, Vec], LaurentPoly] = {}
        for u, c in shifted.terms.items():
            xp = trans(u)
            point = points.get(xp)
            if point is None:
                for f in self._simple_forms:
                    if sum(map(mul, f, xp)) < 0:
                        raise BoxError(
                            "expansion leaves the dominant range "
                            f"(term at translation {xp} after shifting by {z0})"
                        )
                x = tuple([a - b for a, b in zip(xp, z0)])
                point = points[xp] = (x, delta_sqrt(x))
            x, weight = point
            out[(weyl.fin_part(u), x)] = c * weight
        return out

    def _orbit_bounds(self, ys) -> list[int]:
        """For each simple coroot ``b_i``, the largest ``-<w y, b_i>`` over
        the W0-orbits of ``ys`` (0 at least), read as ``-<y, c>`` over the
        coroots ``c`` of ``b_i``'s norm, with no orbit formed."""
        return [
            max([0] + [-sum(map(mul, f, y)) for y in ys for f in forms])
            for forms in self._norm_forms
        ]
