"""The Bernstein basis of the affine Hecke algebra.

For dominant x the basis element is a unit multiple of a single T-term,
``theta(x) = delta_sqrt(-x) * T_{t_x}``; a general x is handled through the
canonical decomposition x = y - z with y, z dominant and z a multiple of the
sum of positive roots, via ``theta(x) = theta(y) * theta(z)^{-1}``: one fold
of ``T_{t_y}`` through the inverse letters of ``t_z``.

Everything downstream (the commutation relation with the generators, the
center as orbit sums, the expansion of arbitrary elements over pairs
``T_w theta(x)``) is built from that one constructor.
"""

from __future__ import annotations

from .coeffring import LaurentPoly, accumulate
from .hecke import HeckeAlgebra, HeckeElem
from .rootdata import Vec, dominant_decomposition, is_dominant, vadd, vneg, vscale, vsub
from .weyl import FiniteWeylElem


class BoxError(ValueError):
    """Raised when an expansion does not fit the requested coordinate box."""


class GroupAlgebraElem:
    """An element of the commutative subalgebra, in exponent coordinates."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Vec, LaurentPoly]):
        self.terms = {x: c for x, c in terms.items() if not c.is_zero()}

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupAlgebraElem) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"GroupAlgebraElem({len(self.terms)} terms)"

    def mul(self, other: "GroupAlgebraElem") -> "GroupAlgebraElem":
        out: dict[Vec, LaurentPoly] = {}
        for x, c in self.terms.items():
            for y, d in other.terms.items():
                accumulate(out, vadd(x, y), c * d)
        return GroupAlgebraElem(out)


class Bernstein:
    """Bernstein-basis constructions over a fixed Hecke algebra."""

    def __init__(self, hecke: HeckeAlgebra):
        self.hecke = hecke
        self.weyl = hecke.weyl
        self.labels = hecke.labels
        self.datum = hecke.weyl.datum
        self._theta_cache: dict[Vec, HeckeElem] = {}

    # -- the basis -----------------------------------------------------------

    def theta(self, x: Vec) -> HeckeElem:
        x = tuple(x)
        cached = self._theta_cache.get(x)
        if cached is not None:
            return cached
        H = self.hecke
        labels = self.labels
        y, z = dominant_decomposition(self.datum, x)
        if all(v == 0 for v in z):
            out = H.scale(H.basis(self.weyl.translation(x)), labels.delta_sqrt(vneg(x)))
        else:
            # theta(y) * theta(z)^{-1}: from T_{t_y} most inverse letters
            # step down, so the support stays near theta(x)'s own size
            ty, tz = self.weyl.translation(y), self.weyl.translation(z)
            out = H.rmul_basis(H.basis(ty), tz, inverse=True)
            out = H.scale(out, labels.delta_sqrt(vneg(y)) * labels.delta_sqrt(z))
        self._theta_cache[x] = out
        return out

    def embed(self, a: GroupAlgebraElem) -> HeckeElem:
        H = self.hecke
        return H.add(*(H.scale(self.theta(x), c) for x, c in a.terms.items()))

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

    # -- the center ----------------------------------------------------------

    def center_element(self, x: Vec) -> HeckeElem:
        """The orbit sum over the finite Weyl orbit of x: a central element."""
        return self.hecke.add(*(self.theta(y) for y in self.weyl.orbit(tuple(x))))

    # -- the star involution on the basis --------------------------------------

    def star_theta_check(self, x: Vec) -> bool:
        """Whether star(theta(x)) equals its conjugation formula
        ``T_{w0} theta(-w0 x) T_{w0}^{-1}``."""
        H = self.hecke
        weyl = self.weyl
        w0 = weyl.as_affine(weyl.longest_element())
        y = vneg(weyl.act_point(w0, tuple(x)))
        rhs = H.mul(H.mul(H.basis(w0), self.theta(y)), H.invert_basis(w0))
        return H.star(self.theta(tuple(x))) == rhs

    # -- expansion over the product basis --------------------------------------

    def shift_for_box(self, box: int) -> int:
        """A shift multiplier N such that x + N*(sum of positive roots) is
        dominant for every x with coordinates bounded by the box."""
        datum = self.datum
        worst = 0
        for acheck in datum.simple_coroots:
            row = sum(abs(datum.pair(tuple(e), acheck)) for e in _unit_vectors(datum.rank))
            worst = max(worst, row)
        return (box * worst + 1) // 2 + 1

    def expand_in_bernstein(
        self, h: HeckeElem, box: int
    ) -> dict[tuple[FiniteWeylElem, Vec], LaurentPoly]:
        """Exact coordinates of h over the product basis T_w theta(x),
        for x with all coordinates in [-box, box].

        Works by translating far into the dominant cone: after multiplying
        by theta of a large dominant shift, every surviving product basis
        element is a single T-term whose translation part is dominant, and
        coordinates can be read off termwise.  A support outside the box is
        reported, never truncated.
        """
        weyl = self.weyl
        labels = self.labels
        H = self.hecke
        if h.is_zero():
            return {}
        if box < 0:
            raise BoxError("box must be nonnegative")
        N = self.shift_for_box(box)
        z0 = vscale(N, self.weyl.derived.two_rho)
        shifted = H.rmul_basis(h, weyl.translation(z0))
        # the factor delta_sqrt(-z0) of theta(z0) and the factor
        # delta_sqrt(xp) that turns T_{t_xp} into theta(xp) multiply to
        # delta_sqrt(xp - z0): its exponents are linear in the point
        weights: dict[Vec, LaurentPoly] = {}
        out: dict[tuple[FiniteWeylElem, Vec], LaurentPoly] = {}
        for u, c in shifted.terms.items():
            g = weyl.elem(u)
            xp = g.trans
            if not is_dominant(self.datum, xp):
                raise BoxError(
                    "box too small: expansion leaves the dominant range "
                    f"(term at translation {xp} after shifting by {z0})"
                )
            x = vsub(xp, z0)
            if any(abs(v) > box for v in x):
                raise BoxError(
                    f"box too small: expansion has a term at {x}, outside [-{box}, {box}]"
                )
            weight = weights.get(x)
            if weight is None:
                weight = weights[x] = labels.delta_sqrt(x)
            out[(g.fin, x)] = c * weight
        return out

    def reassemble(
        self, coords: dict[tuple[FiniteWeylElem, Vec], LaurentPoly]
    ) -> HeckeElem:
        """Inverse of :meth:`expand_in_bernstein`: sum of c * T_w theta(x)."""
        H = self.hecke
        return H.add(*(
            H.scale(H.mul(H.basis(self.weyl.as_affine(w)), self.theta(x)), c)
            for (w, x), c in coords.items()
        ))


def _unit_vectors(rank: int):
    for i in range(rank):
        yield tuple(1 if j == i else 0 for j in range(rank))
