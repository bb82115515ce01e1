"""Finite-dimensional principal-series modules at torus characters.

The commutative subalgebra spanned by the Bernstein basis has one-dimensional
characters given by torus points; inducing such a character up to the full
algebra yields a module of dimension equal to the order of the finite Weyl
group.  This module realises that module concretely: every algebra element
acts by a square matrix over the finite Hecke basis (exact rationals when the
labels and the torus point are rational, complex floats otherwise).

It provides what the ``spherical`` and ``verify`` commands read:

* the module action of an element, as a torus-independent Bernstein
  expansion (:meth:`PrincipalSeries.symbolic_action`) and its matrix at a
  torus point (:meth:`PrincipalSeries.laplace_matrix`),
* the intertwining elements of the simple reflections, in left and right
  form, their words and their squares, for the ``braid-intertwiner`` suite,
* the numeric normalisation and root-product factors of the intertwiners,
  which keep seeded torus points away from their zeros and poles,
* the spherical functional on the spherical Bernstein element, computed
  through the module and by the c-function series formula; it acts only on
  the spherical vector, so it takes one Bernstein expansion of ``h·sym``
  (``sym`` the sum of the finite basis) rather than one per finite basis
  vector.

The value on the spherical Bernstein element, which the ``spherical`` report
checks against the c-function formula, is read off ``T_{t_x}`` alone.  The
symmetrizer absorbs every finite generator, ``sym·T_s = q_s·sym``, so
``sym·T_w = q(w)·sym`` and ``sym·sym = p0·sym``, and every coordinate of
``sym·u`` is the pairing ``<1, u> = sum_w q(w)·u_w`` that reads the
functional.  Hence ``<1, (sym·T_{t_x}·sym)·v0> = p0^2 <1, T_{t_x}·v0>`` on
the spherical vector ``v0``: one product with ``sym`` and one expansion of
``|W0|`` terms per point, with ``delta^{1/2}(-x)`` multiplying the value
instead of the element.  Over exact labels they run in an algebra over the
labels read at the assignment (:meth:`~affinehecke.coeffring.LabelSet.at`),
so with integral parameters every fold coefficient is an int, at rational
and complex points alike; over float labels they run formally and are
evaluated at the end.  A float or complex matrix entry is the correctly
rounded sum of its terms (``math.fsum``), so it does not depend on the order
in which a fold inserted them.

All torus points are numeric; identities in the torus variable are verified
on seeded random points rather than over a field of rational functions.

Nothing is memoised per torus point or lattice point, so the memos stay
bounded however many points are asked: the inversion sets per finite element,
the label values per root (``TraceGen.label_values``, which the c-function
and the normalisation factor share), and one slot each for the symmetrizer,
the algebra over the label values and the W0-orbit of the last point asked,
whose c-values both the admissibility check of a seeded point and the
c-function formula read.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .bernstein import Bernstein
from .coeffring import LaurentPoly, _unpack, power_table
from .hecke import HeckeAlgebra, HeckeElem
from .rootdata import Vec, is_dominant, vneg, vscale
from .tracegen import ModeError, PoleError, TorusPoint, TraceGen
from .weyl import FiniteWeylElem


def _conj(v):
    return v.conjugate() if isinstance(v, complex) else v


def _half(x: Vec) -> Vec | None:
    if any(v % 2 for v in x):
        return None
    return tuple(v // 2 for v in x)


def _finite_sum(H: HeckeAlgebra, basis_order: list) -> HeckeElem:
    """The sum of the finite basis elements ``T_w`` in ``H``."""
    return H.add(*(H.basis(H.weyl.as_affine(w)) for w in basis_order))


def _monomial_values(exps: list[Vec], point) -> tuple[list, object]:
    """Values of the monomials ``exps`` (exponent vectors) at ``point`` over
    one denominator: ``(nums, den)`` with ``nums[j] / den`` the value of
    ``exps[j]``.  Rational coordinates give int ``nums``."""
    tables = []
    den = 1
    for i, value in enumerate(point):
        col = [e[i] for e in exps]
        lo = min(col, default=0)
        table, d = power_table(value, lo, max(col, default=0))
        tables.append((table, lo))
        den *= d
    nums = []
    for e in exps:
        out = 1
        for (table, lo), k in zip(tables, e):
            out *= table[k - lo]
        nums.append(out)
    return nums, den


def _fsum(terms: list, cplx: bool):
    """The correctly rounded sum of float (or, with ``cplx``, complex)
    ``terms``, real and imaginary parts apart: it depends on the terms and
    not on their order."""
    re = math.fsum(v.real for v in terms)
    return complex(re, math.fsum(v.imag for v in terms)) if cplx else re


class PrincipalSeries:
    """Module actions, intertwiners and the spherical functional over one
    algebra.

    ``assignment`` (variable name -> numeric value) enables the numeric
    operations; the symbolic constructions (intertwining elements, the
    cleared spherical Bernstein element) work without it.
    """

    def __init__(self, bernstein: Bernstein, assignment: dict | None = None):
        self.bernstein = bernstein
        self.hecke = bernstein.hecke
        self.labels = bernstein.labels
        self.weyl = bernstein.weyl
        self.datum = bernstein.datum
        self.derived = self.weyl.derived
        self.assignment = assignment
        self.trace = TraceGen(bernstein, assignment)

        self.basis_order = self.weyl.enumerate_w0()
        self.dim = len(self.basis_order)
        self.index = {w: i for i, w in enumerate(self.basis_order)}
        self.longest = self.weyl.longest_element()

        self._r0_pos_set = set(self.derived.positive_roots)
        self._r1_pos = [r for r, _ in self.derived.r1_positive]
        self._r1_pos_set = set(self._r1_pos)
        self._nr_pos_set = {r for r, _ in self.derived.nonreduced_positive}

        self._q_fin_vals = None
        self._p0_val = None
        self._exact_labels = assignment is not None and not any(
            isinstance(v, float) for v in assignment.values()
        )
        if assignment is not None:
            self._q_fin_vals = [
                self.labels.q_of_fin(w).evaluate(assignment) for w in self.basis_order
            ]
            self._p0_val = sum(self._q_fin_vals)

        # memos bounded by the datum (per finite element) or holding one
        # slot; none is keyed by a point
        self._inv_r1_cache: dict[FiniteWeylElem, list[Vec]] = {}
        self._sym_elem: HeckeElem | None = None
        self._exact_tower: tuple[Bernstein, HeckeElem] | None = None
        self._orbit_slot: tuple | None = None

    # -- module action -------------------------------------------------------

    def symbolic_action(
        self, h: HeckeElem, vectors: list[HeckeElem], bernstein: Bernstein,
    ) -> list[list[tuple[int, Vec, LaurentPoly]]]:
        """Torus-independent description of ``h`` acting on module vectors.

        ``vectors`` are finite-Hecke elements, read as module vectors
        through ``T_w <-> T_w ⊗ 1``.  Column ``j`` is the Bernstein
        expansion of ``h * vectors[j]`` as triples (row, lattice point,
        label coefficient).  Both the expansion and :meth:`laplace_matrix`
        are linear, so the column of a sum of basis vectors is the sum of
        their columns.  The product and the expansion run in the algebra of
        ``bernstein``; over exact label values the coefficients are numbers.
        """
        out = []
        for vec in vectors:
            coords = bernstein.expand_in_bernstein(bernstein.hecke.mul(h, vec))
            out.append([(self.index[w], x, c) for (w, x), c in coords.items()])
        return out

    def laplace_matrix(self, action: list, t: TorusPoint) -> list[list]:
        """Matrix of a :meth:`symbolic_action` at the torus point ``t``:
        ``dim`` rows, one column per column of ``action``.

        Entry ``(row, col)`` is the sum of ``poly(labels) * t(x)`` over the
        triples ``(row, x, poly)`` of column ``col``.  Each distinct monomial
        of the label variables and each distinct lattice point ``x`` is
        evaluated once, over one common denominator per variable
        (:func:`~affinehecke.coeffring.power_table`, sized by the exact
        exponent ranges met in this call); an entry is then summed as a
        Python int and divided once by the product of the denominators.  A
        coefficient that is already a number (an action computed at the
        labels, so an int or a Fraction) is its own value, taken as an int
        over the least common multiple of the numbers' denominators, which
        joins the product.

        With rational labels and a rational point every touched entry is an
        exact Fraction, equal to the term-by-term sum.  A float label or a
        complex coordinate enters as plain powers with denominator 1, and an
        entry is then the ``math.fsum`` of its ``coefficient × label monomial
        × point`` products, real and imaginary parts apart, divided by the
        common denominator: a float or complex number that does not depend
        on the order of the triples or of a coefficient's terms.  An entry
        that no triple touches is the int 0.
        """
        asg = self.trace._need_numeric()
        vars_ = self.labels.vars
        n = len(vars_)
        keys = list({
            k for triples in action for _r, _x, p in triples
            if isinstance(p, LaurentPoly) for k in p.terms
        })
        points = list({x for triples in action for _r, x, _p in triples})
        m = [[0] * len(action) for _ in range(self.dim)]
        label_nums, label_den = _monomial_values(
            [_unpack(k, n) for k in keys], [asg[v] for v in vars_]
        )
        point_nums, point_den = _monomial_values(points, t.images)
        label_num = dict(zip(keys, label_nums))
        point_num = dict(zip(points, point_nums))
        scale = math.lcm(*(
            p.denominator for triples in action for _r, _x, p in triples
            if not isinstance(p, LaurentPoly)
        ))
        den = label_den * point_den * scale
        lift = label_den != 1  # a number also carries the labels' denominator
        exact = all(type(v) is int for v in label_nums + point_nums)
        cplx = any(isinstance(v, complex) for v in point_nums)
        for col, triples in enumerate(action):
            sums: dict[int, object] = {}
            for row, x, poly in triples:
                if isinstance(poly, LaurentPoly):
                    cs = [c * label_num[k] * scale for k, c in poly.terms.items()]
                else:
                    num, d = poly.as_integer_ratio()
                    pv = num * (scale // d)
                    cs = [pv * label_den if lift else pv]
                if exact:
                    sums[row] = sums.get(row, 0) + sum(cs) * point_num[x]
                else:
                    px = point_num[x]
                    sums.setdefault(row, []).extend(c * px for c in cs)
            for row, s in sums.items():
                m[row][col] = (s if exact else _fsum(s, cplx)) / den
        return m

    # -- intertwining elements (symbolic) ------------------------------------

    def r1_of_simple(self, i: int) -> Vec:
        """The non-multipliable positive root proportional to the i-th
        simple root."""
        alpha = self.datum.simple_roots[i]
        two = vscale(2, alpha)
        return two if two in self._nr_pos_set else alpha

    def intertwiner_element(self, i: int) -> HeckeElem:
        """The intertwining element attached to the i-th simple reflection."""
        H = self.hecke
        alpha, top = self.datum.simple_roots[i], self.r1_of_simple(i)
        ts = H.basis(self.weyl.simple_affine(i))
        c0, c1 = self.bernstein.commutation_coeffs(alpha)
        out = H.sub(ts, H.mul(self.bernstein.theta(vneg(top)), ts))
        out = H.add(out, H.scale(H.unit(), -c0))
        if top != alpha:
            out = H.sub(out, H.scale(self.bernstein.theta(vneg(alpha)), c1))
        return out

    def intertwiner_element_right(self, i: int) -> HeckeElem:
        """The same element written with the Bernstein factors on the right."""
        H = self.hecke
        alpha, top = self.datum.simple_roots[i], self.r1_of_simple(i)
        ts = H.basis(self.weyl.simple_affine(i))
        c0, c1 = self.bernstein.commutation_coeffs(alpha)
        out = H.sub(ts, H.mul(ts, self.bernstein.theta(top)))
        out = H.add(out, H.scale(self.bernstein.theta(top), c0))
        if top != alpha:
            out = H.add(out, H.scale(self.bernstein.theta(alpha), c1))
        return out

    def intertwiner_word(self, word: tuple[int, ...]) -> HeckeElem:
        """Product of intertwining elements along a word of simple indices."""
        out = self.hecke.unit()
        for i in word:
            out = self.hecke.mul(out, self.intertwiner_element(i))
        return out

    def _n_root(self, beta: Vec) -> tuple[Vec, bool]:
        """The positive root whose ``c_pair`` fixes the normalisation factor
        at a signed non-multipliable root ``beta``, and whether it is half
        of ``±beta`` (so that the factor has a middle term)."""
        pos = beta if beta in self._r1_pos_set else vneg(beta)
        if pos not in self._r1_pos_set:
            raise ValueError(f"{beta} is not a non-multipliable root")
        half = _half(pos)
        if half is not None and half in self._r0_pos_set:
            return half, True
        return pos, False

    def n_element(self, beta: Vec) -> HeckeElem:
        """The normalisation factor attached to a (signed) non-multipliable
        root, as an element of the commutative subalgebra:
        ``1/(AB) + (1/A - 1/B) theta(beta/2) - theta(beta)``, the middle
        term only when ``beta/2`` is a root."""
        H = self.hecke
        alpha, doubled = self._n_root(beta)
        a, b = self.labels.c_pair(alpha)
        out = H.scale(H.unit(), (a * b).inverse())
        if doubled:
            mid = a.inverse() - b.inverse()
            out = H.add(out, H.scale(self.bernstein.theta(_half(beta)), mid))
        return H.sub(out, self.bernstein.theta(beta))

    def d_element(self, beta: Vec) -> HeckeElem:
        """Product of the normalisation factors at a root and its negative;
        the square of the corresponding intertwining element."""
        return self.hecke.mul(self.n_element(beta), self.n_element(vneg(beta)))

    # -- numeric root factors ------------------------------------------------

    def n_value(self, beta: Vec, t: TorusPoint):
        """``n_element(beta)`` evaluated on the module attached to ``t``, with
        ``q_a``, ``q_{2a}^{1/2} = 1/B_a`` and ``q_{2a}`` read from
        ``TraceGen.label_values`` at the root ``a`` of :meth:`_n_root`."""
        alpha, doubled = self._n_root(beta)
        qa, qhs, qh = self.trace.label_values(alpha)
        if not doubled:
            return qa - t.value(beta)
        return qh * qa + qhs * (qa - 1) * t.value(_half(beta)) - t.value(beta)

    def r1_inversions(self, w: FiniteWeylElem) -> list[Vec]:
        """Positive non-multipliable roots sent negative by ``w``."""
        cached = self._inv_r1_cache.get(w)
        if cached is None:
            cached = [
                beta for beta in self._r1_pos if w.apply_x(beta) not in self._r1_pos_set
            ]
            self._inv_r1_cache[w] = cached
        return cached

    def n_w_value(self, w: FiniteWeylElem, t: TorusPoint):
        out = 1
        for beta in self.r1_inversions(w):
            out *= self.n_value(beta, t)
        return out

    def delta_w_value(self, w: FiniteWeylElem, t: TorusPoint):
        out = 1
        for beta in self.r1_inversions(w):
            out *= 1 - t.value(vneg(beta))
        return out

    # -- pairing -------------------------------------------------------------

    def pair(self, x: list, y: list):
        """Sesquilinear pairing: conjugate-linear in the first argument,
        weighted by the label of each finite basis element."""
        self.trace._need_numeric()
        out = 0
        for j in range(self.dim):
            if x[j] != 0 and y[j] != 0:
                out += _conj(x[j]) * self._q_fin_vals[j] * y[j]
        return out

    # -- spherical functional ------------------------------------------------

    def symmetrizer(self) -> HeckeElem:
        """Sum of all finite basis elements (un-normalised plus idempotent)."""
        if self._sym_elem is None:
            self._sym_elem = _finite_sum(self.hecke, self.basis_order)
        return self._sym_elem

    def _tower(self) -> tuple[Bernstein, HeckeElem]:
        """The Bernstein context the spherical value folds in, and its
        symmetrizer: over exact labels the algebra over the labels read at
        the assignment (:meth:`~affinehecke.coeffring.LabelSet.at`), built on
        first use; over float labels the formal one."""
        if not self._exact_labels:
            return self.bernstein, self.symmetrizer()
        if self._exact_tower is None:
            H = HeckeAlgebra(self.weyl, self.labels.at(self.trace._need_numeric()))
            self._exact_tower = (Bernstein(H), _finite_sum(H, self.basis_order))
        return self._exact_tower

    def _spherical_of(self, sym_action: list, t: TorusPoint):
        """The spherical functional, normalised to take value one at the unit
        element, from the one-column action of ``h`` on the spherical vector:
        ``pair(1, h·1) / p0``, with ``1`` the all-ones coordinates of
        :meth:`symmetrizer`."""
        col = [row[0] for row in self.laplace_matrix(sym_action, t)]
        return self.pair([1] * self.dim, col) / self._p0_val

    def theta_plus_cleared(self, x: Vec) -> HeckeElem:
        """Denominator-free version of the spherical Bernstein element: the
        double-coset sum ``sym·T_{t_x}·sym``, scaled by the square root of
        the modulus character."""
        x = tuple(x)
        if not is_dominant(self.datum, x):
            raise ValueError(f"{x} is not dominant")
        H = self.hecke
        sym = self.symmetrizer()
        double = H.mul(H.mul(sym, H.basis(self.weyl.translation(x))), sym)
        return H.scale(double, self.labels.delta_sqrt(vneg(x)))

    def spherical_theta_plus(self, t: TorusPoint, x: Vec):
        """Spherical functional on the spherical Bernstein element, computed
        through the module action: ``T_{t_x}`` alone on the spherical vector,
        in the context of :meth:`_tower`, with the value multiplied by
        ``delta^{1/2}(-x)`` (see the module docstring)."""
        x = tuple(x)
        self.trace._need_numeric()
        if not is_dominant(self.datum, x):
            raise ValueError(f"{x} is not dominant")
        bernstein, sym = self._tower()
        tx = bernstein.hecke.basis(self.weyl.translation(x))
        val = self._spherical_of(self.symbolic_action(tx, [sym], bernstein), t)
        return val * self.trace.delta_sqrt_value(vneg(x))

    def macdonald_value(self, t: TorusPoint, x: Vec):
        """The c-function series formula for the spherical functional on the
        spherical Bernstein element at a dominant point."""
        self.trace._need_numeric()
        x = tuple(x)
        total = 0
        for winv, _wt, c in self._orbit(t):
            total += c * t.value(winv.apply_x(x))
        return self._q_fin_vals[self.index[self.longest]] * total / self._p0_val

    def _orbit(self, t: TorusPoint) -> list:
        """The triples ``(w^{-1}, w t, c(w t))`` over the finite Weyl group, in
        ``basis_order``.  They depend on ``t`` only, so they are kept for the
        last point asked: the admissibility check of a seeded point and the
        c-function formula at that point read one walk of its orbit."""
        if self._orbit_slot is None or self._orbit_slot[0] != t.images:
            weyl, c_full = self.weyl, self.trace.c_full
            triples = []
            for w in self.basis_order:
                wt = t.apply_w(weyl, w)
                triples.append((weyl.fin_inv(w), wt, c_full(wt)))
            self._orbit_slot = (t.images, triples)
        return self._orbit_slot[1]

    # -- seeded torus points -------------------------------------------------

    def seeded_point(self, seed: int, mode: str = "rational") -> TorusPoint:
        """Reproducible random torus point, rejected until it is regular and
        stays clear of every c-function pole, root-product zero, and
        normalisation-factor zero over the whole finite orbit."""
        self.trace._need_numeric()
        rng = random.Random(seed)
        rank = self.weyl.rank
        for _ in range(5000):
            if mode == "rational":
                images = tuple(
                    Fraction(rng.randrange(1, 10) * rng.choice((1, -1)), rng.randrange(1, 10))
                    for _ in range(rank)
                )
            elif mode == "complex":
                images = tuple(
                    complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                    for _ in range(rank)
                )
            else:
                raise ValueError(f"unknown mode {mode!r}")
            if any(v == 0 or abs(v) < 1e-3 for v in images):
                continue
            t = TorusPoint(images)
            if self._admissible(t):
                return t
        raise RuntimeError("no admissible torus point found; widen the sampling pool")

    def _admissible(self, t: TorusPoint) -> bool:
        small = (lambda v: v == 0) if t._rational() else (lambda v: abs(v) < 1e-6)
        try:
            orbit = self._orbit(t)
            for _winv, wt, _c in orbit:
                self.trace.c_full(wt.inv())
        except PoleError:
            return False
        if len({wt.images for _winv, wt, _c in orbit}) < len(orbit):
            return False
        longest = self.longest
        return not any(
            small(self.delta_w_value(longest, wt)) or small(self.n_w_value(longest, wt))
            or small(self.n_w_value(longest, wt.inv()))
            for _winv, wt, _c in orbit
        )
