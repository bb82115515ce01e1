"""Finite-dimensional principal-series modules at torus characters.

The commutative subalgebra spanned by the Bernstein basis has one-dimensional
characters given by torus points; inducing such a character up to the full
algebra yields a module of dimension equal to the order of the finite Weyl
group.  This module realises that module concretely: every algebra element
acts by a square matrix over the finite Hecke basis (exact rationals when the
labels and the torus point are rational, complex floats otherwise).  The
finite Hecke algebra needs no engine of its own: left multiplication by a
finite basis element ``T_w`` is the module action of ``T_w``, the same at
every torus point, and products of finite-Hecke vectors, the longest element
in the matrix-element pairing and the intertwining operators all read it.

On top of the bare module action this file provides

* intertwining elements for the simple reflections, with their squares and
  braid products available symbolically,
* the recursively built intertwining vectors ``r_w(t)`` together with their
  normalisations and the scalar factors controlling them,
* the sesquilinear pairing and the associated matrix elements,
* the spherical functional, its c-function series formula, and the
  plus-idempotent orthogonality identities in cleared (denominator-free)
  polynomial form; a spherical value acts only on the spherical vector, so it
  takes one Bernstein expansion of ``h·sym`` (``sym`` the sum of the finite
  basis) rather than one per finite basis vector, and
* a truncated check of the series identity relating the generating functional
  of the trace to the distinguished matrix element.

The value on the spherical Bernstein element, which the ``spherical`` report
checks against the c-function formula, folds numbers when the labels and the
torus point are exact: its double-coset sum, the product with ``sym`` and the
expansion run in an algebra over the labels read at the assignment
(:meth:`~affinehecke.coeffring.LabelSet.at`), and the factor
``delta^{1/2}(-x)`` multiplies the value instead of the element, so with
integral parameters every fold coefficient is an int.  Complex points, float
labels and every other action keep Laurent coefficients and evaluate them at
the end.

All torus points are numeric; identities in the torus variable are verified
on seeded random points rather than over a field of rational functions.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .bernstein import Bernstein
from .coeffring import LaurentPoly, _unpack, accumulate, power_table
from .hecke import HeckeAlgebra, HeckeElem
from .rootdata import Vec, height, is_dominant, vadd, vneg, vscale
from .tracegen import PoleError, TorusPoint, TraceGen
from .weyl import FiniteWeylElem


class ModeError(RuntimeError):
    """A numeric operation was requested without a numeric label assignment."""


def _conj(v):
    return v.conjugate() if isinstance(v, complex) else v


def _half(x: Vec) -> Vec | None:
    if any(v % 2 for v in x):
        return None
    return tuple(v // 2 for v in x)


# -- small exact linear algebra (lists of lists; sizes are |W0| at most) ------


def mat_vec(m: list[list], v: list) -> list:
    return [sum(row[j] * v[j] for j in range(len(v)) if v[j]) for row in m]


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


class PrincipalSeries:
    """Module actions, intertwiners, and matrix elements over one algebra.

    ``assignment`` (variable name -> numeric value) enables the numeric
    operations; the symbolic constructions (intertwining elements, cleared
    plus-idempotent identities) work without it.
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

        self._left: list[list[list] | None] = [None] * self.dim
        self._inv_r1_cache: dict[FiniteWeylElem, list[Vec]] = {}
        self._rs_action: dict[int, list] = {}
        self._rs_matrix: dict[tuple, list[list]] = {}
        self._r_cache: dict[tuple, list] = {}
        self._bra_cache: dict[tuple, list] = {}
        self._plus_cleared: dict[Vec, HeckeElem] = {}
        self._plus_action: dict[tuple[Vec, bool], list] = {}
        self._sym_elem: HeckeElem | None = None
        self._exact_tower: tuple[Bernstein, HeckeElem] | None = None
        self._c_values: tuple | None = None

    # -- numeric guard -------------------------------------------------------

    def _need_numeric(self) -> dict:
        if self.assignment is None:
            raise ModeError(
                "this operation needs numeric labels; construct PrincipalSeries "
                "with an assignment from LabelSet.numeric_assignment"
            )
        return self.assignment

    def _val(self, poly: LaurentPoly):
        return poly.evaluate(self._need_numeric())

    def p0_value(self):
        self._need_numeric()
        return self._p0_val

    # -- the finite Hecke algebra inside the module --------------------------

    def left_matrix(self, j: int) -> list[list]:
        """Matrix of left multiplication by the j-th finite basis element
        ``T_w`` on the finite basis: its module action.  ``T_w`` has no
        translation part, so the matrix is the same at every torus point and
        is read at the identity point."""
        m = self._left[j]
        if m is None:
            one = TorusPoint((1,) * self.weyl.rank)
            m = self.laplace(self.hecke.basis(self.weyl.as_affine(self.basis_order[j])), one)
            self._left[j] = m
        return m

    def h0_product(self, a: list, b: list) -> list:
        """Product ``a·b`` of two finite-Hecke elements given by coefficient
        vectors: the sum of ``a_j T_j·b``."""
        out = [0] * self.dim
        for j, c in enumerate(a):
            if c == 0:
                continue
            col = mat_vec(self.left_matrix(j), b)
            for k in range(self.dim):
                out[k] += c * col[k]
        return out

    def unit_vector(self) -> list:
        vec = [0] * self.dim
        vec[0] = 1
        return vec

    # -- module action -------------------------------------------------------

    def symbolic_action(
        self, h: HeckeElem, vectors: list[HeckeElem] | None = None
    ) -> list[list[tuple[int, Vec, LaurentPoly]]]:
        """Torus-independent description of ``h`` acting on module vectors.

        ``vectors`` are finite-Hecke elements, read as module vectors
        through ``T_w <-> T_w ⊗ 1``; by default the finite basis ``T_v`` in
        :attr:`basis_order`, which gives the full square action.  Column
        ``j`` is the Bernstein expansion of ``h * vectors[j]`` as triples
        (row, lattice point, label coefficient).  Both the expansion and
        :meth:`laplace_matrix` are linear, so the column of a sum of basis
        vectors is the sum of their columns.
        """
        if vectors is None:
            vectors = [self.hecke.basis(self.weyl.as_affine(v)) for v in self.basis_order]
        return self._expand_columns(self.bernstein, h, vectors)

    def _expand_columns(self, bernstein: Bernstein, h: HeckeElem, vectors: list) -> list:
        """The columns of :meth:`symbolic_action`, computed in the algebra of
        ``bernstein``; over exact label values the coefficients are numbers."""
        H = bernstein.hecke
        out = []
        for vec in vectors:
            coords = bernstein.expand_in_bernstein(H.mul(h, vec))
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
        labels) is its own value.

        With rational labels and a rational point every touched entry is an
        exact Fraction, equal to the term-by-term sum.  A float label or a
        complex coordinate enters as plain powers with denominator 1, so the
        entries are floats or complex numbers, equal to the term-by-term sum
        up to rounding; exact labels at a complex point give a complex sum
        divided by the labels' rational denominator.  An entry that no
        triple touches is the int 0.
        """
        asg = self._need_numeric()
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
        den = label_den * point_den
        for col, triples in enumerate(action):
            sums: dict[int, object] = {}
            for row, x, poly in triples:
                if isinstance(poly, LaurentPoly):
                    pv = 0
                    for k, c in poly.terms.items():
                        pv += c * label_num[k]
                else:
                    pv = poly if label_den == 1 else poly * label_den
                sums[row] = sums.get(row, 0) + pv * point_num[x]
            for row, s in sums.items():
                m[row][col] = s / den
        return m

    def laplace(self, h: HeckeElem, t: TorusPoint) -> list[list]:
        """Matrix of ``h`` acting on the module attached to ``t``."""
        return self.laplace_matrix(self.symbolic_action(h), t)

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
        """``n_element(beta)`` evaluated on the module attached to ``t``."""
        alpha, doubled = self._n_root(beta)
        a, b = self.labels.c_pair(alpha)
        # floats round as q_a = B/A, q_{2a}^{1/2} = 1/B, q_{2a} multiplied out
        qa = self._val(a.inverse() * b)
        if not doubled:
            return qa - t.value(beta)
        qhs, qh = self._val(b.inverse()), self._val(b ** -2)
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

    def delta_value(self, t: TorusPoint):
        """Product of (1 - t at the negated root) over all positive
        non-multipliable roots."""
        return self.delta_w_value(self.longest, t)

    def d_w_value(self, w: FiniteWeylElem, t: TorusPoint):
        return self.n_w_value(w, t) * self.n_w_value(w, t.inv())

    # -- intertwining vectors ------------------------------------------------

    def _intertwiner_action(self, i: int) -> list:
        act = self._rs_action.get(i)
        if act is None:
            act = self.symbolic_action(self.intertwiner_element(i))
            self._rs_action[i] = act
        return act

    def intertwiner_matrix(self, i: int, t: TorusPoint) -> list[list]:
        key = (i, t.images)
        m = self._rs_matrix.get(key)
        if m is None:
            m = self.laplace_matrix(self._intertwiner_action(i), t)
            self._rs_matrix[key] = m
        return m

    def r_vector(self, w: FiniteWeylElem, t: TorusPoint) -> list:
        """Image of the identity basis vector under the intertwiner product
        along the canonical reduced word for ``w``."""
        key = (w, t.images)
        cached = self._r_cache.get(key)
        if cached is not None:
            return list(cached)
        vec = self.unit_vector()
        for i in reversed(self.weyl.fin_word(w)):
            vec = mat_vec(self.intertwiner_matrix(i, t), vec)
        self._r_cache[key] = list(vec)
        return vec

    def r0_vector(self, w: FiniteWeylElem, t: TorusPoint) -> list:
        """Normalised intertwining vector; defined only away from the zero
        locus of the normalisation factor."""
        n = self.n_w_value(w, t)
        if n == 0:
            raise PoleError(f"normalisation factor vanishes at {t} for {w}")
        if isinstance(n, int):
            n = Fraction(n)
        return [c / n for c in self.r_vector(w, t)]

    # -- pairing and matrix elements -----------------------------------------

    def pair(self, x: list, y: list):
        """Sesquilinear pairing: conjugate-linear in the first argument,
        weighted by the label of each finite basis element."""
        self._need_numeric()
        out = 0
        for j in range(self.dim):
            if x[j] != 0 and y[j] != 0:
                out += _conj(x[j]) * self._q_fin_vals[j] * y[j]
        return out

    def bra_vector(self, u: FiniteWeylElem, t: TorusPoint) -> list:
        """Left vector of the matrix-element pairing: the longest element
        acting on the intertwining vector at the conjugate-inverse point."""
        key = (u, t.images)
        cached = self._bra_cache.get(key)
        if cached is None:
            tb = t.conj().inv()
            w0u = self.weyl.fin_mul(self.longest, u)
            cached = mat_vec(self.left_matrix(self.index[self.longest]), self.r_vector(w0u, tb))
            self._bra_cache[key] = cached
        return list(cached)

    def matrix_element(self, u: FiniteWeylElem, v: FiniteWeylElem, t: TorusPoint, action: list):
        """Pairing of the ``u``-side left vector against an element, given by
        its :meth:`symbolic_action`, applied to the ``v``-side intertwining
        vector."""
        m = self.laplace_matrix(action, t)
        return self.pair(self.bra_vector(u, t), mat_vec(m, self.r_vector(v, t)))

    def E_value(self, t: TorusPoint, action: list):
        """The distinguished matrix element (both indices at the identity)."""
        e = self.basis_order[0]
        return self.matrix_element(e, e, t, action)

    def intertwiner_operator(self, w: FiniteWeylElem, t: TorusPoint) -> list[list]:
        """Matrix of the module map attached to ``w`` from the module at ``t``
        to the module at ``w(t)``: right multiplication by the intertwining
        vector ``r`` of the inverse element evaluated at ``w(t)``, so column
        ``j`` is ``T_j·r``."""
        winv = self.weyl.fin_inv(w)
        wt = t.apply_w(self.weyl, w)
        r = self.r_vector(winv, wt)
        cols = [mat_vec(self.left_matrix(j), r) for j in range(self.dim)]
        return [list(row) for row in zip(*cols)]

    def matrix_element_shift(
        self, u: FiniteWeylElem, v: FiniteWeylElem, i: int, t: TorusPoint, action: list
    ):
        """Both sides of the index-shift identity for matrix elements,
        specialised to the i-th simple reflection.  Only the simple case is
        provided; the general shift is out of scope."""
        s = self.weyl.simple_reflections[i]
        st = t.apply_w(self.weyl, s)
        us = self.weyl.fin_mul(u, s)
        vs = self.weyl.fin_mul(v, s)
        lhs = self.matrix_element(u, v, t, action)
        num = self.n_w_value(v, t) * self.n_w_value(us, st)
        den = self.n_w_value(u, t) * self.n_w_value(vs, st)
        if den == 0:
            raise PoleError("normalisation factor vanishes in the shift ratio")
        rhs = (num / den) * self.matrix_element(us, vs, st, action)
        return lhs, rhs

    # -- spherical functional ------------------------------------------------

    def symmetrizer(self) -> HeckeElem:
        """Sum of all finite basis elements (un-normalised plus idempotent)."""
        if self._sym_elem is None:
            self._sym_elem = _finite_sum(self.hecke, self.basis_order)
        return self._sym_elem

    def _exact(self) -> tuple[Bernstein, HeckeElem]:
        """The Bernstein context over the labels read at the assignment
        (:meth:`~affinehecke.coeffring.LabelSet.at`) and its symmetrizer,
        built on first use."""
        if self._exact_tower is None:
            H = HeckeAlgebra(self.weyl, self.labels.at(self._need_numeric()))
            self._exact_tower = (Bernstein(H), _finite_sum(H, self.basis_order))
        return self._exact_tower

    def t0_plus_vector(self) -> list:
        """The normalised plus idempotent as a module vector."""
        p0 = self.p0_value()
        return [1 / p0] * self.dim

    def spherical(self, t: TorusPoint, h: HeckeElem):
        """The spherical functional: plus-idempotent matrix coefficient,
        normalised to take value one at the unit element.

        It reads ``pair(1, h·1) / p0`` with ``1`` the spherical vector (the
        all-ones coordinates of :meth:`symmetrizer`), so only ``h·1`` is
        needed: one Bernstein expansion of ``h·sym`` rather than one per
        finite basis vector.  The product ``h·sym`` is formed as it stands,
        not through ``h·sym = P(q)·h`` for an invariant ``h``, so the value
        stays independent of the formula it is checked against.
        """
        return self._spherical_of(self.symbolic_action(h, [self.symmetrizer()]), t)

    def _spherical_of(self, sym_action: list, t: TorusPoint):
        """:meth:`spherical` from the one-column action on the spherical
        vector."""
        col = [row[0] for row in self.laplace_matrix(sym_action, t)]
        return self.pair([1] * self.dim, col) / self._p0_val

    def theta_plus_cleared(self, x: Vec) -> HeckeElem:
        """Denominator-free version of the spherical Bernstein element: the
        double symmetrised translation, scaled by the square root of the
        modulus character."""
        x = tuple(x)
        cached = self._plus_cleared.get(x)
        if cached is None:
            H = self.hecke
            cached = H.scale(
                self._double_coset_sum(H, self.symmetrizer(), x), self.labels.delta_sqrt(vneg(x))
            )
            self._plus_cleared[x] = cached
        return cached

    def _double_coset_sum(self, H: HeckeAlgebra, sym: HeckeElem, x: Vec) -> HeckeElem:
        """``sym·T_{t_x}·sym`` in ``H``, with ``sym`` its symmetrizer."""
        if not is_dominant(self.datum, x):
            raise ValueError(f"{x} is not dominant")
        return H.mul(H.mul(sym, H.basis(self.weyl.translation(x))), sym)

    def _theta_plus_action(self, x: Vec, exact: bool) -> list:
        """One-column action on the spherical vector, cached per point: of
        the cleared element, or with ``exact`` of its double-coset sum
        computed at the labels (so without the factor ``delta^{1/2}(-x)``)."""
        act = self._plus_action.get((x, exact))
        if act is None:
            if exact:
                bernstein, sym = self._exact()
                elem = self._double_coset_sum(bernstein.hecke, sym, x)
            else:
                bernstein, sym = self.bernstein, self.symmetrizer()
                elem = self.theta_plus_cleared(x)
            act = self._plus_action[(x, exact)] = self._expand_columns(bernstein, elem, [sym])
        return act

    def theta_plus(self, x: Vec) -> HeckeElem:
        """The spherical Bernstein basis element at a dominant point, with
        numeric (exact rational) coefficients."""
        asg = self._need_numeric()
        if not self._exact_labels:
            raise ModeError("the spherical basis needs exact rational labels")
        cleared = self.theta_plus_cleared(x)
        p0sq = self._p0_val ** 2
        vars_ = self.labels.vars
        terms = {}
        for u, c in cleared.terms.items():
            value = Fraction(c.evaluate(asg)) / p0sq
            if value:
                terms[u] = LaurentPoly.const(vars_, value)
        return HeckeElem(terms)

    def spherical_theta_plus(self, t: TorusPoint, x: Vec):
        """Spherical functional on the spherical Bernstein element, computed
        through the module action.  With exact labels at a rational point
        the action folds numbers (see the module docstring) and the factor
        ``delta^{1/2}(-x)`` multiplies the value; the result is the same
        exact number either way."""
        x = tuple(x)
        self._need_numeric()
        if self._exact_labels and t._rational():
            val = self._spherical_of(self._theta_plus_action(x, True), t)
            val *= self.trace.delta_sqrt_value(vneg(x))
        else:
            val = self._spherical_of(self._theta_plus_action(x, False), t)
        return val / (self._p0_val ** 2)

    def macdonald_value(self, t: TorusPoint, x: Vec):
        """The c-function series formula for the spherical functional on the
        spherical Bernstein element at a dominant point."""
        self._need_numeric()
        x = tuple(x)
        total = 0
        for winv, c in self._c_values_at(t):
            total += c * t.value(winv.apply_x(x))
        return self.trace.q_w0_value() * total / self._p0_val

    def _c_values_at(self, t: TorusPoint) -> list:
        """The pairs ``(w^{-1}, c(w t))`` over the finite Weyl group.  They
        depend on ``t`` only, so they are kept for the last point asked."""
        if self._c_values is None or self._c_values[0] != t.images:
            pairs = [
                (self.weyl.fin_inv(w), self.trace.c_full(t.apply_w(self.weyl, w)))
                for w in self.basis_order
            ]
            self._c_values = (t.images, pairs)
        return self._c_values[1]

    # -- plus-idempotent identities in cleared form --------------------------

    def theta_plus_lines(self, x: Vec) -> tuple[HeckeElem, HeckeElem, HeckeElem]:
        """Three expressions for the (cleared) spherical Bernstein element:
        the double-symmetrised translation, its contraction to minimal coset
        representatives, and the fully expanded double-coset sum.  All three
        are equal; each is the cleared element without the square-root
        modulus prefactor."""
        x = tuple(x)
        if not is_dominant(self.datum, x):
            raise ValueError(f"{x} is not dominant")
        H = self.hecke
        weyl = self.weyl
        stab, reps, _w_x, w_up = weyl.coset_data(x)
        tx = weyl.translation(x)
        sym = self.symmetrizer()
        line1 = H.mul(H.mul(sym, H.basis(tx)), sym)
        px = self.labels.poincare(stab)
        partial = H.add(*(H.basis(weyl.as_affine(u)) for u in reps))
        line2 = H.scale(H.mul(H.mul(partial, H.basis(tx)), sym), px)
        coeff = self.labels.q_of_fin(w_up) * px
        terms: dict[int, LaurentPoly] = {}
        for u in reps:
            left = weyl.multiply(weyl.as_affine(u), tx)
            for v in self.basis_order:
                accumulate(terms, weyl.gid(weyl.multiply(left, weyl.as_affine(v))), coeff)
        line3 = HeckeElem(terms)
        return line1, line2, line3

    def inner_plus(self, x: Vec, y: Vec) -> LaurentPoly:
        """Cleared pairing of two spherical Bernstein elements: the pairing of
        the double-symmetrised forms, i.e. the normalised pairing multiplied
        by the fourth power of the finite Poincare series."""
        a = self.theta_plus_cleared(tuple(x))
        b = self.theta_plus_cleared(tuple(y))
        return self.hecke.inner(a, b)

    def inner_plus_target(self, x: Vec, y: Vec) -> LaurentPoly:
        """Predicted value of :meth:`inner_plus`: zero off the diagonal; on
        the diagonal the label of the complementary coset representative
        times the stabiliser Poincare series times the square of the full
        one."""
        x = tuple(x)
        y = tuple(y)
        if x != y:
            return self.labels.zero()
        stab, _reps, _w_x, w_up = self.weyl.coset_data(x)
        p0 = self.labels.poincare(self.basis_order)
        px = self.labels.poincare(stab)
        return p0 * p0 * px * self.labels.q_of_fin(w_up)

    # -- truncated series identity -------------------------------------------

    def eisenstein_check(self, t: TorusPoint, h: HeckeElem, box_radius: int, action: list):
        """Truncated check of the series identity: the scalar product of the
        generating functional against ``h``, scaled by the full intertwiner
        square factor, against the distinguished matrix element scaled by the
        inverse-point root product.  ``action`` is the
        :meth:`symbolic_action` of ``h``.  Returns (lhs, rhs, gap)."""
        asg = self._need_numeric()
        self.trace.check_region(t)
        dd = self.d_w_value(self.longest, t)
        delta_inv = self.delta_value(t.inv())
        if dd == 0:
            raise PoleError("the intertwiner square factor vanishes at this point")
        rhs = delta_inv * self.E_value(t, action)

        coords = self.bernstein.expand_in_bernstein(h)
        ys = {x for (_w, x) in coords}
        xs: set[Vec] = set()
        for y in ys:
            bound = box_radius - height(self.datum, y)
            if bound < 0:
                continue
            for p in self.trace.negative_cone_points(int(bound)):
                xs.add(vadd(vneg(y), p))
        total = 0
        for x in sorted(xs, key=lambda v: (height(self.datum, vneg(v)), v)):
            tau = self.hecke.tau_pair(self.bernstein.theta(x), h)
            if not tau:
                continue
            total += t.value(vneg(x)) * tau.evaluate(asg)
        lhs = dd * total
        return lhs, rhs, abs(lhs - rhs)

    # -- seeded torus points -------------------------------------------------

    def seeded_point(self, seed: int, mode: str = "rational") -> TorusPoint:
        """Reproducible random torus point, rejected until it is regular and
        stays clear of every c-function pole, root-product zero, and
        normalisation-factor zero over the whole finite orbit."""
        self._need_numeric()
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
        exact = t._rational()
        small = (lambda v: v == 0) if exact else (lambda v: abs(v) < 1e-6)
        seen = set()
        for w in self.basis_order:
            wt = t.apply_w(self.weyl, w)
            if wt.images in seen:
                return False
            seen.add(wt.images)
            try:
                self.trace.c_full(wt)
                self.trace.c_full(wt.inv())
            except PoleError:
                return False
            if small(self.delta_w_value(self.longest, wt)):
                return False
            if small(self.n_w_value(self.longest, wt)) or small(
                self.n_w_value(self.longest, wt.inv())
            ):
                return False
        return True
