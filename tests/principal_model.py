"""The principal-series model behind the identity tests.

No ``hecke-trace`` command reads what is here; the tests check the paper's
identities through it.  :class:`PrincipalModel` adds to ``PrincipalSeries``
the finite Hecke algebra of the module, the intertwining vectors and
operators, matrix elements, the spherical functional of any element, the
double-coset route of the spherical value, the plus basis and the
truncated series check, with two memos bounded by the datum (the left
matrices and the intertwiner actions).  The functions give
the trace pairing, the matrix product and inverse of group elements (the
reference of the group's product and inverse on ids), Weyl orbits and
cosets, the Poincare series, orbit sums, the group algebra's embedding, the
inverse Bernstein expansion, ``q(w0)`` at the assignment and the numeric
generating identity.
"""

from fractions import Fraction

from affinehecke.coeffring import LaurentPoly, accumulate
from affinehecke.hecke import HeckeElem
from affinehecke.principal import ModeError, PrincipalSeries
from affinehecke.rootdata import height, is_dominant, vadd, vneg
from affinehecke.tracegen import PoleError, TorusPoint
from affinehecke.weyl import AffineWeylElem


class RegionError(ValueError):
    """The torus point is not inside the region where the series converges."""


def mat_vec(m, v):
    return [sum(row[j] * v[j] for j in range(len(v)) if v[j]) for row in m]


def conj(t):
    """The complex-conjugate torus point."""
    return TorusPoint(tuple(v.conjugate() if isinstance(v, complex) else v for v in t.images))


def tau_pair(H, a, b):
    """tau(a*b) evaluated through the basis-orthogonality rule
    tau(T_g T_h) = q(g) [h = g^{-1}]; no product is formed."""
    weyl = H.weyl
    out = H.labels.zero()
    for u, c in a.terms.items():
        d = b.terms.get(weyl.inverse(u))
        if d is not None:
            out = out + c * d * H.labels.q_of_w(weyl.elem(u))
    return out


def fin_inverse(weyl, w):
    """The inverse of a finite element, found in W0 by its matrix product."""
    return next(v for v in weyl.enumerate_w0() if weyl.fin_mul(v, w) == weyl.id_fin)


def elem_product(weyl, g, h):
    """``(w t_x)(w' t_{x'}) = (w w') t_{w'^{-1}(x) + x'}``, by matrices."""
    return AffineWeylElem(weyl.fin_mul(g.fin, h.fin), vadd(fin_inverse(weyl, h.fin).apply_x(g.trans), h.trans))


def elem_inverse(weyl, g):
    """``(w t_x)^{-1} = w^{-1} t_{-w(x)}``, by matrices."""
    return AffineWeylElem(fin_inverse(weyl, g.fin), vneg(g.fin.apply_x(g.trans)))


def orbit(weyl, x):
    """The finite Weyl orbit of a lattice point, in a stable order."""
    return sorted({w.apply_x(tuple(x)) for w in weyl.enumerate_w0()})


def coset_data(weyl, x):
    """Stabiliser data for a point ``x`` in X: ``(W_x, W^x, w_x, w^x)``, the
    stabiliser of ``x``, the minimal-length coset representatives of
    ``W0 / W_x``, the longest stabiliser element, and ``w^x = w0 w_x``."""
    x = tuple(x)
    order = weyl.enumerate_w0()
    stab = [w for w in order if w.apply_x(x) == x]
    best = {}
    for w in order:  # BFS order: first hit per orbit point is shortest
        best.setdefault(w.apply_x(x), w)
    reps = sorted(best.values(), key=lambda w: (len(weyl.fin_word(w)), weyl.fin_word(w)))
    w_x = stab[-1]  # BFS order puts the longest stabiliser element last
    return stab, reps, w_x, weyl.fin_mul(weyl.longest_element(), w_x)


def poincare(labels, elems):
    """Sum of ``q(w)`` over a collection of finite elements."""
    out = labels.zero()
    for w in elems:
        out = out + labels.q_of_fin(w)
    return out


def group_mul(a, b):
    """Product in the group algebra of the lattice: ``{x: c}`` dicts."""
    out = {}
    for x, c in a.items():
        for y, d in b.items():
            accumulate(out, vadd(x, y), c * d)
    return out


def embed(B, a):
    """The image of a group-algebra element ``{x: c}``: the sum of ``c theta(x)``."""
    H = B.hecke
    return H.add(*(H.scale(B.theta(x), c) for x, c in a.items()))


def center_element(B, x):
    """The orbit sum over the finite Weyl orbit of x: a central element."""
    return B.hecke.add(*(B.theta(y) for y in orbit(B.weyl, x)))


def reassemble(B, coords):
    """Inverse of ``Bernstein.expand_in_bernstein``: sum of c * T_w theta(x)."""
    H = B.hecke
    return H.add(*(H.scale(H.mul(H.basis(B.weyl.as_affine(w)), B.theta(x)), c)
                   for (w, x), c in coords.items()))


def check_region(trace, t):
    """Require |t(a)| < delta^{-1/2}(a) strictly on every positive root."""
    for alpha in trace.derived.positive_roots:
        bound = trace.delta_sqrt_value(alpha)
        val = abs(t.value(alpha))
        if not val * bound < 1:
            raise RegionError(
                f"torus point is outside the convergence region at root "
                f"{alpha}: |t| = {val}, bound = 1/{bound}"
            )


def q_w0_value(trace):
    """``q(w0)`` at the trace's assignment."""
    return trace.labels.q_of_fin(trace.weyl.longest_element()).evaluate(trace._need_numeric())


def generating_check(trace, t, box_radius):
    """Truncated left side vs closed-form right side of the generating
    identity ``sum_x tau(theta_x) t(-x) = 1 / (q(w0) c(t) c(t^{-1}))``, inside
    the region of :func:`check_region`; returns (lhs_partial, rhs, gap)."""
    asg = trace._need_numeric()
    check_region(trace, t)
    lhs = None
    for x, tau in trace.trace_theta_partition(trace.negative_cone_points(box_radius)).items():
        term = tau.evaluate(asg) * t.value(vneg(x))
        lhs = term if lhs is None else lhs + term
    if lhs is None:
        lhs = Fraction(0)
    denom = q_w0_value(trace) * trace.c_full(t) * trace.c_full(t.inv())
    if denom == 0:
        raise PoleError("right side has a vanishing denominator")
    rhs = 1 / denom
    return lhs, rhs, abs(lhs - rhs)


class PrincipalModel(PrincipalSeries):
    """``PrincipalSeries`` with the rest of the model of the paper's proof."""

    def __init__(self, bernstein, assignment=None):
        super().__init__(bernstein, assignment)
        self._left = [None] * self.dim
        self._rs_action = {}

    def symbolic_action(self, h, vectors=None, bernstein=None):
        """The action on ``vectors``, by default the finite basis ``T_v`` in
        ``basis_order`` (the full square action), in the algebra of
        ``bernstein``, by default this model's own."""
        if bernstein is None:
            bernstein = self.bernstein
        if vectors is None:
            vectors = [bernstein.hecke.basis(self.weyl.as_affine(v)) for v in self.basis_order]
        return super().symbolic_action(h, vectors, bernstein)

    def left_matrix(self, j):
        """The module action of the j-th finite basis element ``T_w``: left
        multiplication, the same at every torus point, read at the identity."""
        m = self._left[j]
        if m is None:
            one = TorusPoint((1,) * self.weyl.rank)
            tw = self.hecke.basis(self.weyl.as_affine(self.basis_order[j]))
            m = self._left[j] = self.laplace_matrix(self.symbolic_action(tw), one)
        return m

    def h0_product(self, a, b):
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

    def r_vector(self, w, t):
        """Image of the identity basis vector under the intertwiner product
        along the canonical reduced word for ``w``."""
        vec = [1] + [0] * (self.dim - 1)
        for i in reversed(self.weyl.fin_word(w)):
            act = self._rs_action.get(i)
            if act is None:
                act = self._rs_action[i] = self.symbolic_action(self.intertwiner_element(i))
            vec = mat_vec(self.laplace_matrix(act, t), vec)
        return vec

    def r0_vector(self, w, t):
        """Normalised intertwining vector, away from the zeros of ``n_w``."""
        n = self.n_w_value(w, t)
        if n == 0:
            raise PoleError(f"normalisation factor vanishes at {t} for {w}")
        if isinstance(n, int):
            n = Fraction(n)
        return [c / n for c in self.r_vector(w, t)]

    def bra_vector(self, u, t):
        """Left vector of the matrix-element pairing: the longest element
        acting on the intertwining vector at the conjugate-inverse point."""
        r = self.r_vector(self.weyl.fin_mul(self.longest, u), conj(t).inv())
        return mat_vec(self.left_matrix(self.index[self.longest]), r)

    def matrix_element(self, u, v, t, action):
        """Pairing of the ``u``-side left vector against an element, given by
        its ``symbolic_action``, applied to the ``v``-side intertwining
        vector; at ``u = v = 1`` the distinguished matrix element."""
        m = self.laplace_matrix(action, t)
        return self.pair(self.bra_vector(u, t), mat_vec(m, self.r_vector(v, t)))

    def intertwiner_operator(self, w, t):
        """The module map of ``w`` from the module at ``t`` to that at ``w(t)``:
        right multiplication by ``r_{w^{-1}}(w(t))``, column ``j`` is ``T_j·r``."""
        r = self.r_vector(self.weyl.fin_inv(w), t.apply_w(self.weyl, w))
        cols = [mat_vec(self.left_matrix(j), r) for j in range(self.dim)]
        return [list(row) for row in zip(*cols)]

    def matrix_element_shift(self, u, v, i, t, action):
        """Both sides of the index-shift identity for matrix elements,
        specialised to the i-th simple reflection."""
        s = self.weyl.simple_reflections[i]
        st = t.apply_w(self.weyl, s)
        us = self.weyl.fin_mul(u, s)
        vs = self.weyl.fin_mul(v, s)
        lhs = self.matrix_element(u, v, t, action)
        num = self.n_w_value(v, t) * self.n_w_value(us, st)
        den = self.n_w_value(u, t) * self.n_w_value(vs, st)
        if den == 0:
            raise PoleError("normalisation factor vanishes in the shift ratio")
        return lhs, (num / den) * self.matrix_element(us, vs, st, action)

    def spherical(self, t, h):
        """The spherical functional of ``h``, from one Bernstein expansion of
        ``h·sym``.  The product is formed as it stands, not through
        ``h·sym = P(q)·h`` for an invariant ``h``, so the value stays
        independent of the formula it is checked against."""
        return self._spherical_of(self.symbolic_action(h, [self.symmetrizer()]), t)

    def double_coset_spherical(self, t, x):
        """The spherical value through the double-coset sum: the action of
        ``sym·T_{t_x}·sym`` on the spherical vector, over ``p0^2`` and times
        ``delta^{1/2}(-x)``, folded in the same context (at the label values
        when they are exact, else formally).  The reference of
        ``spherical_theta_plus``, which reads ``T_{t_x}`` alone."""
        x = tuple(x)
        bernstein, sym = self._tower()
        H = bernstein.hecke
        elem = H.mul(H.mul(sym, H.basis(self.weyl.translation(x))), sym)
        val = self._spherical_of(self.symbolic_action(elem, [sym], bernstein), t)
        return val * self.trace.delta_sqrt_value(vneg(x)) / self._p0_val ** 2

    def theta_plus(self, x):
        """The spherical Bernstein basis element at a dominant point, with
        numeric (exact rational) coefficients."""
        asg = self.trace._need_numeric()
        if not self._exact_labels:
            raise ModeError("the spherical basis needs exact rational labels")
        p0sq = self._p0_val ** 2
        vars_ = self.labels.vars
        terms = {}
        for u, c in self.theta_plus_cleared(x).terms.items():
            value = Fraction(c.evaluate(asg)) / p0sq
            if value:
                terms[u] = LaurentPoly.monomial(vars_, (0,) * len(vars_), value)
        return HeckeElem(terms)

    def theta_plus_lines(self, x):
        """Three expressions for the cleared spherical Bernstein element, less
        its modulus factor: ``sym·T_{t_x}·sym``, its contraction to minimal
        coset representatives, and the expanded double-coset sum."""
        x = tuple(x)
        if not is_dominant(self.datum, x):
            raise ValueError(f"{x} is not dominant")
        H = self.hecke
        weyl = self.weyl
        stab, reps, _w_x, w_up = coset_data(weyl, x)
        tx = weyl.translation(x)
        sym = self.symmetrizer()
        line1 = H.mul(H.mul(sym, H.basis(tx)), sym)
        px = poincare(self.labels, stab)
        partial = H.add(*(H.basis(weyl.as_affine(u)) for u in reps))
        line2 = H.scale(H.mul(H.mul(partial, H.basis(tx)), sym), px)
        coeff = self.labels.q_of_fin(w_up) * px
        terms = {}
        mul, gid = weyl.multiply, weyl.gid
        for u in reps:
            left = mul(gid(weyl.as_affine(u)), gid(tx))
            for v in self.basis_order:
                accumulate(terms, mul(left, gid(weyl.as_affine(v))), coeff)
        return line1, line2, HeckeElem(terms)

    def inner_plus(self, x, y):
        """Cleared pairing ``tau(star(a) b)`` of two spherical Bernstein
        elements: the normalised pairing times the fourth power of the finite
        Poincare series."""
        H = self.hecke
        a = self.theta_plus_cleared(tuple(x))
        return tau_pair(H, H.star(a), self.theta_plus_cleared(tuple(y)))

    def inner_plus_target(self, x, y):
        """Predicted :meth:`inner_plus`: zero off the diagonal, else ``q(w^x)``
        times the stabiliser's Poincare series times the square of W0's."""
        if tuple(x) != tuple(y):
            return self.labels.zero()
        stab, _reps, _w_x, w_up = coset_data(self.weyl, x)
        p0 = poincare(self.labels, self.basis_order)
        return p0 * p0 * poincare(self.labels, stab) * self.labels.q_of_fin(w_up)

    def eisenstein_check(self, t, h, box_radius, action):
        """Truncated series identity: the generating functional against ``h``
        times the intertwiner square factor, against the distinguished matrix
        element (``action`` is ``h``'s) times the inverse-point root product.
        Returns (lhs, rhs, gap)."""
        asg = self.trace._need_numeric()
        check_region(self.trace, t)
        dd = self.n_w_value(self.longest, t) * self.n_w_value(self.longest, t.inv())
        if dd == 0:
            raise PoleError("the intertwiner square factor vanishes at this point")
        e = self.basis_order[0]
        rhs = self.delta_w_value(self.longest, t.inv()) * self.matrix_element(e, e, t, action)
        ys = {x for (_w, x) in self.bernstein.expand_in_bernstein(h)}
        xs = set()
        for y in ys:
            bound = box_radius - height(self.datum, y)
            if bound < 0:
                continue
            for p in self.trace.negative_cone_points(int(bound)):
                xs.add(vadd(vneg(y), p))
        total = 0
        for x in sorted(xs, key=lambda v: (height(self.datum, vneg(v)), v)):
            tau = tau_pair(self.hecke, self.bernstein.theta(x), h)
            if tau:
                total += t.value(vneg(x)) * tau.evaluate(asg)
        lhs = dd * total
        return lhs, rhs, abs(lhs - rhs)
