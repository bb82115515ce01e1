"""Finite-dimensional model at a torus point: intertwiners, matrix elements,
the spherical function, and the truncated series check."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinehecke import PoleError, build_preset
from affinehecke.bernstein import Bernstein
from affinehecke.coeffring import LabelSet, LaurentPoly, _make
from affinehecke.hecke import HeckeAlgebra
from affinehecke.principal import ModeError, PrincipalSeries
from affinehecke.rootdata import coordinate_box, is_dominant, solve
from affinehecke.tracegen import TorusPoint, TraceGen
from affinehecke.weyl import AffineWeyl

from presets import TEN_PRESETS
from principal_model import PrincipalModel, conj, generating_check, mat_vec, q_w0_value


@lru_cache(maxsize=None)
def series(name, items=None, mode="rational"):
    w = AffineWeyl(build_preset(name))
    L = LabelSet(w)
    H = HeckeAlgebra(w, L)
    B = Bernstein(H)
    asg = L.numeric_assignment(dict(items), mode) if items else None
    return PrincipalModel(B, asg)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][p] * b[p][j] for p in range(k)) for j in range(m)] for i in range(n)]


def mat_trace(m):
    return sum(m[i][i] for i in range(len(m)))


def finite_length(weyl, w):
    """The length of a finite element: the positive roots it sends negative."""
    positive = set(weyl.derived.positive_roots)
    return sum(1 for alpha in positive if w.apply_x(alpha) not in positive)


A1Q4 = (("s1", 4), ("s0", 4))
A2Q4 = (("s1", 4),)
BC2 = (("s1", 4), ("s2", 9), ("s0", 25))


def sample_element(ps):
    H = ps.hecke
    B = ps.bernstein
    w = ps.weyl
    ones = [1] * ps.datum.rank
    return H.add(
        H.basis(w.simple_affine(0)),
        H.mul(B.theta(tuple(ones)), H.basis(w.simple_affine(ps.datum.rank % len(w.fundamental)))),
    )


# -- symbolic intertwiners ---------------------------------------------------


@pytest.mark.parametrize("name", ["A1-weight", "A1-root", "A2", "B2", "BnCn(2)"])
def test_intertwiner_forms_agree_and_square_to_d(name):
    ps = series(name)
    H = ps.hecke
    for i in range(len(ps.datum.simple_roots)):
        left = ps.intertwiner_element(i)
        right = ps.intertwiner_element_right(i)
        assert left == right
        assert H.mul(left, left) == ps.d_element(ps.r1_of_simple(i))


def test_braid_relations_symbolic():
    assert series("A2").intertwiner_word((0, 1, 0)) == series("A2").intertwiner_word(
        (1, 0, 1)
    )
    ps = series("B2")
    assert ps.intertwiner_word((0, 1, 0, 1)) == ps.intertwiner_word((1, 0, 1, 0))
    psd = series("BnCn(2)")
    assert psd.intertwiner_word((0, 1, 0, 1)) == psd.intertwiner_word((1, 0, 1, 0))


def test_d_element_is_central_in_the_commutative_part():
    ps = series("A1-root")
    H = ps.hecke
    d = ps.d_element(ps.r1_of_simple(0))
    th = ps.bernstein.theta((1,))
    assert H.mul(d, th) == H.mul(th, d)


# -- the representation ------------------------------------------------------


def test_dimension_and_unit():
    ps = series("A2", A2Q4)
    assert ps.dim == 6
    assert ps._p0_val == Fraction(105)
    t = ps.seeded_point(0)
    ident = ps.laplace_matrix(ps.symbolic_action(ps.hecke.unit()), t)
    assert ident == [
        [1 if i == j else 0 for j in range(ps.dim)] for i in range(ps.dim)
    ]


def test_laplace_is_an_algebra_homomorphism():
    ps = series("A2", A2Q4)
    H = ps.hecke
    t = ps.seeded_point(1)
    a = sample_element(ps)
    two = LaurentPoly.monomial(ps.labels.vars, (0,) * len(ps.labels.vars), 2)
    b = H.sub(H.basis(ps.weyl.simple_affine(2)), H.scale(H.unit(), two))
    ma = ps.laplace_matrix(ps.symbolic_action(a), t)
    mb = ps.laplace_matrix(ps.symbolic_action(b), t)
    assert ps.laplace_matrix(ps.symbolic_action(H.mul(a, b)), t) == mat_mul(ma, mb)


def test_laplace_satisfies_the_quadratic_relation():
    ps = series("BnCn(2)", BC2)
    H = ps.hecke
    t = ps.seeded_point(3)
    for i in range(2):
        m = ps.laplace_matrix(ps.symbolic_action(H.basis(ps.weyl.simple_affine(i))), t)
        q = ps.labels.q_of_gen(i).evaluate(ps.assignment)
        sq = mat_mul(m, m)
        expect = [
            [(q - 1) * m[r][c] + (q if r == c else 0) for c in range(ps.dim)]
            for r in range(ps.dim)
        ]
        assert sq == expect


# -- laplace_matrix against the term-by-term sum -----------------------------


def ref_laplace_matrix(ps, action, t):
    """The per-triple evaluation that laplace_matrix replaced."""
    m = [[0] * len(action) for _ in range(ps.dim)]
    for col, triples in enumerate(action):
        for row, x, poly in triples:
            m[row][col] += poly.evaluate(ps.assignment) * t.value(x)
    return m


def term_sizes(ps, action, t):
    """Per entry, the sum of the absolute values of its monomial terms.

    Summing ``|poly(asg) * t(x)|`` per triple would hide the cancellation
    inside a coefficient such as ``c*q - c`` at ``q`` near 1, where the
    rounding error scales with ``|c*q| + |c|``, not with the difference.
    """
    m = [[0] * len(action) for _ in range(ps.dim)]
    for col, triples in enumerate(action):
        for row, x, poly in triples:
            for e, c in poly.sorted_terms():
                mono = LaurentPoly.monomial(poly.vars, e, c)
                m[row][col] += abs(mono.evaluate(ps.assignment) * t.value(x))
    return m


def types(m):
    return [[type(v) for v in row] for row in m]


@lru_cache(maxsize=None)
def sample_actions(name):
    """Symbolic actions of a generator times a translation, of an
    intertwining element, and of a cleared spherical Bernstein element; the
    last also on the spherical vector alone (one column)."""
    ps = series(name)
    rank = ps.datum.rank
    dominant = next(
        x for x in sorted(itertools.product(range(3), repeat=rank), key=sum)
        if any(x) and is_dominant(ps.datum, x)
    )
    plus = ps.theta_plus_cleared(dominant)
    elems = [sample_element(ps), ps.intertwiner_element(0), plus]
    return [ps.symbolic_action(h) for h in elems] + [
        ps.symbolic_action(plus, [ps.symmetrizer()])
    ]


def at_values(name, values):
    """The series of ``name`` with its label variables set to ``values``."""
    ps = series(name)
    return PrincipalSeries(ps.bernstein, dict(zip(ps.labels.vars, values)))


LAPLACE_DATA = ["A1-weight", "B2", "BnCn(2)", "G2"]
LABEL_VALUES = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
COORDS = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(bool)
COMPLEX_COORDS = st.builds(
    complex, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)
).filter(lambda z: abs(z) > 0.1)


@pytest.mark.parametrize("name", LAPLACE_DATA)
@given(data=st.data())
@settings(deadline=None, max_examples=10)
def test_laplace_matrix_matches_the_term_by_term_sum(name, data):
    ps = series(name)
    nvars, rank = len(ps.labels.vars), ps.datum.rank
    num = at_values(name, data.draw(st.lists(LABEL_VALUES, min_size=nvars, max_size=nvars)))
    t = TorusPoint(data.draw(st.lists(COORDS, min_size=rank, max_size=rank)))
    for action in sample_actions(name):
        got = num.laplace_matrix(action, t)
        want = ref_laplace_matrix(num, action, t)
        assert got == want
        assert types(got) == types(want)


@pytest.mark.parametrize("name", LAPLACE_DATA)
def test_laplace_matrix_with_fractional_square_roots(name):
    # q = 9/4, 4/25 and 49/9 have the square roots 3/2, 2/5 and 7/3
    ps = series(name)
    qs = ("9/4", "4/25", "49/9")  # one per label class
    items = {g: qs[c] for g, c in zip(ps.weyl.generator_names, ps.labels.gen_class)}
    asg = ps.labels.numeric_assignment(items, "rational")
    assert asg[ps.labels.vars[0]] == Fraction(3, 2)
    num = PrincipalSeries(ps.bernstein, asg)
    t = TorusPoint((Fraction(-3, 2), Fraction(5, 7))[: ps.datum.rank])
    for action in sample_actions(name):
        got = num.laplace_matrix(action, t)
        want = ref_laplace_matrix(num, action, t)
        assert got == want
        assert types(got) == types(want)
        # an action computed at the labels carries numbers: each is its value,
        # also beside polynomial columns
        numbers = [[(r, x, p.evaluate(asg)) for r, x, p in col] for col in action]
        mixed = [col if j % 2 else numbers[j] for j, col in enumerate(action)]
        for other in (numbers, mixed):
            assert num.laplace_matrix(other, t) == want


@pytest.mark.parametrize("name", LAPLACE_DATA)
@pytest.mark.parametrize("exact_labels", [False, True])
@given(
    floats=st.lists(st.floats(0.2, 3.0), min_size=3, max_size=3),
    fracs=st.lists(LABEL_VALUES, min_size=3, max_size=3),
    coords=st.lists(COMPLEX_COORDS, min_size=2, max_size=2),
)
# q near 1 makes c*q - c cancel; these once failed a per-triple error model
@example(floats=[0.75, 0.99999, 0.5], fracs=[1, 1, 1], coords=[1j, 1j])
@example(floats=[0.99999, 2.5, 0.5], fracs=[1, 1, 1], coords=[1j, 1j])
@settings(deadline=None, max_examples=5)
def test_laplace_matrix_at_a_complex_point(name, exact_labels, floats, fracs, coords):
    ps = series(name)
    nvars, rank = len(ps.labels.vars), ps.datum.rank
    num = at_values(name, (fracs if exact_labels else floats)[:nvars])
    t = TorusPoint(coords[:rank])
    for action in sample_actions(name):
        got = num.laplace_matrix(action, t)
        want = ref_laplace_matrix(num, action, t)
        size = term_sizes(num, action, t)
        assert types(got) == types(want)
        for r in range(ps.dim):
            for c in range(len(action)):
                assert abs(got[r][c] - want[r][c]) <= 1e-12 * size[r][c]


def test_laplace_matrix_leaves_untouched_entries_zero():
    num = at_values("B2", (Fraction(3, 2), Fraction(2)))
    three = LaurentPoly.monomial(num.labels.vars, (0,) * len(num.labels.vars), 3)
    p = num.labels.q_of_gen(0) + three
    t = TorusPoint((Fraction(-2, 3), Fraction(5)))
    action = [[] for _ in range(num.dim)]
    action[1] = [(0, (1, -2), p), (4, (0, 0), p), (4, (0, 0), -p)]
    m = num.laplace_matrix(action, t)
    assert m == ref_laplace_matrix(num, action, t)
    assert m[0][1] == (Fraction(9, 4) + 3) * Fraction(-2, 3) / 25
    assert type(m[4][1]) is Fraction and m[4][1] == 0  # touched, cancels
    touched = {(0, 1), (4, 1)}
    for r in range(num.dim):
        for c in range(num.dim):
            if (r, c) not in touched:
                assert type(m[r][c]) is int and m[r][c] == 0
    empty = num.laplace_matrix([[] for _ in range(num.dim)], t)
    assert types(empty) == [[int] * num.dim] * num.dim and not any(map(any, empty))
    # a triple whose polynomial is zero still touches its entry
    zero_only = [[] for _ in range(num.dim)]
    zero_only[2] = [(3, (1, 1), num.labels.zero())]
    m = num.laplace_matrix(zero_only, t)
    want = ref_laplace_matrix(num, zero_only, t)
    assert m == want and types(m) == types(want)
    assert type(m[3][2]) is Fraction


def test_rank_one_intertwining_vector_closed_form():
    ps = series("A1-weight", A1Q4)
    e, s = ps.basis_order
    q = Fraction(4)
    t = TorusPoint((Fraction(2, 3),))
    ta = t.value(ps.datum.simple_roots[0])
    rv = ps.r_vector(s, t)
    assert rv[ps.index[e]] == (q - 1) * ta
    assert rv[ps.index[s]] == 1 - ta
    # leading coefficient is the root-product at the inverse point
    assert rv[ps.index[s]] == ps.delta_w_value(s, t.inv())


def test_intertwining_vector_square_and_cocycle():
    ps = series("A1-weight", A1Q4)
    _, s = ps.basis_order
    t = TorusPoint((Fraction(2, 3),))
    st = t.apply_w(ps.weyl, s)
    prod = ps.h0_product(ps.r_vector(s, st), ps.r_vector(s, t))
    assert prod == [ps.n_w_value(s, t) * ps.n_w_value(s, t.inv()), 0]
    prod0 = ps.h0_product(ps.r0_vector(s, st), ps.r0_vector(s, t))
    assert prod0 == [Fraction(1), Fraction(0)]


def test_normalized_cocycle_on_a2():
    ps = series("A2", A2Q4)
    w = ps.weyl
    t = ps.seeded_point(5)
    for u in ps.basis_order:
        for v in ps.basis_order:
            vt = t.apply_w(w, v)
            lhs = ps.h0_product(ps.r0_vector(u, vt), ps.r0_vector(v, t))
            rhs = ps.r0_vector(w.fin_mul(u, v), t)
            assert lhs == rhs, (u, v)


def test_matrix_element_orthogonality():
    ps = series("A2", A2Q4)
    w = ps.weyl
    t = ps.seeded_point(1)
    qw0 = q_w0_value(ps.trace)
    for u in ps.basis_order:
        for v in ps.basis_order:
            val = ps.pair(ps.bra_vector(u, t), ps.r_vector(v, t))
            if u == v:
                assert val == qw0 * ps.delta_w_value(ps.longest, t.apply_w(w, v))
            else:
                assert val == 0


def test_matrix_element_of_unit_with_doubled_labels():
    ps = series("BnCn(2)", BC2)
    w = ps.weyl
    t = ps.seeded_point(2)
    qw0 = q_w0_value(ps.trace)
    unit = ps.symbolic_action(ps.hecke.unit())
    for u in ps.basis_order[:3]:
        for v in ps.basis_order:
            val = ps.matrix_element(u, v, t, unit)
            if u == v:
                assert val == qw0 * ps.delta_w_value(ps.longest, t.apply_w(w, u))
            else:
                assert val == 0


def test_character_as_weighted_diagonal_sum():
    ps = series("A2", A2Q4)
    w = ps.weyl
    t = ps.seeded_point(4)
    h = sample_element(ps)
    act = ps.symbolic_action(h)
    qw0 = q_w0_value(ps.trace)
    character = mat_trace(ps.laplace_matrix(act, t))
    by_elements = (
        sum(
            ps.matrix_element(u, u, t, act)
            / ps.delta_w_value(ps.longest, t.apply_w(w, u))
            for u in ps.basis_order
        )
        / qw0
    )
    assert character == by_elements
    e = ps.basis_order[0]
    by_shifts = (
        sum(
            ps.matrix_element(e, e, t.apply_w(w, u), act)
            / ps.delta_w_value(ps.longest, t.apply_w(w, u))
            for u in ps.basis_order
        )
        / qw0
    )
    assert character == by_shifts


def test_matrix_elements_are_homogeneous():
    ps = series("A1-weight", A1Q4)
    H = ps.hecke
    B = ps.bernstein
    t = TorusPoint((Fraction(3, 5),))
    h = sample_element(ps)
    x1, x2 = (1,), (-1,)
    wrapped = ps.symbolic_action(H.mul(H.mul(B.theta(x1), h), B.theta(x2)))
    act = ps.symbolic_action(h)
    for u in ps.basis_order:
        for v in ps.basis_order:
            lhs = ps.matrix_element(u, v, t, wrapped)
            scale = t.apply_w(ps.weyl, u).value(x1) * t.apply_w(ps.weyl, v).value(x2)
            assert lhs == scale * ps.matrix_element(u, v, t, act)


def test_matrix_elements_separate_points():
    ps = series("A1-weight", A1Q4)
    H = ps.hecke
    B = ps.bernstein
    w = ps.weyl
    t = TorusPoint((Fraction(3, 5),))
    probes = []
    for a in ps.basis_order:
        for x in ((0,), (1,), (-1,)):
            probes.append(ps.symbolic_action(H.mul(H.basis(w.as_affine(a)), B.theta(x))))
    rows = [
        [ps.matrix_element(u, v, t, p) for p in probes]
        for u in ps.basis_order
        for v in ps.basis_order
    ]
    assert solve(rows)[0] == ps.dim**2


def test_index_shift_along_a_simple_reflection():
    ps = series("A2", A2Q4)
    t = ps.seeded_point(6)
    act = ps.symbolic_action(sample_element(ps))
    for i in (0, 1):
        for u in ps.basis_order:
            for v in ps.basis_order:
                lhs, rhs = ps.matrix_element_shift(u, v, i, t, act)
                assert lhs == rhs, (i, u, v)


def test_intertwiner_functional_equation():
    ps = series("A2", A2Q4)
    w = ps.weyl
    t = ps.seeded_point(1)
    rng = random.Random(7)
    psi = [
        [Fraction(rng.randrange(-3, 4)) for _ in range(ps.dim)]
        for _ in range(ps.dim)
    ]
    h = sample_element(ps)
    for u in ps.basis_order:
        ut = t.apply_w(w, u)
        fwd = ps.intertwiner_operator(u, t)
        bwd = ps.intertwiner_operator(w.fin_inv(u), ut)
        comp = mat_mul(fwd, mat_mul(psi, bwd))
        lhs = mat_trace(mat_mul(comp, ps.laplace_matrix(ps.symbolic_action(h), ut)))
        d = ps.n_w_value(u, t) * ps.n_w_value(u, t.inv())
        rhs = d * mat_trace(mat_mul(psi, ps.laplace_matrix(ps.symbolic_action(h), t)))
        assert lhs == rhs, u


# -- the finite Hecke algebra against the generator engine -------------------


def ref_finite_matrices(ps):
    """The generator engine that ``left_matrix`` replaced: the quadratic
    relation for each ``T_{s_i}`` on the finite basis, with the descent read
    off ``finite_length``, multiplied along reduced words.  Returns, per
    element of ``basis_order``, the matrices of left and of right
    multiplication by ``T_w``."""
    weyl = ps.weyl
    n = ps.dim

    def gen_matrix(i, right):
        qi = ps.labels.q_of_gen(i).evaluate(ps.assignment)
        s = weyl.simple_reflections[i]
        m = [[0] * n for _ in range(n)]
        for j, w in enumerate(ps.basis_order):
            ws = weyl.fin_mul(w, s) if right else weyl.fin_mul(s, w)
            if finite_length(weyl, ws) > finite_length(weyl, w):
                m[ps.index[ws]][j] += 1
            else:
                m[j][j] += qi - 1
                m[ps.index[ws]][j] += qi
        # a generator matrix has at most two entries per row
        return [[(p, c) for p, c in enumerate(row) if c] for row in m]

    def product(gen, m):
        return [[sum(c * m[p][col] for p, c in row) for col in range(n)] for row in gen]

    gens = {
        (i, right): gen_matrix(i, right)
        for i in range(len(weyl.simple_reflections))
        for right in (False, True)
    }
    ident = [[int(i == k) for k in range(n)] for i in range(n)]
    cache = {False: {}, True: {}}

    def of(w, right):
        # left: T_w = T_{s_i} T_{s_i w} for the first letter i of a reduced
        # word; right: x T_w = (x T_{w s_i}) T_{s_i} for the last letter i
        out = cache[right]
        if w not in out:
            word = weyl.fin_word(w)
            if not word:
                out[w] = ident
            else:
                i = word[-1] if right else word[0]
                s = weyl.simple_reflections[i]
                rest = weyl.fin_mul(w, s) if right else weyl.fin_mul(s, w)
                out[w] = product(gens[i, right], of(rest, right))
        return out[w]

    return [[of(w, right) for w in ps.basis_order] for right in (False, True)]


FINITE_DATA = [
    "A1-weight", "A1-root", "A2", "B2", "C2", "G2",
    "BnCn(1)", "BnCn(2)", "BnCn(3)", "GLn(2)", "GLn(3)", "GLn(4)",
]  # every preset with at most 48 finite Weyl group elements


@pytest.mark.parametrize("name", FINITE_DATA)
def test_finite_hecke_matrices_match_the_generator_engine(name):
    base = series(name)
    assert base.dim <= 48
    qs = {g: (4, 9, 25)[c] for g, c in zip(base.weyl.generator_names, base.labels.gen_class)}
    ps = PrincipalModel(base.bernstein, base.labels.numeric_assignment(qs, "rational"))
    left, right = ref_finite_matrices(ps)
    assert [ps.left_matrix(j) for j in range(ps.dim)] == left
    rng = random.Random(name)
    a, b = [0] * ps.dim, [0] * ps.dim
    for vec in (a, b):
        for j in rng.sample(range(ps.dim), min(ps.dim, 3)):
            vec[j] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randrange(1, 4))
    want = [0] * ps.dim
    for j, c in enumerate(b):
        if c:
            want = [x + c * y for x, y in zip(want, mat_vec(right[j], a))]
    assert ps.h0_product(a, b) == want
    t = ps.seeded_point(0)
    w0 = ps.index[ps.longest]
    # a simple reflection and the longest element: each reaches a long
    # intertwining vector on one side
    for u in (ps.basis_order[1], ps.longest):
        tb = conj(t).inv()
        ref_bra = mat_vec(left[w0], ps.r_vector(ps.weyl.fin_mul(ps.longest, u), tb))
        assert ps.bra_vector(u, t) == ref_bra, u
        r = ps.r_vector(ps.weyl.fin_inv(u), t.apply_w(ps.weyl, u))
        ref_op = [[0] * ps.dim for _ in range(ps.dim)]
        for j, c in enumerate(r):
            ref_op = [[x + c * y for x, y in zip(o, m)] for o, m in zip(ref_op, right[j])]
        assert ps.intertwiner_operator(u, t) == ref_op, u


# -- star and adjunction at a complex point ----------------------------------


def test_star_of_intertwining_vectors_complex():
    ps = series("A1-weight", A1Q4, mode="complex")
    w = ps.weyl
    t = ps.seeded_point(11, mode="complex")
    for u in ps.basis_order:
        moved = conj(t).inv().apply_w(w, u)
        left = ps.r_vector(u, t)
        right = ps.r_vector(w.fin_inv(u), moved)
        for v in ps.basis_order:
            lv = left[ps.index[w.fin_inv(v)]]
            lv = lv.conjugate() if isinstance(lv, complex) else lv
            assert abs(lv - right[ps.index[v]]) < 1e-9


def test_star_is_adjoint_to_the_pairing():
    ps = series("A1-weight", A1Q4, mode="complex")
    H = ps.hecke
    t = ps.seeded_point(11, mode="complex")
    tb = conj(t).inv()
    x = sample_element(ps)
    mx = ps.laplace_matrix(ps.symbolic_action(x), t)
    mxs = ps.laplace_matrix(ps.symbolic_action(H.star(x)), tb)
    y = [0.3 + 0.1j, -0.7 + 0.4j]
    z = [1.1 - 0.2j, 0.5 + 0.9j]
    assert abs(ps.pair(mat_vec(mxs, y), z) - ps.pair(y, mat_vec(mx, z))) < 1e-9


# -- the spherical function --------------------------------------------------


def test_spherical_is_normalised():
    for name, items in (("A2", A2Q4), ("BnCn(2)", BC2)):
        ps = series(name, items)
        t = ps.seeded_point(0)
        assert ps.spherical(t, h=ps.hecke.unit()) == 1


def class_labels(name, qs):
    """One ``q`` per label class, in class order, as generator items."""
    w = AffineWeyl(build_preset(name))
    gen_class = LabelSet(w).gen_class
    return tuple((g, qs[gen_class[j]]) for j, g in enumerate(w.generator_names))


def test_macdonald_formula_exact_on_samples():
    # the exact route (T_{t_x} on the spherical vector) against the
    # double-coset route it replaced and the c-function formula, at every
    # dominant point up to box 2 (box 1 at rank 3)
    for qs in ((4, 9, 16), (Fraction(9, 4), Fraction(1, 4), Fraction(25, 16))):
        for name in TEN_PRESETS:
            ps = series(name, class_labels(name, qs))
            rank = ps.datum.rank
            box = coordinate_box(rank, 0, 1 if rank >= 3 else 2)
            xs = [x for x in box if is_dominant(ps.datum, x)]
            for seed in range(3):
                t = ps.seeded_point(seed)
                for x in xs:
                    direct = ps.spherical_theta_plus(t, x)
                    assert direct == ps.double_coset_spherical(t, x), (name, qs, seed, x)
                    assert direct == ps.macdonald_value(t, x), (name, qs, seed, x)
    # and through the spherical element with numeric coefficients
    for name, items, xs in (
        ("A1-weight", A1Q4, [(0,), (1,), (3,)]),
        ("A2", A2Q4, [(0, 0), (1, 1), (2, 1)]),
        ("BnCn(2)", BC2, [(0, 0), (1, 0), (1, 1)]),
    ):
        ps = series(name, items)
        for seed in range(3):
            t = ps.seeded_point(seed)
            for x in xs:
                direct = ps.spherical_theta_plus(t, x)
                formula = ps.macdonald_value(t, x)
                assert direct == formula, (name, seed, x)
                assert ps.spherical(t, h=ps.theta_plus(x)) == direct


def test_spherical_value_matches_the_double_coset_route_in_floats():
    # complex points at exact labels (folded at the label values) and at
    # float labels (no label class has a rational root; folded formally):
    # T_{t_x} alone against sym·T_{t_x}·sym / p0^2 in the same context
    for qs in ((4, 9, 16), (2, 3, 5)):
        for name in TEN_PRESETS:
            ps = series(name, class_labels(name, qs), "complex")
            assert ps._exact_labels == (qs[0] == 4)
            rank = ps.datum.rank
            xs = [x for x in coordinate_box(rank, 0, 1 if rank >= 3 else 2)
                  if is_dominant(ps.datum, x)]
            for seed in range(1 if rank >= 3 else 2):
                t = ps.seeded_point(seed, mode="complex")
                for x in xs:
                    want = ps.double_coset_spherical(t, x)
                    got = ps.spherical_theta_plus(t, x)
                    assert abs(got - want) <= 1e-10 * abs(want), (name, qs, seed, x)


def reversed_action(action):
    """``action`` with the triples of every column, and the terms of every
    coefficient, in reverse order."""
    return [
        [(row, x, _make(p.vars, dict(reversed(p.terms.items())), p.bound))
         for row, x, p in reversed(col)]
        for col in action
    ]


def test_float_entries_do_not_depend_on_term_order():
    ps = series("B2", (("s1", 2), ("s2", 3)), "complex")
    assert not ps._exact_labels
    t = ps.seeded_point(0, mode="complex")
    sym = ps.symmetrizer()
    for h in (sample_element(ps), ps.theta_plus_cleared((1, 1))):
        for vectors in (None, [sym]):
            action = ps.symbolic_action(h, vectors)
            assert any(len(p.terms) > 1 for col in action for _r, _x, p in col)
            assert ps.laplace_matrix(reversed_action(action), t) == ps.laplace_matrix(action, t)
    # terms that a running sum gets wrong in this order: 1e16 + 1 rounds to
    # an even neighbour, so the +-1e16 pair leaves 0 or 2; every order gives 1
    one = TorusPoint((1 + 0j, 1 + 0j))
    triples = [(0, (0, 0), 10**16), (0, (1, 0), 1), (0, (2, 0), -(10**16))]
    for order in itertools.permutations(triples):
        m = ps.laplace_matrix([list(order)], one)
        assert m[0][0] == 1 + 0j and m[1][0] == 0


def test_macdonald_reads_the_c_values_once_per_point(monkeypatch):
    base = series("B2", (("s1", 4), ("s2", 9)))
    ps = PrincipalSeries(base.bernstein, base.assignment)  # its own memo
    c_full = ps.trace.c_full
    calls = []
    monkeypatch.setattr(ps.trace, "c_full", lambda t: calls.append(t) or c_full(t))

    def ref_macdonald(t, x):
        total = 0
        for w in ps.basis_order:
            winv = ps.weyl.fin_inv(w)
            total += c_full(t.apply_w(ps.weyl, w)) * t.value(winv.apply_x(x))
        return q_w0_value(ps.trace) * total / ps._p0_val

    xs = [(0, 0), (1, 0), (1, 1), (2, 1)]
    t, u = ps.seeded_point(0), ps.seeded_point(1)
    calls.clear()
    for point in (t, u, t):
        for x in xs:
            assert ps.macdonald_value(point, x) == ref_macdonald(point, x)
    # |W0| c-values per point, read again only when the point changes
    assert len(calls) == 3 * ps.dim


def test_spherical_vs_distinguished_element():
    ps = series("A1-weight", A1Q4)
    H = ps.hecke
    t = TorusPoint((Fraction(2, 3),))
    sym = ps.symmetrizer()
    p0 = ps._p0_val
    qw0 = q_w0_value(ps.trace)
    h = sample_element(ps)
    mid = H.mul(H.mul(sym, h), sym)
    e = ps.basis_order[0]
    lhs = ps.matrix_element(e, e, t, ps.symbolic_action(mid)) / (p0 * p0)
    rhs = qw0 * ps.n_w_value(ps.longest, t.inv()) / p0 * ps.spherical(t, h=h)
    assert lhs == rhs


SPHERICAL_DATA = [
    ("A1-weight", A1Q4),
    ("A2", A2Q4),
    ("B2", (("s1", 4), ("s2", 9))),
    ("BnCn(2)", BC2),
    ("GLn(3)", (("s1", 4),)),
]


def ref_spherical(ps, action, t):
    """``pair(1, m·1) / p0`` from the full action on the finite basis."""
    ones = [1] * ps.dim
    m = ps.laplace_matrix(action, t)
    assert len(m[0]) == ps.dim
    return ps.pair(ones, mat_vec(m, ones)) / ps._p0_val


def spherical_cases(ps):
    """Cleared spherical elements at the three lowest dominant points, and a
    non-invariant element, each with its full |W0|-column action."""
    rank = ps.datum.rank
    xs = [
        x for x in sorted(itertools.product(range(3), repeat=rank), key=lambda x: (sum(x), x))
        if is_dominant(ps.datum, x)
    ][:3]
    elems = [(x, ps.theta_plus_cleared(x)) for x in xs] + [(None, sample_element(ps))]
    return [(x, h, ps.symbolic_action(h)) for x, h in elems]


@pytest.mark.parametrize("name,items", SPHERICAL_DATA)
def test_spherical_from_one_vector_matches_the_full_action(name, items):
    ps = series(name, items)
    p0sq = ps._p0_val ** 2
    cases = spherical_cases(ps)
    for x, h, action in cases:
        for seed in (0, 1, 2):
            t = ps.seeded_point(seed)
            want = ref_spherical(ps, action, t)
            assert ps.spherical(t, h) == want, (x, seed)
            if x is not None:
                assert ps.spherical_theta_plus(t, x) == want / p0sq, (x, seed)
    # complex points and float labels (no label class has a rational root);
    # the symbolic actions do not depend on the labels, so they are reused
    qs = {g: (2, 3, 5)[c] for g, c in zip(ps.weyl.generator_names, ps.labels.gen_class)}
    psc = PrincipalModel(ps.bernstein, ps.labels.numeric_assignment(qs, "complex"))
    for x, h, action in cases:
        for seed in (0, 1):
            t = psc.seeded_point(seed, mode="complex")
            assert abs(psc.spherical(t, h) - ref_spherical(psc, action, t)) < 1e-8, (x, seed)


def test_plus_idempotent_is_fixed_by_normalised_intertwiners():
    ps = series("A1-weight", A1Q4)
    t = TorusPoint((Fraction(2, 3),))
    t0 = [1 / ps._p0_val] * ps.dim
    for u in ps.basis_order:
        assert ps.h0_product(t0, ps.r0_vector(u, t)) == t0
    # and is recovered from the c-weighted sum of normalised vectors
    qw0 = q_w0_value(ps.trace)
    acc = [0, 0]
    for u in ps.basis_order:
        cw = ps.trace.c_full(t.apply_w(ps.weyl, u))
        acc = [a + cw * b for a, b in zip(acc, ps.r0_vector(u, t))]
    assert [qw0 / ps._p0_val * a for a in acc] == t0


def test_plus_element_three_expressions_agree():
    ps = series("A2", A2Q4)
    for x in [(0, 0), (1, 1), (2, 1), (1, 2)]:
        l1, l2, l3 = ps.theta_plus_lines(x)
        assert l1 == l2 == l3, x


def test_cleared_inner_products():
    ps = series("A1-weight", A1Q4)
    L = ps.labels
    q = L.q_of_gen(0)
    one = L.one()
    assert ps.inner_plus((1,), (1,)) == q * (one + q) ** 2
    assert not ps.inner_plus((1,), (2,))
    for x in ((0,), (1,), (2,)):
        for y in ((0,), (1,), (2,)):
            assert ps.inner_plus(x, y) == ps.inner_plus_target(x, y)


def test_theta_plus_requires_dominant_input():
    ps = series("A2", A2Q4)
    with pytest.raises(ValueError):
        ps.theta_plus_cleared((-1, 0))


# -- the truncated series check ----------------------------------------------


def test_eisenstein_gap_shrinks():
    ps = series("A1-weight", A1Q4, mode="complex")
    t = TorusPoint((10**-0.5,))
    h = ps.hecke.basis(ps.weyl.simple_affine(0))
    act = ps.symbolic_action(h)
    _, _, wide = ps.eisenstein_check(t, h, 16, act)
    _, _, narrow = ps.eisenstein_check(t, h, 8, act)
    assert wide < narrow


def test_eisenstein_with_unit_reduces_to_the_generating_identity():
    ps = series("A1-weight", A1Q4, mode="complex")
    t = TorusPoint((10**-0.5,))
    qw0 = q_w0_value(ps.trace)
    unit = ps.hecke.unit()
    lhs, rhs, _ = ps.eisenstein_check(t, unit, 30, ps.symbolic_action(unit))
    glhs, grhs, _ = generating_check(ps.trace, t, 30)
    factor = ps.n_w_value(ps.longest, t) * ps.n_w_value(ps.longest, t.inv())
    alt = (
        qw0**2
        * ps.delta_w_value(ps.longest, t)
        * ps.delta_w_value(ps.longest, t.inv())
        * ps.trace.c_full(t)
        * ps.trace.c_full(t.inv())
    )
    assert abs(factor - alt) < 1e-9 * abs(factor)
    assert abs(lhs - factor * glhs) < 1e-9 * abs(factor)
    assert abs(rhs - factor * grhs) < 1e-9 * abs(factor)


# -- guard rails -------------------------------------------------------------


def test_seeded_points_are_deterministic_and_admissible():
    ps = series("A2", A2Q4)
    t1 = ps.seeded_point(1)
    assert t1.images == ps.seeded_point(1).images
    assert t1.images == (Fraction(3, 5), Fraction(-1, 4))
    assert ps.seeded_point(2).images == (Fraction(1, 2), Fraction(6, 5))
    tc = ps.seeded_point(1, mode="complex")
    assert all(isinstance(v, complex) for v in tc.images)


def test_formal_labels_refuse_numeric_work():
    ps = series("A2")
    action = ps.symbolic_action(ps.hecke.unit())
    with pytest.raises(ModeError):
        ps.laplace_matrix(action, TorusPoint((Fraction(1, 2), Fraction(1, 3))))


def test_theta_plus_needs_exact_arithmetic():
    # q = 2 has no exact square root, so the assignment falls back to floats
    ps = series("A2", (("s1", 2),), mode="complex")
    with pytest.raises(ModeError):
        ps.theta_plus((1, 1))


def test_n_value_reads_its_label_values_once_per_root(monkeypatch):
    # seeded_point asks n_value and c_full at every orbit point of every
    # candidate; their label values depend on the root only, and both read
    # them from one table
    base = series("BnCn(2)", BC2)
    ps = PrincipalSeries(base.bernstein, base.assignment)  # its own memo
    calls = []
    evaluate = LaurentPoly.evaluate
    monkeypatch.setattr(
        LaurentPoly, "evaluate", lambda poly, values: calls.append(poly) or evaluate(poly, values)
    )
    for seed in range(3):
        ps.seeded_point(seed)
    table = ps.trace._label_values
    assert {ps._n_root(beta)[0] for beta in ps._r1_pos} <= table.keys()
    assert len(calls) == 3 * len(table)


def test_one_orbit_walk_serves_the_seeded_point_and_the_formula(monkeypatch):
    # the bench's spherical point: the admissibility check forms w t and
    # c(w t) once per element of W0 (and c at the inverse points), and the
    # c-function formula at that point reads the same walk
    base = series("B2", (("s1", 4), ("s2", 9)))
    ps = PrincipalSeries(base.bernstein, base.assignment)  # its own slot
    calls = Counter()
    for cls, name in ((TraceGen, "c_full"), (TorusPoint, "apply_w")):
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *a, m=method, n=name: calls.update([n]) or m(*a))
    t = ps.seeded_point(0)
    for x in coordinate_box(2, 0, 2):
        if is_dominant(ps.datum, x):
            ps.macdonald_value(t, x)
    assert calls == {"c_full": 16, "apply_w": 8}


def test_normalised_vector_raises_at_a_pole():
    ps = series("A1-weight", A1Q4)
    singular = TorusPoint((Fraction(2),))  # t(alpha) = q kills the factor
    assert ps.n_value((2,), singular) == 0
    with pytest.raises(PoleError):
        ps.r0_vector(ps.longest, singular)


def memo_entries(ps):
    """The entries each container attribute of ``ps`` holds: the size of a
    dict or a set, the filled slots of a list."""
    out = {}
    for name, value in vars(ps).items():
        if isinstance(value, (dict, set)):
            out[name] = len(value)
        elif isinstance(value, list):
            out[name] = sum(v is not None for v in value)
    return out


def test_no_memo_grows_with_the_points_asked():
    base = series("B2", (("s1", 4), ("s2", 9), ("s0", 9)))
    ps = PrincipalModel(base.bernstein, base.assignment)
    u = ps.basis_order[1]

    def ask(t, x):
        ps.spherical_theta_plus(t, x)
        ps.r_vector(ps.longest, t)
        ps.bra_vector(u, t)

    ask(ps.seeded_point(0), (1, 1))
    before = memo_entries(ps)
    for seed in range(1, 10):
        ask(ps.seeded_point(seed), (1, 1))
    ps.spherical_theta_plus(ps.seeded_point(0), (2, 1))
    assert memo_entries(ps) == before
