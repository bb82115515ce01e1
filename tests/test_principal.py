"""Finite-dimensional model at a torus point: intertwiners, matrix elements,
the spherical function, and the truncated series check."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinehecke import PoleError, build_preset
from affinehecke.bernstein import Bernstein
from affinehecke.coeffring import LabelSet, LaurentPoly
from affinehecke.hecke import HeckeAlgebra
from affinehecke.principal import ModeError, PrincipalSeries, mat_vec
from affinehecke.rootdata import is_dominant, solve
from affinehecke.tracegen import TorusPoint
from affinehecke.weyl import AffineWeyl


@lru_cache(maxsize=None)
def series(name, items=None, mode="rational"):
    w = AffineWeyl(build_preset(name))
    L = LabelSet(w)
    H = HeckeAlgebra(w, L)
    B = Bernstein(H)
    asg = L.numeric_assignment(dict(items), mode) if items else None
    return PrincipalSeries(B, asg)


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
    assert ps.p0_value() == Fraction(105)
    t = ps.seeded_point(0)
    ident = ps.laplace(ps.hecke.unit(), t)
    assert ident == [
        [1 if i == j else 0 for j in range(ps.dim)] for i in range(ps.dim)
    ]


def test_laplace_is_an_algebra_homomorphism():
    ps = series("A2", A2Q4)
    H = ps.hecke
    t = ps.seeded_point(1)
    a = sample_element(ps)
    b = H.sub(H.basis(ps.weyl.simple_affine(2)), H.scale(H.unit(), LaurentPoly.const(ps.labels.vars, 2)))
    assert ps.laplace(H.mul(a, b), t) == mat_mul(ps.laplace(a, t), ps.laplace(b, t))


def test_laplace_satisfies_the_quadratic_relation():
    ps = series("BnCn(2)", BC2)
    H = ps.hecke
    t = ps.seeded_point(3)
    for i in range(2):
        m = ps.laplace(H.basis(ps.weyl.simple_affine(i)), t)
        q = ps._val(ps.labels.q_of_gen(i))
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
    p = num.labels.q_of_gen(0) + LaurentPoly.const(num.labels.vars, 3)
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
    assert prod == [ps.d_w_value(s, t), 0]
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
    qw0 = ps.trace.q_w0_value()
    for u in ps.basis_order:
        for v in ps.basis_order:
            val = ps.pair(ps.bra_vector(u, t), ps.r_vector(v, t))
            if u == v:
                assert val == qw0 * ps.delta_value(t.apply_w(w, v))
            else:
                assert val == 0


def test_matrix_element_of_unit_with_doubled_labels():
    ps = series("BnCn(2)", BC2)
    w = ps.weyl
    t = ps.seeded_point(2)
    qw0 = ps.trace.q_w0_value()
    unit = ps.symbolic_action(ps.hecke.unit())
    for u in ps.basis_order[:3]:
        for v in ps.basis_order:
            val = ps.matrix_element(u, v, t, unit)
            if u == v:
                assert val == qw0 * ps.delta_value(t.apply_w(w, u))
            else:
                assert val == 0


def test_character_as_weighted_diagonal_sum():
    ps = series("A2", A2Q4)
    w = ps.weyl
    t = ps.seeded_point(4)
    h = sample_element(ps)
    act = ps.symbolic_action(h)
    qw0 = ps.trace.q_w0_value()
    character = mat_trace(ps.laplace_matrix(act, t))
    by_elements = (
        sum(
            ps.matrix_element(u, u, t, act)
            / ps.delta_value(t.apply_w(w, u))
            for u in ps.basis_order
        )
        / qw0
    )
    assert character == by_elements
    by_shifts = (
        sum(
            ps.E_value(t.apply_w(w, u), act)
            / ps.delta_value(t.apply_w(w, u))
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
        lhs = mat_trace(mat_mul(comp, ps.laplace(h, ut)))
        rhs = ps.d_w_value(u, t) * mat_trace(mat_mul(psi, ps.laplace(h, t)))
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
        qi = ps._val(ps.labels.q_of_gen(i))
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
    ps = PrincipalSeries(base.bernstein, base.labels.numeric_assignment(qs, "rational"))
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
        tb = t.conj().inv()
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
        moved = t.conj().inv().apply_w(w, u)
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
    tb = t.conj().inv()
    x = sample_element(ps)
    mx = ps.laplace(x, t)
    mxs = ps.laplace(H.star(x), tb)
    y = [0.3 + 0.1j, -0.7 + 0.4j]
    z = [1.1 - 0.2j, 0.5 + 0.9j]
    assert abs(ps.pair(mat_vec(mxs, y), z) - ps.pair(y, mat_vec(mx, z))) < 1e-9


# -- the spherical function --------------------------------------------------


def test_spherical_is_normalised():
    for name, items in (("A2", A2Q4), ("BnCn(2)", BC2)):
        ps = series(name, items)
        t = ps.seeded_point(0)
        assert ps.spherical(t, h=ps.hecke.unit()) == 1


def test_macdonald_formula_exact_on_samples():
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
        return ps.trace.q_w0_value() * total / ps.p0_value()

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
    p0 = ps.p0_value()
    qw0 = ps.trace.q_w0_value()
    h = sample_element(ps)
    mid = H.mul(H.mul(sym, h), sym)
    lhs = ps.E_value(t, ps.symbolic_action(mid)) / (p0 * p0)
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
    return ps.pair(ones, mat_vec(m, ones)) / ps.p0_value()


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
    p0sq = ps.p0_value() ** 2
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
    psc = PrincipalSeries(ps.bernstein, ps.labels.numeric_assignment(qs, "complex"))
    for x, h, action in cases:
        for seed in (0, 1):
            t = psc.seeded_point(seed, mode="complex")
            assert abs(psc.spherical(t, h) - ref_spherical(psc, action, t)) < 1e-8, (x, seed)


def test_plus_idempotent_is_fixed_by_normalised_intertwiners():
    ps = series("A1-weight", A1Q4)
    t = TorusPoint((Fraction(2, 3),))
    t0 = ps.t0_plus_vector()
    for u in ps.basis_order:
        assert ps.h0_product(t0, ps.r0_vector(u, t)) == t0
    # and is recovered from the c-weighted sum of normalised vectors
    qw0 = ps.trace.q_w0_value()
    acc = [0, 0]
    for u in ps.basis_order:
        cw = ps.trace.c_full(t.apply_w(ps.weyl, u))
        acc = [a + cw * b for a, b in zip(acc, ps.r0_vector(u, t))]
    assert [qw0 / ps.p0_value() * a for a in acc] == t0


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
    qw0 = ps.trace.q_w0_value()
    unit = ps.hecke.unit()
    lhs, rhs, _ = ps.eisenstein_check(t, unit, 30, ps.symbolic_action(unit))
    glhs, grhs, _ = ps.trace.generating_check(t, 30)
    factor = ps.d_w_value(ps.longest, t)
    alt = (
        qw0**2
        * ps.delta_value(t)
        * ps.delta_value(t.inv())
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
    with pytest.raises(ModeError):
        ps.laplace(ps.hecke.unit(), TorusPoint((Fraction(1, 2), Fraction(1, 3))))


def test_theta_plus_needs_exact_arithmetic():
    # q = 2 has no exact square root, so the assignment falls back to floats
    ps = series("A2", (("s1", 2),), mode="complex")
    with pytest.raises(ModeError):
        ps.theta_plus((1, 1))


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
    ps = PrincipalSeries(base.bernstein, base.assignment)
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
