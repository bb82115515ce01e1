"""Laurent-polynomial arithmetic and the label classes of each preset."""

import itertools
import json
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affinehecke import (
    ExactDivisionError,
    LabelConfigError,
    LaurentPoly,
    build_preset,
    exact_divide,
)
from affinehecke.coeffring import (
    MAX_EXP,
    ExponentOverflowError,
    LabelSet,
    accumulate,
    obj_to_poly,
    poly_to_obj,
    power_table,
)
from affinehecke.rootdata import is_dominant, vneg
from affinehecke.weyl import AffineWeyl

from xi_form import to_xi

VARS = ("u", "v")


@lru_cache(maxsize=None)
def labels(name):
    return LabelSet(AffineWeyl(build_preset(name)))


def polys(max_terms=4, max_exp=3, denom=4):
    exps = st.tuples(
        st.integers(-max_exp, max_exp), st.integers(-max_exp, max_exp)
    )
    coeff = st.fractions(
        min_value=-5, max_value=5, max_denominator=denom
    )
    return st.dictionaries(exps, coeff, max_size=max_terms).map(
        lambda d: LaurentPoly(VARS, d)
    )


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    zero = LaurentPoly.zero(VARS)
    one = LaurentPoly.one(VARS)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert a - a == zero
    assert a * zero == zero


@given(polys())
def test_power_matches_repeated_product(a):
    assert a**0 == LaurentPoly.one(VARS)
    assert a**1 == a
    assert a**3 == a * a * a


def test_monomial_inverse():
    m = LaurentPoly.monomial(VARS, (2, -1), Fraction(3, 4))
    assert m * m.inverse() == LaurentPoly.one(VARS)
    two_terms = m + LaurentPoly.one(VARS)
    with pytest.raises(ValueError):
        two_terms.inverse()


@given(polys(), polys())
def test_exact_divide_recovers_factor(a, b):
    if not b:
        return
    assert exact_divide(a * b, b) == a


def test_exact_divide_rejects_nondivisible():
    one = LaurentPoly.one(VARS)
    v = LaurentPoly.monomial(VARS, (0, 1))
    with pytest.raises(ExactDivisionError):
        exact_divide(one, one + v)
    # dividing by a monomial always works in the Laurent ring
    assert exact_divide(one + v, v) == v.inverse() + one


def test_evaluate_rational_and_complex():
    p = LaurentPoly(VARS, {(2, 0): Fraction(1), (0, -1): Fraction(1, 2)})
    assert p.evaluate({"u": Fraction(3), "v": Fraction(1, 2)}) == Fraction(10)
    val = p.evaluate({"u": 2.0, "v": 1.0 + 0j})
    assert abs(val - 4.5) < 1e-12


def test_evaluate_does_not_depend_on_the_order_terms_were_built():
    # at u = v = 1e16 the float sum u + 1 - v is 0 or 1 depending on the
    # order of its terms; equal polynomials must evaluate bit-identically
    u, v, one = (LaurentPoly.monomial(VARS, e) for e in [(1, 0), (0, 1), (0, 0)])
    p = (u + one) - v
    q = (u - v) + one
    assert p == q and list(p.terms) != list(q.terms)
    for big in (1e16, complex(1e16, 0.0), complex(1e16, 1e16)):
        at = {"u": big, "v": big}
        assert repr(p.evaluate(at)) == repr(q.evaluate(at))
        assert type(p.evaluate(at)) is type(big)


@given(
    st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=9)).filter(bool),
    st.integers(-6, 6),
    st.integers(0, 6),
)
def test_power_table_is_exact_over_its_denominator(value, lo, width):
    hi = lo + width
    table, den = power_table(value, lo, hi)
    assert len(table) == width + 1
    assert all(type(v) is int for v in table)
    assert [Fraction(v) / den for v in table] == [Fraction(value) ** e for e in range(lo, hi + 1)]


def test_power_table_of_a_float_or_complex_is_plain_powers():
    assert power_table(1.5, -1, 1) == ([1.5**-1, 1.0, 1.5], 1)
    z = 0.5 + 1j
    assert power_table(z, 0, 2) == ([1, z, z * z], 1)


def test_sorted_terms_are_canonical():
    p = LaurentPoly(VARS, {(1, 0): Fraction(2), (0, 1): Fraction(-1)})
    assert p.sorted_terms() == [((0, 1), Fraction(-1)), ((1, 0), Fraction(2))]
    # zero coefficients are dropped on construction
    q = LaurentPoly(VARS, {(5, 5): Fraction(0)})
    assert not q


# -- the packed ring against a tuple-keyed reference ------------------------


class RefPoly:
    """Reference Laurent ring: exponent tuples to Fractions, nothing packed."""

    def __init__(self, terms):
        self.terms = {e: Fraction(c) for e, c in terms.items() if c}

    def __eq__(self, other):
        return self.terms == other.terms

    def __repr__(self):
        return f"RefPoly({self.sorted_terms()})"

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return RefPoly(out)

    def __neg__(self):
        return RefPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return RefPoly(out)

    def inverse(self):
        ((e, c),) = self.terms.items()
        return RefPoly({tuple(-x for x in e): 1 / c})

    def power(self, k, n):
        base = self.inverse() if k < 0 else self
        out = RefPoly({(0,) * n: 1})
        for _ in range(abs(k)):
            out = out * base
        return out

    def sorted_terms(self):
        return sorted(self.terms.items())

    def evaluate(self, values):
        total = Fraction(0)
        for e, c in self.terms.items():
            for x, k in zip(values, e):
                c *= x**k
            total += c
        return total

    def exact_divide(self, other, n):
        """Clear both to polynomials, then divide in lexicographic order."""
        def clear(p):
            low = tuple(min(e[i] for e in p.terms) for i in range(n))
            return low, {tuple(a - s for a, s in zip(e, low)): c for e, c in p.terms.items()}

        sf, rem = clear(self)
        sg, div = clear(other)
        glead = max(div)
        quot = {}
        while rem:
            flead = max(rem)
            exp = tuple(a - b for a, b in zip(flead, glead))
            if any(x < 0 for x in exp):
                raise ExactDivisionError("not divisible")
            c = rem[flead] / div[glead]
            quot[exp] = c
            for ge, gc in div.items():
                key = tuple(a + b for a, b in zip(ge, exp))
                rem[key] = rem.get(key, 0) - c * gc
                if not rem[key]:
                    del rem[key]
        shift = tuple(a - b for a, b in zip(sf, sg))
        return RefPoly({tuple(a + b for a, b in zip(e, shift)): c for e, c in quot.items()})


NAMES = ("x", "y", "z")
SMALL = st.integers(-4, 4)
NEAR_EDGE = st.one_of(
    st.integers(MAX_EXP - 2, MAX_EXP), st.integers(-MAX_EXP, -MAX_EXP + 2), SMALL
)
COEFF = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def ring_dicts(draw, count, exps=SMALL, max_terms=5):
    """``count`` tuple-keyed term dicts over 1 to 3 variables."""
    n = draw(st.integers(1, 3))
    exp = st.tuples(*[exps] * n)
    return n, [draw(st.dictionaries(exp, COEFF, max_size=max_terms)) for _ in range(count)]


def both(n, d):
    return LaurentPoly(NAMES[:n], d), RefPoly(d)


def as_ref(p):
    return RefPoly(dict(p.sorted_terms()))


@given(ring_dicts(3), st.data())
def test_packed_ring_matches_reference(drawn, data):
    n, (da, db, dm) = drawn
    (a, ra), (b, rb) = both(n, da), both(n, db)
    assert as_ref(a + b) == ra + rb
    assert as_ref(a - b) == ra - rb
    assert as_ref(-a) == -ra
    assert as_ref(a * b) == ra * rb
    assert as_ref(a * 3) == ra * RefPoly({(0,) * n: 3})
    # a one-term factor is a shift of every key, on either side
    mono = data.draw(st.tuples(*[SMALL] * n))
    coeff = data.draw(COEFF.filter(bool))
    m, rm = both(n, {mono: coeff})
    assert as_ref(a * m) == ra * rm
    assert as_ref(m * a) == ra * rm
    # the generator step's c*q - c and c*q^-1 - c against c*(q - 1), c*(q^-1 - 1)
    var = data.draw(st.integers(0, n - 1))
    q = LaurentPoly.monomial(NAMES[:n], tuple(2 if i == var else 0 for i in range(n)))
    one = RefPoly({(0,) * n: 1})
    cq, cqi = a * q, a * q.inverse()
    assert as_ref(cq - a) == ra * (as_ref(q) - one)
    assert as_ref(cqi - a) == ra * (as_ref(q).inverse() - one)
    assert cq - a == a * (q - LaurentPoly.one(NAMES[:n]))


@given(ring_dicts(2, max_terms=3), st.integers(-3, 3), st.tuples(SMALL, SMALL, SMALL))
def test_powers_and_inverses_match_reference(drawn, k, mono):
    n, (da, _) = drawn
    a, ra = both(n, da)
    if k >= 0:
        assert as_ref(a**k) == ra.power(k, n)
    m, rm = both(n, {mono[:n]: Fraction(-2, 3)})
    assert as_ref(m**k) == rm.power(k, n)
    assert as_ref(m.inverse()) == rm.inverse()
    assert m * m.inverse() == LaurentPoly.one(NAMES[:n])


@given(ring_dicts(1, exps=NEAR_EDGE))
def test_views_match_reference(drawn):
    n, (d,) = drawn
    p, rp = both(n, d)
    assert p.sorted_terms() == rp.sorted_terms()
    obj = poly_to_obj(p)
    assert [tuple(t["exp"]) for t in obj["terms"]] == [e for e, _ in rp.sorted_terms()]
    assert obj_to_poly(json.loads(json.dumps(obj))) == p
    # constant: no term off the zero exponent, whose packed key is 0
    assert (set(p.terms) <= {0}) == (set(rp.terms) <= {(0,) * n})


@given(
    ring_dicts(1),
    st.lists(st.sampled_from([Fraction(1, 2), Fraction(-2), Fraction(3), Fraction(-5, 3)]),
             min_size=3, max_size=3),
)
def test_evaluation_matches_reference(drawn, values):
    n, (d,) = drawn
    p, rp = both(n, d)
    assert p.evaluate(dict(zip(NAMES, values))) == rp.evaluate(values[:n])


@given(ring_dicts(3, max_terms=4))
def test_exact_divide_matches_reference(drawn):
    n, (da, db, dc) = drawn
    (a, ra), (b, rb), (c, rc) = both(n, da), both(n, db), both(n, dc)
    if not b:
        return
    assert as_ref(exact_divide(a * b, b)) == ra
    # an arbitrary pair: both rings divide to the same quotient or both refuse
    try:
        want = rc.exact_divide(rb, n) if rc.terms else RefPoly({})
    except ExactDivisionError:
        with pytest.raises(ExactDivisionError):
            exact_divide(c, b)
    else:
        assert as_ref(exact_divide(c, b)) == want


@given(ring_dicts(2, exps=NEAR_EDGE, max_terms=3))
def test_products_near_the_field_edge_raise_or_agree(drawn):
    n, (da, db) = drawn
    (a, ra), (b, rb) = both(n, da), both(n, db)
    try:
        got = a * b
    except ExponentOverflowError:
        return
    assert as_ref(got) == ra * rb


def test_exponent_past_the_field_raises():
    big = LaurentPoly.monomial(VARS, (MAX_EXP, 0))
    one = LaurentPoly.one(VARS)
    with pytest.raises(ExponentOverflowError):
        big * big
    with pytest.raises(ExponentOverflowError):
        (big + one) * big
    with pytest.raises(ExponentOverflowError):
        big**2
    with pytest.raises(ExponentOverflowError):
        LaurentPoly.monomial(VARS, (0, -MAX_EXP - 1))
    with pytest.raises(ExponentOverflowError):
        # the quotient u^(-2 MAX_EXP) has no field to live in
        exact_divide(big.inverse(), big)
    with pytest.raises(ValueError):
        LaurentPoly(VARS, {(1, 2, 3): 1})
    # dividing u^20 + 1 by u + v^2000 pushes the remainder's v exponent up by
    # 2000 a step; it is refused before it reaches the edge of the field
    u = LaurentPoly.monomial(VARS, (1, 0))
    v2000 = LaurentPoly.monomial(VARS, (0, 2000))
    with pytest.raises(ExponentOverflowError):
        exact_divide(u**20 + one, u + v2000)
    # a stored bound may overstate the exponents: it is made exact before a
    # product is refused
    flat = (big + one) - big
    assert flat == one and flat.bound == MAX_EXP
    assert flat * big == big
    assert flat.bound == 0


# -- label classes -----------------------------------------------------------

EXPECTED_CLASSES = {
    "A1-weight": {"s1": "v1", "s0": "v1"},
    "A1-root": {"s1": "v1", "s0": "v0"},
    "A2": {"s1": "v1", "s2": "v1", "s0": "v1"},
    "B2": {"s1": "v1", "s2": "v2", "s0": "v2"},
    "C2": {"s1": "v1", "s2": "v2", "s0": "v1"},
    "G2": {"s1": "v1", "s2": "v2", "s0": "v1"},
    "BnCn(2)": {"s1": "v1", "s2": "v2", "s0": "v0"},
    "BnCn(3)": {"s1": "v1", "s2": "v1", "s3": "v3", "s0": "v0"},
    "GLn(2)": {"s1": "v1", "s0": "v1"},
    "GLn(3)": {"s1": "v1", "s2": "v1", "s0": "v1"},
}


@pytest.mark.parametrize("name", sorted(EXPECTED_CLASSES))
def test_generator_classes(name):
    L = labels(name)
    names = L.weyl.generator_names
    assert {g: L.vars[c] for g, c in zip(names, L.gen_class)} == EXPECTED_CLASSES[name]


# a coroot divisible by 2 -> (class labelling its even levels, class
# labelling its odd levels); the other coroots of its orbit follow it
CROSSED_LEVELS = {
    "A1-weight": {},
    "B2": {},
    "A1-root": {(2,): (1, 0)},
    "BnCn(2)": {(0, 2): (2, 1)},
    "BnCn(3)": {(0, 0, 2): (2, 1)},
}


def test_crossed_level_labels():
    # only the data with a coroot divisible by 2 carry the level swap
    for name, crossed in CROSSED_LEVELS.items():
        L = labels(name)
        swaps = {L.orbit_id[c]: classes for c, classes in crossed.items()}
        for coroot, orbit in L.orbit_id.items():
            even = L.affine_label_class(coroot, 0)
            odd = L.affine_label_class(coroot, 1)
            if orbit in swaps:
                assert (even, odd) == swaps[orbit], (name, coroot)
            else:
                assert even == odd, (name, coroot)


def test_affine_label_swaps_parity():
    # on an orbit whose coroots are divisible by 2, even and odd levels are
    # labelled by crossed classes: the even level borrows the class of the
    # odd-level generator and vice versa
    L = labels("BnCn(2)")
    doubled = (0, 2)  # coroot of the short simple root, divisible by 2
    # even levels take the class of s0 (v0), odd levels that of s2 (v2)
    assert L.vars == ("v1", "v2", "v0")
    assert L.affine_label_class(doubled, 0) == 2
    assert L.affine_label_class(doubled, 1) == 1
    even = L.affine_label_half_exps(doubled, 0)
    odd = L.affine_label_half_exps(doubled, 1)
    assert even != odd
    # each label is the square of a single variable
    assert sorted(even) == sorted(odd) == [0] * (len(L.vars) - 1) + [1]
    # a coroot not divisible by 2 ignores the level entirely
    plain = (1, -1)
    assert L.affine_label_class(plain, 0) == L.affine_label_class(plain, 5)


def test_q_of_gen_is_squared_variable():
    L = labels("BnCn(2)")
    for j, name in enumerate(["s1", "s2", "s0"]):
        q = L.q_of_gen(j)
        v = LaurentPoly.monomial(L.vars, tuple(int(c == L.gen_class[j]) for c in range(len(L.vars))))
        assert q == v * v


def test_q_of_w_multiplies_along_reduced_words():
    L = labels("B2")
    w = L.weyl
    for word in [(0, 1), (1, 0, 1), (2, 1, 0), (0, 1, 2, 1)]:
        g = w.identity
        ok = True
        for i in word:
            g2, down = w.gen_step(g, i)
            if down:
                ok = False
                break
            g = g2
        if not ok:
            continue
        assert L.q_of_w(g) == L.q_of_word(word)


def test_q_of_w_is_conjugation_invariant_under_omega():
    # the label of a generator equals the label of its length-zero conjugate
    L = labels("A1-weight")
    w = L.weyl
    om = [g for g in w.omega_elements() if g != w.identity][0]
    s1 = w.simple_affine(0)
    conj = w.multiply(w.multiply(om, s1), w.inverse(om))
    assert w.length(conj) == 1
    assert L.q_of_w(conj) == L.q_of_w(s1)


def test_poincare_a1_and_a2():
    La = labels("A1-weight")
    q = La.q_of_gen(0)
    assert La.poincare(La.weyl.enumerate_w0()) == La.one() + q
    L2 = labels("A2")
    q2 = L2.q_of_gen(0)
    expect = L2.one() + 2 * q2 + 2 * q2 * q2 + q2**3
    assert L2.poincare(L2.weyl.enumerate_w0()) == expect


def test_delta_sqrt_is_multiplicative():
    L = labels("BnCn(2)")
    for x in [(1, 0), (0, 1), (2, -1)]:
        for y in [(1, 1), (-1, 2)]:
            xs = L.delta_sqrt(x)
            ys = L.delta_sqrt(y)
            xy = L.delta_sqrt(tuple(a + b for a, b in zip(x, y)))
            assert xs * ys == xy
        assert L.delta_sqrt(x) * L.delta_sqrt(vneg(x)) == L.one()


PRESETS = ("A1-weight", "A1-root", "A2", "B2", "C2", "G2", "BnCn(2)", "GLn(2)", "GLn(3)")


@pytest.mark.parametrize("name", PRESETS + ("BnCn(3)",))
def test_delta_sqrt_of_a_dominant_point_is_v_of_its_translations(name):
    # delta^{1/2}(y) = v(t_y) = v(t_{-y}) for dominant y: the trace sweep
    # reads tau(theta_x) on the normalised basis with no label factor
    L = labels(name)
    w = L.weyl
    ys = [y for y in itertools.product(range(-2, 3), repeat=w.rank) if is_dominant(w.datum, y)]
    assert len(ys) > 1
    for y in ys:
        q = L.delta_sqrt(y) ** 2
        assert q == L.q_of_w(w.translation(y)) == L.q_of_w(w.translation(vneg(y))), y


def root_label(L, root):
    """``q_{root^vee}`` read off the half-exponents; 1 off the extension."""
    e = L.root_label_half_exps(root)
    return L.one() if e is None else LaurentPoly.monomial(L.vars, tuple(2 * x for x in e))


@pytest.mark.parametrize("name", PRESETS)
def test_c_pair_recovers_the_root_labels(name):
    L = labels(name)
    nonreduced = {r for r, _ in L.weyl.derived.nonreduced_positive}
    for root in nonreduced:
        a, b = L.c_pair(root)
        two = tuple(2 * v for v in root)
        assert root_label(L, root) != L.one()
        assert a.inverse() * b == root_label(L, root)
        assert b ** -2 == root_label(L, two)
        if two not in nonreduced:
            assert b == L.one()


def test_numeric_assignment_rational():
    L = labels("BnCn(2)")
    asg = L.numeric_assignment({"s1": 4, "s2": 9, "s0": 25}, "rational")
    assert asg["v1"] == Fraction(2)
    assert asg["v2"] == Fraction(3)
    assert asg["v0"] == Fraction(5)


def test_numeric_assignment_accepts_strings_and_fractions():
    L = labels("A2")
    asg = L.numeric_assignment({"s1": "9/4", "s2": Fraction(9, 4), "s0": 2.25}, "rational")
    assert asg["v1"] == Fraction(3, 2)


def test_numeric_assignment_one_generator_covers_its_class():
    # every generator of A2 lies in a single class, so one value suffices
    asg = labels("A2").numeric_assignment({"s1": 4}, "rational")
    assert asg == {"v1": Fraction(2)}


def test_numeric_assignment_errors():
    L = labels("A2")
    with pytest.raises(LabelConfigError):
        # the two-class datum needs both classes covered
        labels("B2").numeric_assignment({"s1": 4}, "rational")
    with pytest.raises(LabelConfigError):
        # conjugate generators must share a value
        L.numeric_assignment({"s1": 4, "s2": 9, "s0": 4}, "rational")
    with pytest.raises(LabelConfigError):
        L.numeric_assignment({"s1": -4, "s2": -4, "s0": -4}, "rational")
    with pytest.raises(LabelConfigError):
        # 2 is not a perfect square of a rational
        L.numeric_assignment({"s1": 2, "s2": 2, "s0": 2}, "rational")
    with pytest.raises(LabelConfigError):
        L.numeric_assignment({"s1": "nonsense", "s2": 4, "s0": 4}, "rational")
    with pytest.raises(LabelConfigError):
        L.numeric_assignment({"sX": 4}, "rational")
    with pytest.raises(LabelConfigError):
        L.numeric_assignment({"s1": 4, "s2": 4, "s0": 4}, "euclidean")
    # complex mode takes non-square values
    asg = L.numeric_assignment({"s1": 2, "s2": 2, "s0": 2}, "complex")
    assert abs(asg["v1"] ** 2 - 2) < 1e-12


def test_accumulate_adds_in_place_and_drops_a_cancelled_key():
    p = LaurentPoly(VARS, {(1, 0): 2, (0, -1): 1})
    out = {"k": p}
    accumulate(out, "k", p)
    assert out == {"k": p * 2}
    accumulate(out, "k", p * -2)
    assert out == {}
    accumulate(out, "z", p - p)  # a zero summand stores nothing
    assert out == {}


# -- the xi form of the normalised basis ---------------------------------------


@given(
    st.sampled_from(("A2", "B2", "BnCn(2)")),  # one, two and three label classes
    st.data(),
)
def test_to_xi_inverts_from_xi(name, data):
    L = labels(name)
    exps = st.tuples(*[st.integers(0, 5)] * len(L.xi_vars))
    c = LaurentPoly(L.xi_vars, data.draw(st.dictionaries(exps, st.integers(1, 9), max_size=6)))
    assert to_xi(L, L.from_xi(c)) == c


def test_to_xi_refuses_what_is_not_in_z_xi():
    L = labels("BnCn(2)")
    v1 = LaurentPoly.monomial(L.vars, (1, 0, 0))
    with pytest.raises(ValueError):
        to_xi(L, v1)
    with pytest.raises(ValueError):
        to_xi(L, v1 + v1.inverse())  # xi + 2/v
    with pytest.raises(ValueError):
        to_xi(L, LaurentPoly.const(L.vars, Fraction(1, 2)))
