"""T-basis multiplication, the star involution, the trace, and inversion."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinehecke import build_preset
from affinehecke.coeffring import MAX_EXP, ExponentOverflowError, LabelSet, LaurentPoly
from affinehecke.hecke import HeckeAlgebra, HeckeElem
from affinehecke import weyl as weyl_module
from affinehecke.weyl import AffineWeyl

from presets import NINE_PRESETS
from principal_model import elem, elem_inverse, elem_product, gid, tau_pair


@lru_cache(maxsize=None)
def algebra(name):
    w = AffineWeyl(build_preset(name))
    return HeckeAlgebra(w, LabelSet(w))


def word_strategy(name, max_len=4):
    H = algebra(name)
    return st.lists(
        st.integers(min_value=0, max_value=len(H.weyl.fundamental) - 1),
        max_size=max_len,
    )


def full_inverse(H, g):
    """T_g^{-1} on the T-basis: the untargeted inverse fold of the unit."""
    return H.rmul_basis(H.unit(), g, inverse=True)


def chain(H, word):
    """Product of one-letter basis elements along a word."""
    out = H.unit()
    for i in word:
        out = H.mul(out, H.basis(H.weyl.simple_affine(i)))
    return out


@pytest.mark.parametrize("name", ["A2", "BnCn(2)", "A1-root"])
def test_quadratic_relation(name):
    H = algebra(name)
    L = H.labels
    for i in range(len(H.weyl.fundamental)):
        t = H.basis(H.weyl.simple_affine(i))
        square = H.mul(t, t)
        q = L.q_of_gen(i)
        expect = H.add(H.scale(t, q - L.one()), H.scale(H.unit(), q))
        assert square == expect


@given(word_strategy("A2"), word_strategy("A2"), word_strategy("A2"))
@settings(deadline=None)
def test_associativity(u, v, w):
    H = algebra("A2")
    a, b, c = chain(H, u), chain(H, v), chain(H, w)
    assert H.mul(H.mul(a, b), c) == H.mul(a, H.mul(b, c))


def test_braid_words_agree():
    # both reduced words of the longest rank-2 braids give the same product
    H = algebra("A2")
    assert chain(H, [0, 1, 0]) == chain(H, [1, 0, 1])
    Hb = algebra("B2")
    assert chain(Hb, [0, 1, 0, 1]) == chain(Hb, [1, 0, 1, 0])
    assert chain(Hb, [1, 2, 1, 2]) == chain(Hb, [2, 1, 2, 1])


def test_product_of_ascending_chain_is_a_basis_element():
    H = algebra("BnCn(2)")
    w = H.weyl
    g = w.identity
    word = []
    for i in [0, 1, 2, 0, 1]:
        g2, down = w.gen_step(g, i)
        if down:
            continue
        g = g2
        word.append(i)
    assert chain(H, word) == H.basis(g)
    assert len(H.basis(g).terms) == 1


@given(word_strategy("BnCn(2)"), word_strategy("BnCn(2)"))
@settings(deadline=None)
def test_star_is_an_anti_involution(u, v):
    H = algebra("BnCn(2)")
    a, b = chain(H, u), chain(H, v)
    assert H.star(H.star(a)) == a
    assert H.star(H.mul(a, b)) == H.mul(H.star(b), H.star(a))


def test_star_sends_basis_to_inverse_basis():
    H = algebra("A2")
    w = H.weyl
    g = chain_elem = w.identity
    for i in [0, 1, 2]:
        chain_elem, _ = w.gen_step(chain_elem, i)
    starred = H.star(H.basis(chain_elem))
    assert starred == H.basis(gid(w, elem_inverse(w, elem(w, chain_elem))))


def test_tau_picks_the_identity_coefficient():
    H = algebra("A2")
    w = H.weyl
    assert H.tau(H.unit()) == H.labels.one()
    s = H.basis(w.simple_affine(0))
    assert not H.tau(s)
    seven = LaurentPoly.monomial(H.labels.vars, (0,) * len(H.labels.vars), 7)
    combo = H.add(H.scale(H.unit(), seven), s)
    assert H.tau(combo) == seven


@given(word_strategy("A2", max_len=3), word_strategy("A2", max_len=3))
@settings(deadline=None)
def test_tau_pair_matches_tau_of_product(u, v):
    H = algebra("A2")
    a, b = chain(H, u), chain(H, v)
    assert tau_pair(H, a, b) == H.tau(H.mul(a, b))


@given(word_strategy("BnCn(2)", max_len=3), word_strategy("BnCn(2)", max_len=3))
@settings(deadline=None)
def test_inner_matches_star_product(u, v):
    H = algebra("BnCn(2)")
    a, b = chain(H, u), chain(H, v)
    assert tau_pair(H, H.star(a), b) == H.tau(H.mul(H.star(a), b))


def test_orthogonality_of_basis_elements():
    H = algebra("A2")
    w = H.weyl
    elems = w.elements_up_to_length(2)
    for g in elems:
        for h in elems:
            val = tau_pair(H, H.star(H.basis(g)), H.basis(h))
            if g == h:
                assert val == H.labels.q_of_w(g)
            else:
                assert not val


def test_invert_basis():
    H = algebra("A2")
    w = H.weyl
    for word in [(), (0,), (0, 1), (2, 1, 0)]:
        g = w.identity
        for i in word:
            g = w.gen_step(g, i)[0]
        inv = full_inverse(H, g)
        assert H.mul(H.basis(g), inv) == H.unit()
        assert H.mul(inv, H.basis(g)) == H.unit()
    # the whole inverse is read through rmul_basis only
    with pytest.raises(TypeError):
        H.invert_basis(g)


def v_of(labels, g):
    """v(g) = q(g)^{1/2}, a monomial: its exponents halved."""
    ((exps, _c),) = labels.q_of_w(g).sorted_terms()
    return LaurentPoly.monomial(labels.vars, tuple(e // 2 for e in exps))


def normalised(H, g, inv):
    """T_g^{-1} moved to T~_g^{-1} on the basis T~_u = v(u)^{-1} T_u: each
    coefficient times v(g) v(u)."""
    vg = v_of(H.labels, g)
    return {u: c * vg * v_of(H.labels, u) for u, c in inv.terms.items()}


# The targeted inverse folds by the xi rule on the normalised basis and the
# full inverse by the q rule, so each is the other's reference.
@pytest.mark.parametrize("name", NINE_PRESETS)
@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_invert_basis_targets_is_a_slice(name, data):
    H = algebra(name)
    w = H.weyl
    word = data.draw(word_strategy(name, max_len=6))
    near = w.elements_up_to_length(2)
    for om in w.omega_elements():
        g = om
        for i in word:
            g = w.gen_step(g, i)[0]
        full = normalised(H, g, full_inverse(H, g))
        targets = data.draw(st.lists(st.sampled_from(list(full) + near), max_size=6))
        sliced = H.invert_basis(g, targets=targets)
        assert sliced.terms == {u: c for u, c in full.items() if u in targets}
        assert H.invert_basis(g, targets=[]).terms == {}


def test_invert_basis_targets_is_a_slice_on_a_rank_three_translation():
    # three label classes and 22 letters: every coefficient of the full
    # inverse, on the normalised basis from the xi fold
    w = AffineWeyl(build_preset("BnCn(3)"))
    H = HeckeAlgebra(w, LabelSet(w))
    g = w.translation((2, 2, 1))
    full = normalised(H, g, full_inverse(H, g))
    assert len(full) == 2032
    targets = list(full) + w.elements_up_to_length(2)
    assert H.invert_basis(g, targets=targets).terms == full


class XiLabels(LabelSet):
    """Labels that hand the targeted fold's coefficients back in the xi."""

    def from_xi(self, c):
        return c


@lru_cache(maxsize=None)
def xi_algebra(name):
    w = AffineWeyl(build_preset(name))
    return HeckeAlgebra(w, XiLabels(w))


# Every path to u after k letters stays put (a factor -xi) k - l(u) times
# mod 2, so each coefficient is (-1)^(k - l(u)) times one in N[xi]: the fold
# merges coefficients in place, as no sum can cancel.
@pytest.mark.parametrize("name", NINE_PRESETS)
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_xi_fold_states_have_one_sign(name, data):
    H = xi_algebra(name)
    w = H.weyl
    word = tuple(data.draw(word_strategy(name, max_len=7)))
    ends = set(w.elements_up_to_length(len(word)))  # every state
    for k in range(1, len(word) + 1):
        states = H._xi_fold(word[-k:], ends)
        assert states
        for u, c in states.items():
            sign = (-1) ** (k - w.lens[u])
            assert c and all(a * sign > 0 for a in c.terms.values())


def test_targeted_inverse_refuses_a_word_past_the_packed_field():
    # a state's xi-degree is at most the word's up steps, so a word longer
    # than MAX_EXP is refused before the fold starts
    H = algebra("A1-weight")
    w = H.weyl
    g = w.translation((MAX_EXP + 1,))
    assert w.length(g) == MAX_EXP + 1
    with pytest.raises(ExponentOverflowError, match="32768 letters"):
        H.invert_basis(g, targets=[w.identity])


def test_targeted_inverse_needs_formal_labels():
    w = AffineWeyl(build_preset("A2"))
    labels = LabelSet(w)
    H = HeckeAlgebra(w, labels.at({v: 2 for v in labels.vars}))
    g = w.translation((1, 1))
    assert full_inverse(H, g).terms
    with pytest.raises(ValueError, match="formal labels"):
        H.invert_basis(g, targets=[w.identity])


def test_invert_basis_through_the_length_zero_coset():
    H = algebra("A1-weight")
    w = H.weyl
    om = [g for g in w.omega_elements() if g != w.identity][0]
    g = w.gen_step(om, 0)[0]
    inv = full_inverse(H, g)
    assert H.mul(H.basis(g), inv) == H.unit()


@pytest.mark.parametrize("name", ["C2", "GLn(2)"])
def test_the_folds_turn_no_id_back_into_an_element(name):
    # Omega is nontrivial here, so the folds relabel by a length-zero
    # element: on ids, by the group's product, which is the element
    # reference's; the package has no element form to turn an id into
    assert not hasattr(weyl_module, "AffineWeylElem") and not hasattr(AffineWeyl, "elem")
    H = algebra(name)
    w = H.weyl
    om = next(u for u in w.omega_elements() if u != w.identity)
    g = w.gen_step(w.gen_step(om, 0)[0], 1)[0]
    a = H.add(H.basis(g), H.basis(w.simple_affine(1)), H.basis(om))
    targets = w.elements_up_to_length(2)
    relabeled = {gid(w, elem_product(w, elem(w, u), elem(w, om))): c for u, c in a.terms.items()}
    assert H.mul(a, H.basis(om)).terms == relabeled
    assert H.mul(a, H.basis(g)).terms and H.mul(H.basis(om), a).terms
    assert H.rmul_basis(H.rmul_basis(a, g), g, inverse=True) == a
    assert H.invert_basis(g, targets=targets).terms


def test_linear_structure():
    H = algebra("A2")
    s = H.basis(H.weyl.simple_affine(1))
    two_s = H.add(s, s)
    assert two_s == H.scale(s, LaurentPoly.monomial(H.labels.vars, (0,) * len(H.labels.vars), 2))
    assert H.sub(two_s, s) == s
    assert H.add(HeckeElem({}), s) == s
    assert not H.scale(s, H.labels.zero()).terms


def test_rmul_basis_matches_mul():
    H = algebra("B2")
    w = H.weyl
    a = chain(H, [0, 1])
    for word in [(2,), (1, 0), (0, 1, 2)]:
        g = w.identity
        for i in word:
            g = w.gen_step(g, i)[0]
        assert H.rmul_basis(a, g) == H.mul(a, H.basis(g))


# -- accumulation with cancellation -------------------------------------------

ACC_PRESETS = ["BnCn(2)", "A1-weight"]


@st.composite
def elements(draw, name):
    """Sums of up to four terms ``k m T_om T_word``: k a small int, m a label
    monomial, om of length zero; words repeat often, so terms overlap and
    cancel."""
    H = algebra(name)
    L = H.labels
    oms = H.weyl.omega_elements(box=1)
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        om = draw(st.sampled_from(oms))
        word = draw(word_strategy(name, max_len=3))
        k = draw(st.integers(min_value=-2, max_value=2))
        m = L._mono(tuple(draw(st.integers(min_value=-2, max_value=2)) for _ in L.vars))
        terms.append(H.scale(H.mul(H.basis(om), chain(H, word)), m * k))
    return H.add(*terms)


def no_stored_zero(a):
    return all(a.terms.values())


@pytest.mark.parametrize("name", ACC_PRESETS)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_add_is_variadic_and_associative(name, data):
    H = algebra(name)
    a, b, c = (data.draw(elements(name)) for _ in range(3))
    assert H.add(a, b, c) == H.add(H.add(a, b), c)
    assert H.add(a) == a
    assert not H.add().terms


@pytest.mark.parametrize("name", ACC_PRESETS)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_sub_matches_adding_the_negative(name, data):
    # the route sub took before it accumulated -c itself
    H = algebra(name)
    a, b = data.draw(elements(name)), data.draw(elements(name))
    assert H.sub(a, b) == H.add(a, H.scale(b, -1))
    assert not H.sub(a, a).terms
    assert H.sub(H.add(a, b), b) == a


@pytest.mark.parametrize("name", ACC_PRESETS)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_no_stored_coefficient_is_zero(name, data):
    H = algebra(name)
    a, b = data.draw(elements(name)), data.draw(elements(name))
    for out in (H.add(a, b), H.sub(a, b), H.mul(a, b), H.add(a, H.scale(a, -1), b)):
        assert no_stored_zero(out)
