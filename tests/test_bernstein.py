"""Commutative-basis elements: multiplicativity, commutation, center, expansion."""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinehecke import BoxError, build_preset
from affinehecke.bernstein import Bernstein
from affinehecke.coeffring import LabelSet, LaurentPoly
from affinehecke.hecke import HeckeAlgebra, HeckeElem
from affinehecke.rootdata import (
    coordinate_box, dominant_decomposition, dominant_shift, fundamental_weights,
    is_dominant, vadd, vneg, vscale, vsub,
)
from affinehecke.weyl import AffineWeyl

from presets import NINE_PRESETS, TEN_PRESETS
from principal_model import center_element, elem, embed, group_mul, orbit, reassemble


@lru_cache(maxsize=None)
def tower(name):
    w = AffineWeyl(build_preset(name))
    H = HeckeAlgebra(w, LabelSet(w))
    return Bernstein(H)


def small_vectors(rank, bound=2):
    coord = st.integers(min_value=-bound, max_value=bound)
    return st.tuples(*([coord] * rank))


def test_theta_at_zero_is_the_unit():
    B = tower("A2")
    assert B.theta((0, 0)) == B.hecke.unit()


def test_theta_of_dominant_weight_is_a_weighted_translation():
    B = tower("A1-weight")
    th = B.theta((1,))
    assert len(th.terms) == 1
    g = B.weyl.translation((1,))
    assert B.hecke.coeff(th, g) == B.labels.delta_sqrt((-1,))
    # the concrete value: v^-1 against the single translation
    assert B.hecke.coeff(th, g) == B.labels._mono((-1,))


@pytest.mark.parametrize(
    "name, box",
    [(n, 2) for n in NINE_PRESETS] + [("BnCn(3)", 1)],
)
def test_theta_at_dominant_points_is_the_weighted_translation(name, box):
    # the general fold with an empty inverse word gives the single term
    # delta_sqrt(-x) T_{t_x}, as the dominant branch it replaced built it
    B = tower(name)
    H = B.hecke
    for x in itertools.product(range(-box, box + 1), repeat=B.datum.rank):
        if is_dominant(B.datum, x):
            want = H.scale(H.basis(B.weyl.translation(x)), B.labels.delta_sqrt(vneg(x)))
            assert list(B.theta(x).terms.items()) == list(want.terms.items()), (name, x)


def test_theta_of_antidominant_weight_spreads_out():
    B = tower("A1-weight")
    assert len(B.theta((-1,)).terms) == 2


@given(small_vectors(2), small_vectors(2))
@settings(deadline=None, max_examples=25)
def test_theta_is_multiplicative_a2(x, y):
    B = tower("A2")
    H = B.hecke
    assert H.mul(B.theta(x), B.theta(y)) == B.theta(vadd(x, y))


@given(small_vectors(2, bound=1), small_vectors(2, bound=1))
@settings(deadline=None, max_examples=15)
def test_theta_is_multiplicative_bncn2(x, y):
    B = tower("BnCn(2)")
    H = B.hecke
    assert H.mul(B.theta(x), B.theta(y)) == B.theta(vadd(x, y))


def test_theta_inverse_pairs_cancel():
    B = tower("B2")
    H = B.hecke
    for x in [(1, 0), (0, 1), (2, -1)]:
        minus = tuple(-v for v in x)
        assert H.mul(B.theta(x), B.theta(minus)) == H.unit()


def ref_invert_basis(H, g):
    """T_g^{-1} from the one-letter inverses, last letter first, then the
    relabel by om^{-1}: the loop the inverse fold replaced, kept apart from it."""
    weyl = H.weyl
    om, word = weyl.factor_extended(g)
    cur = {weyl.identity: H.labels.one()}
    for i in reversed(word):
        cur = H._rmul_gen(cur, i, inverse=True)
    return HeckeElem(H._relabel_right(cur, weyl.inverse(om)))


def non_dominant_points(B, box):
    pts = itertools.product(range(-box, box + 1), repeat=B.datum.rank)
    return [x for x in pts if not is_dominant(B.datum, x)]


@pytest.mark.parametrize("name", ["A2", "B2", "C2", "BnCn(2)", "GLn(3)", "A1-weight"])
def test_theta_matches_the_full_inverse_route(name):
    # theta(x) = theta(y) theta(z)^{-1} as it was built before: the whole
    # T_{t_z}^{-1}, then a fold through t_y
    B = tower(name)
    H = B.hecke
    labels = B.labels
    for x in non_dominant_points(B, 2):
        y, z = dominant_decomposition(B.datum, x)
        old = H.rmul_basis(ref_invert_basis(H, B.weyl.translation(z)), B.weyl.translation(y))
        old = H.scale(old, labels.delta_sqrt(vneg(y)) * labels.delta_sqrt(z))
        assert B.theta(x) == old, (name, x)


@pytest.mark.parametrize("name, box", [("G2", 2), ("BnCn(3)", 1)])
def test_theta_times_theta_of_the_shift_is_theta_of_the_dominant_part(name, box):
    B = tower(name)
    H = B.hecke
    for x in non_dominant_points(B, box):
        y, z = dominant_decomposition(B.datum, x)
        assert H.mul(B.theta(x), B.theta(z)) == B.theta(y), (name, x)


@pytest.mark.parametrize("name", ["A1-weight", "GLn(3)"])
def test_rmul_basis_inverse_undoes_rmul_basis(name):
    # translations by weights outside the root lattice have a length-zero
    # factor om != e, so the relabel by om^{-1} is exercised
    B = tower(name)
    H = B.hecke
    w = B.weyl
    a = H.add(B.theta((-1,) + (0,) * (B.datum.rank - 1)), H.basis(w.simple_affine(0)))
    for x in itertools.product((-1, 0, 1), repeat=B.datum.rank):
        g = w.multiply(w.translation(x), w.simple_affine(1 % len(w.fundamental)))
        inv = H.rmul_basis(a, g, inverse=True)
        assert inv == H.mul(a, ref_invert_basis(H, g)), (name, x)
        assert H.rmul_basis(inv, g) == a, (name, x)


def test_embed_is_an_algebra_map():
    B = tower("A2")
    H = B.hecke
    L = B.labels
    two, three = (LaurentPoly.monomial(L.vars, (0,) * len(L.vars), c) for c in (2, 3))
    a = {(1, 0): L.one(), (0, -1): two}
    b = {(0, 1): three, (-1, 0): L.one()}
    assert H.mul(embed(B, a), embed(B, b)) == embed(B, group_mul(a, b))


@pytest.mark.parametrize("name", ["A2", "BnCn(2)", "A1-root"])
def test_commutation_relation_both_branches(name):
    B = tower(name)
    rank = B.datum.rank
    coords = range(-2, 3)
    if rank == 1:
        xs = [(c,) for c in coords]
    else:
        xs = [(a, b) for a in coords for b in coords]
    for x in xs:
        for i in range(rank):
            lhs, rhs = B.lusztig_commutation(x, i)
            assert lhs == rhs


def test_commutation_rejects_the_affine_generator_index():
    B = tower("A2")
    with pytest.raises(ValueError):
        B.lusztig_commutation((1, 0), 2)


def test_center_element_commutes():
    for name in ("A2", "BnCn(2)"):
        B = tower(name)
        H = B.hecke
        for x in [(1, 0), (0, 1), (1, 1)]:
            z = center_element(B, x)
            for i in range(len(B.weyl.fundamental)):
                t = H.basis(B.weyl.simple_affine(i))
                assert H.mul(z, t) == H.mul(t, z)


def test_center_element_is_orbit_symmetric():
    B = tower("A2")
    x = (1, 0)
    assert center_element(B, x) == center_element(B, orbit(B.weyl, x)[-1])


def test_star_of_theta_identity():
    for name in ("A2", "B2"):
        B = tower(name)
        for x in [(1, 0), (0, 1), (-1, 2), (2, 2)]:
            assert B.star_theta_check(x)


def test_expand_roundtrip():
    B = tower("A2")
    H = B.hecke
    w = B.weyl
    h = H.mul(
        H.mul(H.basis(w.simple_affine(0)), B.theta((1, -1))),
        H.basis(w.simple_affine(1)),
    )
    coords = B.expand_in_bernstein(h)
    assert coords
    assert reassemble(B, coords) == h


@given(small_vectors(2, bound=1))
@settings(deadline=None, max_examples=10)
def test_expand_of_theta_is_a_single_row(x):
    B = tower("B2")
    coords = B.expand_in_bernstein(B.theta(x))
    nonzero = {(wf, y): c for (wf, y), c in coords.items() if c}
    assert list(nonzero) == [(B.weyl.id_fin, x)]
    assert nonzero[(B.weyl.id_fin, x)] == B.labels.one()


@pytest.mark.parametrize("name", TEN_PRESETS)
def test_orbit_shift_is_the_dominant_shift_of_the_orbits(name):
    # the least multiple of 2rho that the expansion's shift is weighed
    # against, read off the form-based bounds as max ceil(m_i / 2) (since
    # <2rho, b_i> = 2), against dominant_shift over every orbit point, one
    # point at a time and over the whole box at once
    B = tower(name)

    def orbit_shift(ys):
        return max(-(-m // 2) for m in B._orbit_bounds(ys))

    points = coordinate_box(B.datum.rank, -3, 3)
    for y in points:
        assert orbit_shift([y]) == dominant_shift(B.datum, orbit(B.weyl, y))
    assert orbit_shift(points) == dominant_shift(
        B.datum, [x for y in points for x in orbit(B.weyl, y)]
    ) > 0


@pytest.mark.parametrize("name", ["A1-root", "A2", "G2", "BnCn(3)", "GLn(3)"])
def test_orbit_forms_are_the_coroot_forms_with_no_orbit_walk(name, monkeypatch):
    # the W0-images of the simple coroots are all the coroots, so the
    # context reads them off the datum and walks no orbit
    w = AffineWeyl(build_preset(name))
    H = HeckeAlgebra(w, LabelSet(w))
    calls = []
    monkeypatch.setattr(AffineWeyl, "coroot_orbit", lambda self, b: calls.append(b) or {b})
    B = Bernstein(H)
    assert calls == []
    monkeypatch.undo()
    images = {c for b in w.datum.simple_coroots for c in w.coroot_orbit(b)}
    assert sorted({f for forms in B._norm_forms for f in forms}) == sorted(
        w.datum.form(c) for c in images
    )


def test_expand_raises_when_the_shift_falls_one_short(monkeypatch):
    # over formal labels too the shift is read off the orbit bounds: theta(y)
    # at the orbit point of -2rho that attains bound i has its coordinate
    # there, so with that bound one lower (B2 has k_i = 1, so the shift falls
    # short by one too) the per-term guard reports it
    B = tower("B2")
    datum = B.datum
    assert fundamental_weights(datum)[1] == (1, 1)
    x = vneg(B.weyl.derived.two_rho)
    for i, b in enumerate(datum.simple_coroots):
        y = max(orbit(B.weyl, x), key=lambda y: -datum.pair(y, b))
        h = B.theta(y)
        bounds = B._orbit_bounds([B.weyl.trans(u) for u in h.terms])
        assert bounds[i] == -datum.pair(y, b) > 0
        assert B.expand_in_bernstein(h)
        lowered = bounds[:i] + [bounds[i] - 1] + bounds[i + 1:]
        monkeypatch.setattr(B, "_orbit_bounds", lambda ys: lowered)
        with pytest.raises(BoxError, match="leaves the dominant range"):
            B.expand_in_bernstein(h)
        monkeypatch.undo()


@lru_cache(maxsize=None)
def exact_tower(name):
    """(formal Bernstein, Bernstein over exact label values, assignment)."""
    formal = tower(name)
    w, labels = formal.weyl, formal.labels
    qs = (4, 9, 16)
    raw = {g: qs[labels.gen_class[j]] for j, g in enumerate(w.generator_names)}
    asg = labels.numeric_assignment(raw, "rational")
    return formal, Bernstein(HeckeAlgebra(w, labels.at(asg))), asg


@pytest.mark.parametrize("name", TEN_PRESETS)
def test_norm_forms_are_the_coroot_orbits(name):
    # coroots of one W0-invariant norm hold the orbit, so the bounds are
    # safe; on every preset they are exactly the orbit
    B = tower(name)
    for b, forms in zip(B.datum.simple_coroots, B._norm_forms):
        assert sorted(forms) == sorted(B.datum.form(c) for c in B.weyl.coroot_orbit(b))


@pytest.mark.parametrize("name", TEN_PRESETS)
def test_exact_expansion_is_the_formal_one_evaluated(name):
    # T_{t_x} at antidominant points needs a shift; both towers take it from
    # the same orbit bounds
    formal, exact, asg = exact_tower(name)
    x0 = vneg(formal.weyl.derived.two_rho)
    for x in (x0, vsub(x0, formal.datum.simple_roots[0])):
        h = formal.hecke.basis(formal.weyl.translation(x))
        want = {k: c.evaluate(asg) for k, c in formal.expand_in_bernstein(h).items()}
        assert exact.expand_in_bernstein(exact.hecke.basis(exact.weyl.translation(x))) == want


@pytest.mark.parametrize("name", ["A1-weight", "B2", "C2", "G2", "BnCn(3)", "GLn(3)"])
def test_exact_expand_raises_when_a_bound_falls_one_short(name, monkeypatch):
    # theta(y) at the orbit point that attains bound i has its coordinate
    # there, so with that bound one lower (and k_i = 1, so the shift falls
    # short by one too) the per-term guard reports it
    _formal, B, _asg = exact_tower(name)
    datum = B.datum
    x = vneg(B.weyl.derived.two_rho)
    steps = fundamental_weights(datum)[1]
    tried = 0
    for i, b in enumerate(datum.simple_coroots):
        if steps[i] != 1:
            continue
        y = max(orbit(B.weyl, x), key=lambda y: -datum.pair(y, b))
        h = B.theta(y)
        bounds = B._orbit_bounds([B.weyl.trans(u) for u in h.terms])
        assert bounds[i] == -datum.pair(y, b)
        assert B.expand_in_bernstein(h)
        lowered = bounds[:i] + [bounds[i] - 1] + bounds[i + 1:]
        monkeypatch.setattr(B, "_orbit_bounds", lambda ys: lowered)
        with pytest.raises(BoxError, match="leaves the dominant range"):
            B.expand_in_bernstein(h)
        monkeypatch.undo()
        tried += 1
    assert tried


def ref_shift_for_box(datum, box):
    """A multiplier N such that x + N*2rho is dominant for every x with
    coordinates bounded by the box: the guess expand_in_bernstein took from a
    caller-given box before it read the shift off the element."""
    units = [tuple(int(j == i) for j in range(datum.rank)) for i in range(datum.rank)]
    worst = max(sum(abs(datum.pair(e, b)) for e in units) for b in datum.simple_coroots)
    return (box * worst + 1) // 2 + 1


def ref_expand_in_bernstein(B, h, box):
    """The read-off expand_in_bernstein replaced: shift by the box's guess,
    scale the shifted element by delta_sqrt(-z0), then each term by
    delta_sqrt of its translation; a term outside the box is a BoxError."""
    H = B.hecke
    labels = B.labels
    if not h.terms:
        return {}
    z0 = vscale(ref_shift_for_box(B.datum, box), B.weyl.derived.two_rho)
    shifted = H.scale(H.rmul_basis(h, B.weyl.translation(z0)), labels.delta_sqrt(vneg(z0)))
    out = {}
    for u, c in shifted.terms.items():
        g = elem(B.weyl, u)
        xp = g.trans
        if not is_dominant(B.datum, xp):
            raise BoxError(
                "box too small: expansion leaves the dominant range "
                f"(term at translation {xp} after shifting by {z0})"
            )
        x = vsub(xp, z0)
        if any(abs(v) > box for v in x):
            raise BoxError(f"box too small: expansion has a term at {x}, outside [-{box}, {box}]")
        out[(g.fin, x)] = c * labels.delta_sqrt(xp)
    return out


@st.composite
def hecke_elements(draw, B):
    """Sums of up to three terms ``c * T_word * theta(x)``, with ``c`` a
    label monomial times a small integer."""
    H = B.hecke
    w = B.weyl
    rank, nvars, ngens = B.datum.rank, len(B.labels.vars), len(w.fundamental)
    out = HeckeElem({})
    for _ in range(draw(st.integers(1, 3))):
        g = w.translation((0,) * rank)
        for i in draw(st.lists(st.integers(0, ngens - 1), max_size=3)):
            g = w.multiply(g, w.simple_affine(i))
        x = draw(small_vectors(rank, bound=2))
        exps = draw(st.tuples(*[st.integers(-2, 2)] * nvars))
        c = LaurentPoly.monomial(B.labels.vars, exps, draw(st.sampled_from([1, -1, 2, -3])))
        out = H.add(out, H.scale(H.mul(H.basis(g), B.theta(x)), c))
    return out


def ref_expand_at_first_box(B, h):
    """The reference at the first box it accepts."""
    for box in itertools.count():
        try:
            return ref_expand_in_bernstein(B, h, box)
        except BoxError:
            pass


@pytest.mark.parametrize("name", ["B2", "BnCn(2)"])
@given(data=st.data())
@settings(deadline=None, max_examples=15)
def test_expand_matches_the_scale_then_multiply_read_off(name, data):
    B = tower(name)
    h = data.draw(hecke_elements(B))
    assert B.expand_in_bernstein(h) == ref_expand_at_first_box(B, h)


@pytest.mark.parametrize(
    "name, length",
    [("A1-weight", 10), ("A1-root", 10), ("A2", 7), ("B2", 7), ("C2", 7), ("G2", 7),
     ("BnCn(2)", 7), ("GLn(3)", 5), ("BnCn(3)", 4)],
)
def test_expand_of_basis_elements_matches_the_read_off(name, length):
    B = tower(name)
    for g in B.weyl.elements_up_to_length(length):
        h = B.hecke.basis(g)
        got = B.expand_in_bernstein(h)
        assert got == ref_expand_at_first_box(B, h), (name, g)
