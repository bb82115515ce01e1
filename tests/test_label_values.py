"""The Hecke folds over exact label values (``LabelSet.at``) against the
formal folds evaluated at the same labels, on every preset."""

import itertools
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinehecke import build_preset
from affinehecke.bernstein import Bernstein
from affinehecke.coeffring import LabelConfigError, LabelSet, LaurentPoly
from affinehecke.hecke import HeckeAlgebra, HeckeElem
from affinehecke.rootdata import is_dominant
from affinehecke.weyl import AffineWeyl

PRESETS = ("A1-weight", "A1-root", "A2", "B2", "C2", "G2", "BnCn(2)", "GLn(2)", "GLn(3)")

# one q per label class, in class order: integral squares, then fractional ones
LABELS = {
    "integral": (4, 9, 16),
    "fractional": (Fraction(9, 4), Fraction(1, 4), Fraction(25, 16)),
}


@lru_cache(maxsize=None)
def towers(name, kind):
    """(formal Bernstein, numeric Bernstein, assignment) at one label set."""
    w = AffineWeyl(build_preset(name))
    labels = LabelSet(w)
    qs = LABELS[kind]
    raw = {g: qs[labels.gen_class[j]] for j, g in enumerate(w.generator_names)}
    asg = labels.numeric_assignment(raw, "rational")
    formal = Bernstein(HeckeAlgebra(w, labels))
    numeric = Bernstein(HeckeAlgebra(w, labels.at(asg)))
    return formal, numeric, asg


def value(c: LaurentPoly, asg):
    v = c.evaluate(asg)
    return v.numerator if v.denominator == 1 else v


def evaluated(a: HeckeElem, asg) -> dict:
    return {u: v for u, c in a.terms.items() if (v := value(c, asg))}


def exact(coeffs) -> bool:
    """Every coefficient is an exact number: never a float."""
    return all(type(c) in (int, Fraction) for c in coeffs)


def sample(name, kind):
    """Formal elements with label coefficients and their numeric images."""
    formal, _numeric, asg = towers(name, kind)
    H, w = formal.hecke, formal.weyl
    rank = w.rank
    box = itertools.product((-1, 0, 1), repeat=rank)
    xs = [x for x in box if not is_dominant(w.datum, x)][:3]
    three = LaurentPoly.monomial(formal.labels.vars, (0,) * len(formal.labels.vars), 3)
    elems = [
        H.add(H.basis(w.simple_affine(0)), formal.theta(tuple([1] * rank))),
        H.mul(H.basis(w.simple_affine(len(w.fundamental) - 1)), formal.theta(xs[0])),
        H.sub(formal.theta(xs[-1]), H.scale(H.unit(), three)),
    ]
    return xs, [(a, HeckeElem(evaluated(a, asg))) for a in elems]


@pytest.mark.parametrize("kind", sorted(LABELS))
@pytest.mark.parametrize("name", PRESETS)
def test_numeric_folds_match_the_evaluated_formal_folds(name, kind):
    formal, numeric, asg = towers(name, kind)
    F, N, w = formal.hecke, numeric.hecke, formal.weyl
    xs, elems = sample(name, kind)
    tx = w.translation(tuple([1] * w.rank))
    for a, na in elems:
        assert exact(na.terms.values())
        for b, nb in elems:
            out = N.mul(na, nb)
            assert exact(out.terms.values())
            assert out.terms == evaluated(F.mul(a, b), asg)
        for g in (tx, w.simple_affine(0)):
            for inverse in (False, True):
                out = N.rmul_basis(na, g, inverse)
                assert exact(out.terms.values())
                assert out.terms == evaluated(F.rmul_basis(a, g, inverse), asg)
        coords = numeric.expand_in_bernstein(na)
        assert exact(coords.values())
        want = formal.expand_in_bernstein(a)
        assert coords == {k: v for k, c in want.items() if (v := value(c, asg))}
    for x in xs:
        theta = numeric.theta(x)
        assert exact(theta.terms.values())
        assert theta.terms == evaluated(formal.theta(x), asg)


@pytest.mark.parametrize("name", PRESETS)
def test_forward_folds_at_integral_labels_stay_ints(name):
    formal, numeric, _asg = towers(name, "integral")
    N, w = numeric.hecke, numeric.weyl
    sym = N.add(*(N.basis(w.as_affine(u)) for u in w.enumerate_w0()))
    x = tuple([1] * w.rank)
    out = N.mul(N.mul(sym, N.basis(w.translation(x))), sym)
    assert out.terms and all(type(c) is int for c in out.terms.values())


def test_the_view_reads_generator_inverses_as_fractions():
    w = AffineWeyl(build_preset("B2"))
    labels = LabelSet(w)
    view = labels.at({v: 2 + i for i, v in enumerate(labels.vars)})  # plain ints
    for j in range(len(w.fundamental)):
        q, q_inv = view.q_of_gen(j), view.q_of_gen_inv(j)
        assert type(q) is int and type(q_inv) is Fraction and q * q_inv == 1
    with pytest.raises(LabelConfigError):
        labels.at({v: 2.0 for v in labels.vars})


@pytest.mark.parametrize("kind", sorted(LABELS))
@pytest.mark.parametrize("name", PRESETS)
def test_delta_sqrt_values_are_the_evaluated_monomials(name, kind):
    # the monomial against its definition, a sum over the positive
    # non-reduced extension, and the direct numeric product against the
    # monomial evaluated: equal values of one type (int where integral)
    formal, numeric, asg = towers(name, kind)
    labels, view, datum = formal.labels, numeric.labels, formal.datum
    for x in itertools.product(range(-3, 4), repeat=datum.rank):
        exps = [0] * len(labels.vars)
        for root, coroot in formal.weyl.derived.nonreduced_positive:
            for c, h in enumerate(labels.root_label_half_exps(root)):
                exps[c] += h * datum.pair(x, coroot)
        mono = labels.delta_sqrt(x)
        assert mono == LaurentPoly.monomial(labels.vars, tuple(exps))
        want = value(mono, asg)
        got = view.delta_sqrt(x)
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("kind", sorted(LABELS))
@pytest.mark.parametrize("name", PRESETS + ("BnCn(3)",))
@given(data=st.data())
@settings(deadline=None, max_examples=25)
def test_integer_delta_sqrt_is_the_evaluated_monomial(name, kind, data):
    # one integer numerator and denominator against the monomial evaluated
    # at the Fraction labels, far past the box above
    formal, numeric, asg = towers(name, kind)
    coord = st.integers(min_value=-40, max_value=40)
    x = data.draw(st.tuples(*[coord] * formal.datum.rank))
    want = value(formal.labels.delta_sqrt(x), asg)
    got = numeric.labels.delta_sqrt(x)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("algebra", ["formal", "integral", "fractional"])
@pytest.mark.parametrize("name", PRESETS + ("BnCn(3)",))
def test_the_symmetrizer_absorbs_the_finite_generators(name, algebra):
    # sym·T_s = T_s·sym = q_s·sym and sym·sym = p0·sym, over the formal labels
    # and over their values: the identities that let the exact spherical
    # value act by T_{t_x} alone instead of sym·T_{t_x}·sym
    formal, numeric, asg = towers(name, "integral" if algebra == "formal" else algebra)
    B = formal if algebra == "formal" else numeric
    H, w, labels = B.hecke, B.weyl, formal.labels

    def q(poly):
        return poly if algebra == "formal" else value(poly, asg)

    order = w.enumerate_w0()
    sym = H.add(*(H.basis(w.as_affine(u)) for u in order))
    for s in w.simple_reflections:
        ts = H.basis(w.as_affine(s))
        want = H.scale(sym, q(labels.q_of_fin(s))).terms
        assert H.mul(sym, ts).terms == want
        assert H.mul(ts, sym).terms == want
    p0 = sum((labels.q_of_fin(u) for u in order), labels.zero())
    assert H.mul(sym, sym).terms == H.scale(sym, q(p0)).terms
