"""Trace values on the commutative basis: the two methods, series, c-functions."""

import itertools
from fractions import Fraction
from functools import lru_cache

import pytest

from affinehecke import (
    PoleError,
    build_preset,
    derive,
    exact_divide,
    height,
)
from affinehecke.bernstein import Bernstein
from affinehecke.coeffring import LabelSet, LaurentPoly
from affinehecke.hecke import HeckeAlgebra
from affinehecke.rootdata import is_dominant, vneg
from affinehecke.tracegen import TorusPoint, TraceGen
from affinehecke.weyl import AffineWeyl

from principal_model import RegionError, check_region, generating_check


@lru_cache(maxsize=None)
def formal_trace(name):
    w = AffineWeyl(build_preset(name))
    H = HeckeAlgebra(w, LabelSet(w))
    return TraceGen(Bernstein(H))


def direct(trace, x):
    """tau(theta(x)) read off theta(x) itself, point by point: the reference
    for the batched sweep."""
    return trace.hecke.tau(trace.bernstein.theta(x))


@lru_cache(maxsize=None)
def numeric_trace(name, items, mode="rational"):
    w = AffineWeyl(build_preset(name))
    L = LabelSet(w)
    H = HeckeAlgebra(w, L)
    asg = L.numeric_assignment(dict(items), mode)
    return TraceGen(Bernstein(H), asg)


def ref_partitions(trace, target):
    """All ways of writing the target as a non-negative integer combination
    of the positive non-reduced roots, as maps root -> multiplicity;
    depth-first in a fixed root order, one target at a time: the reference
    for the batch partition route."""
    coords = trace.derived.root_coordinates(tuple(target))
    if coords is None or any(c.denominator != 1 for c in coords):
        return
    rem = tuple(int(c) for c in coords)
    if any(c < 0 for c in rem):
        return
    roots = trace._positive_roots_with_coords()

    def dfs(i, rem, acc):
        if all(v == 0 for v in rem):
            # remaining roots contribute multiplicity zero
            yield dict(acc)
            return
        if i == len(roots):
            return
        root, rc = roots[i]
        bound = min((r // c for r, c in zip(rem, rc) if c > 0), default=0)
        for m in range(bound, -1, -1):
            nxt = tuple(r - m * c for r, c in zip(rem, rc))
            if any(v < 0 for v in nxt):
                continue
            if m:
                acc.append((root, m))
            yield from dfs(i + 1, nxt, acc)
            if m:
                acc.pop()

    yield from dfs(0, rem, [])


def ref_trace_partition(trace, x):
    """tau(theta(x)) as the sum over partitions of -x of the products of
    the per-root weights d(root; m)."""
    L = trace.labels
    out = L.zero()
    for pi in ref_partitions(trace, vneg(tuple(x))):
        term = L.one()
        for root, m in pi.items():
            term = term * trace.d_coeff(root, m)
        out = out + term
    return out


def brute_force_partitions(trace, target):
    """Independent enumeration: multiplicity vectors over the non-reduced
    positive roots summing to the target, via bounded nested products."""
    datum = trace.datum
    roots = [beta for beta, _ in derive(datum).nonreduced_positive]
    coords = derive(datum).root_coordinates(target)
    if coords is None or any(c.denominator != 1 or c < 0 for c in coords):
        return []
    total = int(height(datum, target))
    found = []
    for ms in itertools.product(range(total + 1), repeat=len(roots)):
        acc = tuple(0 for _ in target)
        for m, beta in zip(ms, roots):
            acc = tuple(a + m * b for a, b in zip(acc, beta))
        if acc == target:
            found.append({beta: m for beta, m in zip(roots, ms) if m})
    return found


@pytest.mark.parametrize("name", ["A2", "BnCn(2)"])
def test_partitions_match_brute_force(name):
    trace = formal_trace(name)
    targets = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 1)]
    for target in targets:
        got = sorted(
            sorted((beta, m) for beta, m in pi.items())
            for pi in ref_partitions(trace, target)
        )
        want = sorted(
            sorted((beta, m) for beta, m in pi.items())
            for pi in brute_force_partitions(trace, target)
        )
        assert got == want, target


def test_partitions_of_nonlattice_targets_are_empty():
    trace = formal_trace("A1-weight")
    assert list(ref_partitions(trace, (1,))) == []  # odd: outside the root lattice
    assert list(ref_partitions(trace, (-2,))) == []  # negative side
    assert list(ref_partitions(trace, (0,))) == [{}]


# the presets of the acceptance battery, each with a box radius; every box
# holds points off the negative cone, and where X is larger than the root
# lattice also points with -x off it
BATCH_BOXES = {
    "A1-weight": 6, "A1-root": 6, "A2": 3, "B2": 3, "C2": 3, "G2": 3,
    "BnCn(2)": 3, "GLn(2)": 3, "GLn(3)": 2,
}
ROOT_LATTICE_PRESETS = {"A1-root", "A2", "G2", "BnCn(2)"}


def box_points(rank, radius):
    return list(itertools.product(range(-radius, radius + 1), repeat=rank))


@pytest.mark.parametrize("name", sorted(BATCH_BOXES))
def test_batch_partition_route_matches_the_partition_sum(name):
    trace = formal_trace(name)
    xs = box_points(trace.datum.rank, BATCH_BOXES[name])
    got = trace.trace_theta_partition(xs)
    assert list(got) == xs
    derived = derive(trace.datum)
    off_lattice = on_cone = 0
    for x in xs:
        coords = derived.root_coordinates(vneg(x))
        if coords is None or any(c.denominator != 1 for c in coords):
            off_lattice += 1
        elif all(c >= 0 for c in coords):
            on_cone += 1
        assert got[x] == ref_trace_partition(trace, x), (name, x)
    assert bool(off_lattice) == (name not in ROOT_LATTICE_PRESETS), name
    assert on_cone < len(xs) - off_lattice, name


@pytest.mark.parametrize("name", ["A2", "BnCn(2)", "GLn(3)"])
def test_a_point_value_does_not_depend_on_its_batch(name):
    trace = formal_trace(name)
    xs = box_points(trace.datum.rank, 2)
    whole = trace.trace_theta_partition(xs)
    for x in xs:
        assert trace.trace_theta_partition([x]) == {x: whole[x]}, (name, x)
    # a batch that holds a far point too, and the same points reversed
    far = tuple(-6 for _ in xs[0])
    wider = trace.trace_theta_partition([far] + xs[::-1])
    assert all(wider[x] == whole[x] for x in xs), name
    assert trace.trace_theta_partition([]) == {}


def test_d_coefficients_rank_one():
    trace = formal_trace("A1-weight")
    L = trace.labels
    q = L.q_of_gen(0)
    qi = q.inverse()
    d1 = q - LaurentPoly.monomial(L.vars, (0,) * len(L.vars), 2) + qi  # (q - 1)^2 / q
    assert trace.d_coeff((2,), 1) == d1
    assert trace.d_coeff((2,), 2) == d1 * (q + qi)


@pytest.mark.parametrize(
    "name",
    ["A1-weight", "A1-root", "A2", "B2", "C2", "G2", "BnCn(2)", "GLn(2)", "GLn(3)", "BnCn(3)"],
)
def test_d_coeff_equals_the_quotient_it_replaces(name):
    # the finite sum against the exact division of
    # (B/A - 1)(1/(AB) - 1)(A^-k - A^k) by A^-2 - 1
    trace = formal_trace(name)
    L = trace.labels
    one = L.one()
    for root, _coroot in trace.derived.nonreduced_positive:
        a, b = L.c_pair(root)
        a_inv = a.inverse()
        prefactor = (b * a_inv - one) * ((a * b).inverse() - one)
        for k in range(13):
            want = one if k == 0 else exact_divide(prefactor * (a_inv**k - a**k), a_inv**2 - one)
            assert trace.d_coeff(root, k) == want, (name, root, k)


def test_two_methods_agree_on_a2_sample():
    trace = formal_trace("A2")
    for x in [(0, 0), (-1, -1), (-2, -1), (-2, -2), (-3, -2)]:
        assert trace.trace_theta_partition([x])[x] == direct(trace, x)


def test_two_methods_agree_with_unequal_labels():
    trace = formal_trace("BnCn(2)")
    for x in [(0, 0), (-1, -1), (-2, 0), (-2, -2)]:
        assert trace.trace_theta_partition([x])[x] == direct(trace, x)


def test_direct_vanishes_off_the_negative_cone_sample():
    trace = formal_trace("A2")
    for x in [(1, 0), (0, 1), (1, 1), (-1, 2), (-2, 3), (2, -1)]:
        assert not direct(trace, x)


def test_two_methods_agree_on_g2_at_large_shifts():
    # theta(x) at these points needs the shift z = 2*(2 rho), at (-1, 1) 3*(2 rho)
    trace = formal_trace("G2")
    for x in [(-1, 1), (0, 1), (1, -1), (-2, 0), (0, -2)]:
        assert direct(trace, x) == trace.trace_theta_partition([x])[x], x


# Points on and off the negative cone.
SWEEP_POINTS = {
    "A2": lambda tr: tr.negative_cone_points(3) + [(1, 0), (0, 1), (-1, 2), (2, -1)],
    "BnCn(2)": lambda tr: tr.negative_cone_points(2) + [(1, 0), (1, 1), (1, -1), (-1, 1)],
    "G2": lambda tr: [(-1, -1), (-1, 0), (0, -1), (0, 0), (1, 0), (1, 1)],
    "GLn(3)": lambda tr: tr.negative_cone_points(2)
    + list(itertools.product((-1, 0, 1), repeat=3)),
}


def test_trace_sweep_matches_pointwise_direct():
    for name, points in SWEEP_POINTS.items():
        trace = formal_trace(name)
        xs = sorted(set(points(trace)))
        swept = trace.trace_sweep(xs)
        assert set(swept) == set(xs)
        assert not all(swept.values()), name
        assert any(swept.values()), name
        for x in xs:
            assert swept[x] == direct(trace, x), (name, x)
    # batches with every point dominant need no shift: T_e is inverted
    for name in ("A1-weight", "A2", "BnCn(2)", "G2", "GLn(3)"):
        trace = formal_trace(name)
        rank = trace.datum.rank
        xs = [x for x in itertools.product(range(3), repeat=rank) if is_dominant(trace.datum, x)]
        assert (0,) * rank in xs and len(xs) > 1, name
        swept = trace.trace_sweep(xs)
        assert swept == {x: direct(trace, x) for x in xs}, name
        assert swept[(0,) * rank] == trace.labels.one()
        assert trace.trace_sweep([]) == {}


def test_negative_cone_points_rank_one():
    trace = formal_trace("A1-weight")
    assert trace.negative_cone_points(3) == [(0,), (-2,), (-4,), (-6,)]
    for x in trace.negative_cone_points(6):
        assert height(trace.datum, vneg(x)) <= 6


def test_negative_cone_points_counts():
    # one point per partitionable depth: counts match the rehearsed corridor
    assert len(formal_trace("A2").negative_cone_points(6)) == 28
    assert len(formal_trace("BnCn(2)").negative_cone_points(6)) == 28
    assert len(formal_trace("A1-root").negative_cone_points(6)) == 7


def test_c_factor_value():
    items = (("s1", 4),)
    numeric = numeric_trace("A2", items)
    t = TorusPoint((Fraction(1, 7), Fraction(2, 23)))
    assert numeric.c_full(t) == Fraction(255, 47488)


def test_c_full_value_with_doubled_roots():
    items = (("s1", 4), ("s2", 9), ("s0", 16))
    numeric = numeric_trace("BnCn(2)", items)
    t = TorusPoint((Fraction(1, 7), Fraction(2, 23)))
    assert numeric.c_full(t) == Fraction(47957, 197821440)


def test_c_factor_pole():
    items = (("s1", 4), ("s0", 4))
    numeric = numeric_trace("A1-weight", items)
    with pytest.raises(PoleError):
        numeric.c_factor((2,), TorusPoint((Fraction(1),)))


def test_check_region_rejects_large_points():
    items = (("s1", 4), ("s0", 4))
    numeric = numeric_trace("A1-weight", items)
    with pytest.raises(RegionError):
        check_region(numeric, TorusPoint((Fraction(2),)))
    # well inside the region: no complaint
    check_region(numeric, TorusPoint((Fraction(1, 16),)))


def test_generating_check_rank_one():
    items = (("s1", 4), ("s0", 4))
    numeric = numeric_trace("A1-weight", items)
    t = TorusPoint((Fraction(1, 16),))
    lhs, rhs, gap = generating_check(numeric, t, 30)
    assert rhs == Fraction(7225, 7161)
    assert gap < Fraction(1, 10**40)


def test_series_identity_short_truncation():
    for name in ("A1-weight", "A1-root"):
        trace = formal_trace(name)
        root = derive(trace.datum).r1_positive[0][0]
        for order in (6, 12):
            lhs = trace.d_series_truncation(root, order)
            assert len(lhs) == order + 1
            assert lhs == trace.inverse_cc_series(root, order), (name, order)


def test_torus_point_is_a_character():
    t = TorusPoint((Fraction(2, 3), Fraction(-1, 5)))
    for x in [(1, 0), (2, -1), (-3, 2)]:
        for y in [(0, 1), (1, 1)]:
            xy = tuple(a + b for a, b in zip(x, y))
            assert t.value(xy) == t.value(x) * t.value(y)
    inv = t.inv()
    for x in [(1, 2), (-1, 3)]:
        assert t.value(x) * inv.value(x) == 1


def test_torus_point_with_int_coordinates_is_exact():
    t = TorusPoint((2, 3))
    assert t == TorusPoint((Fraction(2), Fraction(3)))
    assert t.value((-1, 0)) == Fraction(1, 2)
    assert type(t.value((-1, 0))) is Fraction
    assert type(t.value((0, 0))) is Fraction
    assert t.inv() == TorusPoint((Fraction(1, 2), Fraction(1, 3)))
    assert t.inv().value((1, 1)) == Fraction(1, 6)


def test_torus_point_weyl_action():
    w = AffineWeyl(build_preset("A2"))
    t = TorusPoint((Fraction(1, 2), Fraction(3, 4)))
    for u in w.enumerate_w0():
        moved = t.apply_w(w, u)
        uinv = w.fin_inv(u)
        for x in [(1, 0), (1, 1), (-2, 1)]:
            assert moved.value(x) == t.value(uinv.apply_x(x))


def test_formal_trace_refuses_numeric_queries():
    trace = formal_trace("A2")
    with pytest.raises(ValueError, match="needs numeric labels"):
        generating_check(trace, TorusPoint((Fraction(1, 16), Fraction(1, 16))), 2)
