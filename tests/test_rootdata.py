"""Root-datum construction: closure, cones, decompositions, JSON interchange,
and the exact linear algebra behind them."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from affinehecke import (
    RootSystemError,
    build_preset,
    datum_from_json,
    datum_to_json,
    derive,
    dominant_decomposition,
    dominant_shift,
    height,
    in_negative_cone,
    is_dominant,
    make_datum,
)
from affinehecke import rootdata
from affinehecke.rootdata import (
    coordinate_box,
    fundamental_weights,
    int_inverse,
    shift_for_bounds,
    solve,
    solve_columns,
    vadd,
    vneg,
    vscale,
    vsub,
)

from presets import TEN_PRESETS

# (positive roots, non-reduced positive layer, unmultipliable positive layer)
LAYER_SIZES = {
    "A1-weight": (1, 1, 1),
    "A1-root": (1, 2, 1),
    "A2": (3, 3, 3),
    "B2": (4, 4, 4),
    "C2": (4, 4, 4),
    "G2": (6, 6, 6),
    "BnCn(2)": (4, 6, 4),
    "BnCn(3)": (9, 12, 9),
    "GLn(2)": (1, 1, 1),
    "GLn(3)": (3, 3, 3),
}

TWO_RHO = {
    "A1-weight": (2,),
    "A1-root": (1,),
    "A2": (2, 2),
    "B2": (2, 2),
    "C2": (4, 2),
    "G2": (10, 6),
    "BnCn(2)": (3, 1),
    "BnCn(3)": (5, 3, 1),
    "GLn(2)": (1, -1),
    "GLn(3)": (2, 0, -2),
}


def small_vectors(rank, bound=4):
    coord = st.integers(min_value=-bound, max_value=bound)
    return st.tuples(*([coord] * rank))


@pytest.mark.parametrize("name", TEN_PRESETS)
def test_preset_builds_and_keeps_name(name):
    datum = build_preset(name)
    assert datum.name == name
    assert len(datum.simple_roots) <= datum.rank
    for a, b in zip(datum.simple_roots, datum.simple_coroots):
        assert datum.pair(a, b) == 2


@pytest.mark.parametrize("name", TEN_PRESETS)
def test_preset_layer_sizes(name):
    dr = derive(build_preset(name))
    assert (
        len(dr.positive_roots),
        len(dr.nonreduced_positive),
        len(dr.r1_positive),
    ) == LAYER_SIZES[name]
    assert dr.two_rho == TWO_RHO[name]


def test_two_rho_is_sum_of_positive_roots():
    for name in TEN_PRESETS:
        dr = derive(build_preset(name))
        total = dr.positive_roots[0]
        for r in dr.positive_roots[1:]:
            total = vadd(total, r)
        assert total == dr.two_rho


def test_a1_weight_presentation():
    datum = build_preset("A1-weight")
    assert sorted(datum.roots) == [(-2,), (2,)]
    assert sorted(datum.coroots) == [(-1,), (1,)]
    assert datum.simple_roots == ((2,),)


def test_a1_root_has_doubled_layer():
    dr = derive(build_preset("A1-root"))
    # the coroot (2,) is divisible by 2 in Y, so the root (1,) acquires a
    # double (2,) with halved coroot (1,)
    assert ((1,), (2,)) in dr.nonreduced_positive
    assert ((2,), (1,)) in dr.nonreduced_positive
    assert dr.r1_positive == (((2,), (1,)),)


def test_bncn2_nonreduced_set():
    dr = derive(build_preset("BnCn(2)"))
    roots = {beta for beta, _ in dr.nonreduced_positive}
    assert roots == {(1, -1), (1, 1), (1, 0), (0, 1), (2, 0), (0, 2)}
    # doubles carry the halved coroots
    pairs = dict(dr.nonreduced_positive)
    assert pairs[(2, 0)] == (1, 0)
    assert pairs[(0, 2)] == (0, 1)


def reflect(datum, root, x):
    """Reflection of ``x`` in X through the root: ``x - <x, a^vee> a``."""
    b = derive(datum).coroot[root]
    return vsub(x, vscale(datum.pair(x, b), root))


def test_roots_closed_under_reflection():
    for name in ("A2", "B2", "G2", "BnCn(3)"):
        datum = build_preset(name)
        roots = set(datum.roots)
        for a in datum.roots:
            for b in datum.simple_roots:
                assert reflect(datum, b, a) in roots


def test_reflection_is_involutive_on_roots():
    datum = build_preset("G2")
    for a in datum.roots:
        for b in datum.roots:
            assert reflect(datum, b, reflect(datum, b, a)) == a
        assert reflect(datum, a, a) == vneg(a)


def test_height_of_simple_roots_is_one():
    for name in TEN_PRESETS:
        datum = build_preset(name)
        for a in datum.simple_roots:
            assert height(datum, a) == 1


def test_height_is_additive():
    datum = build_preset("B2")
    assert height(datum, vadd((2, -2), (0, 2))) == height(datum, (2, -2)) + height(
        datum, (0, 2)
    )


RANK_TWO = ("A2", "B2", "C2", "G2", "BnCn(2)", "GLn(2)")


@pytest.mark.parametrize("name", RANK_TWO)
@given(x=small_vectors(2))
def test_dominant_decomposition_rank2(name, x):
    datum = build_preset(name)
    y, z = dominant_decomposition(datum, x)
    assert vadd(x, z) == y
    assert is_dominant(datum, y)
    assert is_dominant(datum, z)
    two_rho = derive(datum).two_rho
    # z is a non-negative multiple of the positive-root sum, minimal
    idx = next(i for i, v in enumerate(two_rho) if v)
    assert z[idx] % two_rho[idx] == 0
    n = z[idx] // two_rho[idx]
    assert z == vscale(n, two_rho)
    assert n == dominant_shift(datum, [x])
    if n > 0:
        assert not is_dominant(datum, vadd(x, vscale(n - 1, two_rho)))


@pytest.mark.parametrize("name", RANK_TWO)
@given(xs=st.lists(small_vectors(2), max_size=4))
def test_dominant_shift_of_a_batch_is_the_least_common_shift(name, xs):
    datum = build_preset(name)
    two_rho = derive(datum).two_rho
    n = dominant_shift(datum, xs)
    assert n == max([dominant_shift(datum, [x]) for x in xs], default=0)
    assert all(is_dominant(datum, vadd(x, vscale(n, two_rho))) for x in xs)
    if n > 0:
        assert not all(is_dominant(datum, vadd(x, vscale(n - 1, two_rho))) for x in xs)


@given(small_vectors(2))
def test_negative_cone_vs_coordinates_a2(x):
    datum = build_preset("A2")
    coords = derive(datum).root_coordinates(x)
    expect = all(c.denominator == 1 and c <= 0 for c in coords)
    assert in_negative_cone(datum, x) == expect


def test_negative_cone_a1_weight_is_even_nonpositive():
    datum = build_preset("A1-weight")
    assert in_negative_cone(datum, (0,))
    assert in_negative_cone(datum, (-2,))
    assert not in_negative_cone(datum, (2,))
    assert not in_negative_cone(datum, (-1,))
    # (1,) is half the simple root (2,), off the root lattice; (4,) is on it
    coords = derive(datum).root_coordinates
    assert coords((1,)) == (Fraction(1, 2),)
    assert coords((4,)) == (Fraction(2),)


def test_gln_cone_stays_inside_the_root_span():
    datum = build_preset("GLn(2)")
    # (1, 1) is central, outside the span of e1 - e2
    assert derive(datum).root_coordinates((1, 1)) is None
    assert not in_negative_cone(datum, (1, 1))
    assert in_negative_cone(datum, (-1, 1))
    assert not in_negative_cone(datum, (1, -1))


def test_make_datum_rejects_bad_input():
    with pytest.raises(RootSystemError):
        make_datum(1, [[2]], [[2]], [[1]])  # non-unimodular pairing
    with pytest.raises(RootSystemError):
        make_datum(1, [[1]], [[2]], [[2]])  # <a, a^vee> = 4
    with pytest.raises(RootSystemError):
        make_datum(2, [[1, 0]], [[1, 0]], [[1, 0]])  # ragged pairing


def test_a_non_identity_pairing_gives_the_same_roots():
    # A2 with Y in the basis M^{-1} b, M = [[1, 1], [0, 1]]: <x, y> = x^T M y
    # keeps the Cartan matrix, so the closure finds the roots of the preset
    datum = make_datum(2, [[1, 1], [0, 1]], [[1, 0], [0, 1]], [[3, -1], [-3, 2]])
    assert datum.roots == build_preset("A2").roots
    assert derive(datum).positive_roots == derive(build_preset("A2")).positive_roots


def test_unknown_preset_raises():
    with pytest.raises(RootSystemError):
        build_preset("E8")


@pytest.mark.parametrize("name", TEN_PRESETS)
def test_json_roundtrip(name):
    datum = build_preset(name)
    text = datum_to_json(datum)
    assert text.endswith("\n")
    back = datum_from_json(text)
    assert back.rank == datum.rank
    assert back.pairing == datum.pairing
    assert back.simple_roots == datum.simple_roots
    assert back.simple_coroots == datum.simple_coroots
    assert sorted(back.roots) == sorted(datum.roots)
    assert back.name == datum.name


@given(small_vectors(3, bound=6), small_vectors(3, bound=6))
def test_vector_helpers(a, b):
    assert vadd(a, b) == tuple(x + y for x, y in zip(a, b))
    assert vsub(vadd(a, b), b) == a
    assert vadd(a, vneg(a)) == (0, 0, 0)
    assert vscale(3, a) == vadd(a, vadd(a, a))


# -- exact linear algebra: `solve` against the five eliminations it replaced --


def ref_rational_rank(rows):
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [v - c * p for v, p in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def ref_mat_rank(rows):
    work = [list(r) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    row = 0
    for col in range(cols):
        best = None
        for i in range(row, len(work)):
            if work[i][col] != 0 and (best is None or abs(work[i][col]) > abs(work[best][col])):
                best = i
        if best is None:
            continue
        work[row], work[best] = work[best], work[row]
        pivot = work[row][col]
        for i in range(row + 1, len(work)):
            if work[i][col] != 0:
                factor = work[i][col] / pivot
                work[i] = [work[i][j] - factor * work[row][j] for j in range(cols)]
        row += 1
        rank += 1
        if row == len(work):
            break
    return rank


def ref_int_det(mat):
    n = len(mat)
    if n == 0:
        return 1
    rows = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                c = rows[r][col] * inv
                rows[r] = [v - c * p for v, p in zip(rows[r], rows[col])]
    assert det.denominator == 1
    return int(det)


def ref_solve_columns(cols, x):
    m = len(cols)
    n = len(x) if m == 0 else len(cols[0])
    aug = [[Fraction(cols[j][i]) for j in range(m)] + [Fraction(x[i])] for i in range(n)]
    pivots = []
    row = 0
    for col in range(m):
        pivot = next((r for r in range(row, n) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [v - c * p for v, p in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
    for r in range(row, n):
        if aug[r][m] != 0:
            return None
    coords = [Fraction(0)] * m
    for r, c in pivots:
        coords[c] = aug[r][m]
    return tuple(coords)


def ref_int_inverse(mat):
    n = len(mat)
    aug = [[Fraction(v) for v in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                c = aug[r][col]
                aug[r] = [v - c * p for v, p in zip(aug[r], aug[col])]
    out = []
    for i in range(n):
        row = aug[i][n:]
        assert all(v.denominator == 1 for v in row)
        out.append(tuple(int(v) for v in row))
    return tuple(out)


def matrices(n_rows, n_cols, entries):
    return st.lists(
        st.lists(entries, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows
    )


# small and sparse entries make singular matrices and skipped pivot columns common
SMALL = st.integers(min_value=-2, max_value=2)
SPARSE = st.sampled_from([0, 0, 0, 1, -1])
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def systems(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=0, max_value=3))
    entries = draw(st.sampled_from([SMALL, SPARSE, RATIONALS]))
    a = draw(matrices(n, m, entries))
    if k and draw(st.booleans()):  # a consistent right side: b = a . x
        x = draw(matrices(m, k, SMALL))
        b = [[sum(a[i][p] * x[p][j] for p in range(m)) for j in range(k)] for i in range(n)]
    else:
        b = draw(matrices(n, k, entries))
    return a, b


@given(systems())
def test_solve_matches_reference_rank_and_solutions(system):
    a, b = system
    rank, x = solve(a, b)
    assert rank == ref_rational_rank(a) == ref_mat_rank([[Fraction(v) for v in r] for r in a])
    assert solve(a)[0] == rank
    m, k = len(a[0]), len(b[0]) if b else 0
    cols = [[row[c] for row in a] for c in range(m)]
    rhs = [[row[j] for row in b] for j in range(k)]
    refs = [ref_solve_columns(cols, v) for v in rhs]
    # one right side at a time, and every right side in one elimination
    assert [solve_columns(cols, [v]) for v in rhs] == [None if r is None else [r] for r in refs]
    assert solve_columns(cols, rhs) == (None if None in refs else refs)
    # the system is consistent exactly when each of its columns is
    assert (x is None) == any(ref is None for ref in refs)
    if x is not None:
        assert [tuple(x[c][j] for c in range(m)) for j in range(k)] == refs
        assert len(x) == m and all(len(row) == k for row in x)
        assert all(
            sum(a[i][p] * x[p][j] for p in range(m)) == b[i][j]
            for i in range(len(a))
            for j in range(k)
        )


@st.composite
def unimodular(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1))
        op = draw(st.sampled_from(["add", "swap", "negate"]))
        if op == "add" and i != j:
            c = draw(st.integers(min_value=-3, max_value=3))
            mat[i] = [u + c * v for u, v in zip(mat[i], mat[j])]
        elif op == "swap":
            mat[i], mat[j] = mat[j], mat[i]
        else:
            mat[i] = [-u for u in mat[i]]
    return tuple(tuple(row) for row in mat)


@given(unimodular())
def test_int_inverse_of_unimodular_matches_reference(mat):
    assert abs(ref_int_det(mat)) == 1
    inv = int_inverse(mat)
    assert inv == ref_int_inverse(mat)
    n = len(mat)
    assert all(
        sum(mat[i][p] * inv[p][j] for p in range(n)) == int(i == j)
        for i in range(n)
        for j in range(n)
    )


@given(st.integers(min_value=0, max_value=3).flatmap(lambda n: matrices(n, n, SMALL)))
def test_int_inverse_exists_exactly_for_unit_determinant(mat):
    inv = int_inverse(mat)
    assert (inv is not None) == (abs(ref_int_det(mat)) == 1)
    if inv is not None:
        assert inv == ref_int_inverse(mat)


@pytest.mark.parametrize("name", TEN_PRESETS)
def test_derive_caches_on_equal_datums(name):
    # two separately built, equal datums share one DerivedRoots
    assert build_preset(name) is not build_preset(name)
    assert derive(build_preset(name)) is derive(build_preset(name))


@pytest.mark.parametrize("name", ["A2", "G2", "BnCn(4)", "GLn(4)"])
def test_derive_solves_every_root_in_one_elimination(name, monkeypatch):
    # one solve, for a left inverse of the simple roots, not one solve per
    # root; the coordinates it gives are those of a per-root solve
    datum = build_preset(name)
    calls = []
    real = rootdata.solve
    monkeypatch.setattr(rootdata, "solve", lambda a, b=(): calls.append(a) or real(a, b))
    derived = derive.__wrapped__(datum)  # past the cache: a fresh derive
    assert len(calls) == 1
    monkeypatch.undo()
    for r in datum.roots:
        assert derived.root_coordinates(r) == solve_columns(datum.simple_roots, [r])[0]
    assert derived.positive_roots == derive(datum).positive_roots


@pytest.mark.parametrize("name", TEN_PRESETS)
def test_root_coordinates_match_a_solve_per_point(name):
    # the left inverse against an elimination per point over a box, points
    # off the roots' span (GLn) included
    datum = build_preset(name)
    derived = derive(datum)
    off_span = 0
    for x in coordinate_box(datum.rank, -3, 3):
        sol = solve_columns(datum.simple_roots, [x])
        assert derived.root_coordinates(x) == (None if sol is None else sol[0])
        off_span += sol is None
    assert (off_span > 0) == name.startswith("GLn")


@pytest.mark.parametrize("name", TEN_PRESETS)
def test_fundamental_weights_are_the_least_multiples_in_x(name):
    datum = build_preset(name)
    weights, steps = fundamental_weights(datum)
    for i, (w, k) in enumerate(zip(weights, steps)):
        assert [datum.pair(w, b) for b in datum.simple_coroots] == [
            k * (i == j) for j in range(len(steps))
        ]
        assert math.gcd(k, *w) == 1  # w / d is off X for every d > 1 dividing k
    in_x = name in ("A1-weight", "B2", "C2", "G2", "GLn(2)", "GLn(3)")
    assert (set(steps) == {1}) == in_x


def _length(datum, z):
    return datum.pair(z, derive(datum).two_rho_check)


@pytest.mark.parametrize("name", TEN_PRESETS)
def test_shift_for_bounds_is_dominant_and_never_longer_than_2rho(name):
    datum = build_preset(name)
    two_rho = derive(datum).two_rho
    rank = len(datum.simple_coroots)
    for bounds in coordinate_box(rank, -1, 6 if rank < 3 else 4):
        z = shift_for_bounds(datum, bounds)
        assert is_dominant(datum, z)
        assert all(datum.pair(z, b) >= m for m, b in zip(bounds, datum.simple_coroots))
        n = max(0, *((m + 1) // 2 for m in bounds))
        assert _length(datum, z) <= _length(datum, vscale(n, two_rho))


@pytest.mark.parametrize("name", ["A1-weight", "B2", "C2", "G2", "GLn(3)"])
def test_shift_for_bounds_is_the_least_length_where_the_weights_lie_in_x(name):
    # a brute-force minimum over a box of lattice points wide enough to hold
    # the weight sum at the largest bounds
    datum = build_preset(name)
    rank = len(datum.simple_coroots)
    top = 3
    wide = top * sum(abs(v) for w in fundamental_weights(datum)[0] for v in w)
    cands = [z for z in coordinate_box(datum.rank, -wide, wide) if is_dominant(datum, z)]
    for bounds in coordinate_box(rank, 0, top):
        best = min(
            _length(datum, z) for z in cands
            if all(datum.pair(z, b) >= m for m, b in zip(bounds, datum.simple_coroots))
        )
        assert _length(datum, shift_for_bounds(datum, bounds)) == best


def test_shift_for_bounds_takes_2rho_where_the_weight_sum_is_longer():
    # A2's fundamental weights are off X, so the weight sum rounds up to
    # multiples of 3 and is the longer choice at some bounds
    datum = build_preset("A2")
    weights, steps = fundamental_weights(datum)
    assert steps == (3, 3)
    two_rho = derive(datum).two_rho
    longer = 0
    for bounds in coordinate_box(2, 0, 4):
        z = vadd(*(vscale(-(-m // k), w) for m, w, k in zip(bounds, weights, steps)))
        n = (max(bounds) + 1) // 2
        if _length(datum, z) > _length(datum, vscale(n, two_rho)):
            assert shift_for_bounds(datum, bounds) == vscale(n, two_rho)
            longer += 1
    assert longer > 0
