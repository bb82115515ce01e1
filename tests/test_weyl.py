"""Affine Weyl group: lengths, descents, the length-zero subgroup, cosets."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinehecke import build_preset, make_datum
from affinehecke.rootdata import vadd, vneg, vscale, vsub
from affinehecke.weyl import (
    MAX_FIELD,
    AffineRoot,
    AffineWeyl,
    AffineWeylElem,
    FiniteWeylElem,
    PackedFieldError,
)

from presets import TEN_PRESETS
from principal_model import coset_data, elem_inverse, elem_product, orbit


@lru_cache(maxsize=None)
def group(name):
    return AffineWeyl(build_preset(name))


def finite_length(w, u):
    """The length of a finite element: the positive roots it sends negative."""
    positive = set(w.derived.positive_roots)
    return sum(1 for alpha in positive if u.apply_x(alpha) not in positive)


W0_SIZES = {
    "A1-weight": 2,
    "A1-root": 2,
    "A2": 6,
    "B2": 8,
    "C2": 8,
    "G2": 12,
    "BnCn(2)": 8,
    "BnCn(3)": 48,
    "GLn(2)": 2,
    "GLn(3)": 6,
}

# elements of length zero found in the default translation box
OMEGA_SIZES = {
    "A1-weight": 2,
    "A1-root": 1,
    "A2": 1,
    "B2": 2,
    "C2": 2,
    "G2": 1,
    "BnCn(2)": 1,
    "BnCn(3)": 1,
    "GLn(2)": 9,
    "GLn(3)": 13,
}


def word_strategy(name, max_len=6):
    w = group(name)
    return st.lists(
        st.integers(min_value=0, max_value=len(w.fundamental) - 1),
        max_size=max_len,
    )


def from_word(w, word):
    g = w.identity
    for i in word:
        g = w.gen_step(g, i)[0]
    return g


def fin_from_word(w, word):
    out = w.id_fin
    for i in word:
        out = w.fin_mul(out, w.simple_reflections[i])
    return out


def act_affine_root(w, g, a):
    """``(w t_z)(a) = (w(b), k - <z, b>)`` for ``a = (b, k)``; ``w(b)`` by the
    simple reflections ``s_i(y) = y - <a_i, y> a_i^vee`` along a reduced word
    of ``w``, last letter first."""
    b = a.coroot
    for i in reversed(w.fin_word(g.fin)):
        b = vsub(b, vscale(w.datum.pair(w.datum.simple_roots[i], b), w.datum.simple_coroots[i]))
    return AffineRoot(b, a.level - w.datum.pair(g.trans, a.coroot))


def affine_root_positive(w, a):
    if a.level != 0:
        return a.level > 0
    return a.coroot in w.derived.positive_coroots


def ref_step(w, g, i):
    """``(g s_i, l(g s_i) < l(g))`` by matrix products and the affine root
    action, independent of the id tables."""
    s = w.simple_affine(i)
    gs = AffineWeylElem(w.fin_mul(g.fin, s.fin), vadd(s.fin.apply_x(g.trans), s.trans))
    down = not affine_root_positive(w, act_affine_root(w, g, w.fundamental[i]))
    return gs, down


@pytest.mark.parametrize("name", sorted(W0_SIZES))
def test_finite_group_size(name):
    w = group(name)
    elems = w.enumerate_w0()
    assert len(elems) == W0_SIZES[name]
    assert len(set(elems)) == len(elems)
    # the orbit walked by sparse reflections is W0's image through the roots
    der = w.derived
    for b in w.datum.coroots:
        assert w.coroot_orbit(b) == {der.coroot[u.apply_x(der.root[b])] for u in elems}


@pytest.mark.parametrize("name", sorted(W0_SIZES))
def test_multiplication_table_is_the_matrix_product(name):
    # the simple columns are kept from the BFS, the affine ones formed after it
    w = AffineWeyl(build_preset(name))
    w._build_tables()
    for k, wk in enumerate(w.enumerate_w0()):
        assert w._wmul[k] == [w._w_index[w.fin_mul(wk, g).mx] for g in w._gen_fins]


@pytest.mark.parametrize("name", sorted(OMEGA_SIZES))
def test_length_zero_subgroup(name):
    w = group(name)
    om = w.omega_elements()
    assert len(om) == OMEGA_SIZES[name]
    for g in om:
        assert w.length(g) == 0
        assert not any(w.gen_step(g, i)[1] for i in range(len(w.fundamental)))
    # the scan reads the length formula and interns no element: the only id
    # is the identity's, which the tables intern first
    fresh = AffineWeyl(w.datum)
    assert fresh.omega_elements() == om
    assert fresh.lens == [0] and fresh.elem(fresh.identity_id) == fresh.identity


def test_omega_a1_weight_element():
    w = group("A1-weight")
    nontrivial = [g for g in w.omega_elements() if g != w.identity]
    assert len(nontrivial) == 1
    (g,) = nontrivial
    assert g.trans == (-1,)
    assert g.fin != w.id_fin
    # an involution modulo nothing: g^2 is a translation of length > 0 or e
    assert elem_product(w, g, g) in (w.translation((-1,)), w.identity)


def test_longest_element_lengths():
    for name, l in (("A2", 3), ("B2", 4), ("G2", 6), ("BnCn(2)", 4)):
        w = group(name)
        w0 = w.longest_element()
        assert finite_length(w, w0) == l
        assert w.fin_mul(w0, w0) == w.id_fin


@given(word_strategy("A2"))
def test_length_bounded_by_word_a2(word):
    w = group("A2")
    g = from_word(w, word)
    assert w.length(g) <= len(word)
    assert len(w.inversion_levels(g)) == w.length(g)


@given(word_strategy("BnCn(2)"))
def test_gen_step_changes_length_by_one(word):
    w = group("BnCn(2)")
    g = from_word(w, word)
    l = w.length(g)
    for i in range(len(w.fundamental)):
        gs, down = w.gen_step(g, i)
        assert w.length(gs) == l + (-1 if down else 1)
        assert (gs, down) == ref_step(w, g, i)


@given(word_strategy("B2"), word_strategy("B2"))
def test_group_laws_b2(u, v):
    w = group("B2")
    g, h = w.gid(from_word(w, u)), w.gid(from_word(w, v))
    gh = w.multiply(g, h)
    assert w.multiply(w.inverse(gh), gh) == w.multiply(gh, w.inverse(gh)) == w.identity_id
    assert w.inverse(gh) == w.multiply(w.inverse(h), w.inverse(g))


@given(word_strategy("A2"), word_strategy("A2"))
def test_action_is_a_group_action(u, v):
    w = group("A2")
    g, h = from_word(w, u), from_word(w, v)
    gh = w.elem(w.multiply(w.gid(g), w.gid(h)))
    for x in [(0, 0), (1, 0), (-2, 3)]:
        assert w.act_point(g, w.act_point(h, x)) == w.act_point(gh, x)


def test_translation_length_formula():
    for name in ("A2", "B2", "BnCn(2)"):
        w = group(name)
        datum = w.datum
        for x in [(1, 0), (0, 1), (2, 1), (-1, 2), (3, -1)]:
            expect = sum(
                abs(datum.pair(x, w.derived.coroot[a]))
                for a in w.derived.positive_roots
            )
            assert w.length(w.translation(x)) == expect


def test_translations_commute():
    w = group("BnCn(2)")
    a, b = (2, -1), (1, 3)
    assert w.multiply(w.gid(w.translation(a)), w.gid(w.translation(b))) == w.gid(w.translation(vadd(a, b)))


def test_fin_word_roundtrip():
    for name in ("B2", "G2"):
        w = group(name)
        for u in w.enumerate_w0():
            word = w.fin_word(u)
            assert len(word) == finite_length(w, u)
            assert fin_from_word(w, word) == u


def test_elements_up_to_length_counts():
    w = group("A2")
    elems = w.elements_up_to_length(4)
    by_len = {}
    for g in elems:
        by_len[w.length(g)] = by_len.get(w.length(g), 0) + 1
    assert by_len == {0: 1, 1: 3, 2: 6, 3: 9, 4: 12}
    wb = group("BnCn(2)")
    elems = wb.elements_up_to_length(4)
    by_len = {}
    for g in elems:
        by_len[wb.length(g)] = by_len.get(wb.length(g), 0) + 1
    assert by_len == {0: 1, 1: 3, 2: 5, 3: 8, 4: 11}


def test_elements_up_to_length_includes_omega_cosets():
    w = group("A1-weight")
    elems = w.elements_up_to_length(2)
    # the infinite dihedral chain has two elements per positive length, and
    # each is doubled by the nontrivial length-zero coset
    by_len = {}
    for g in elems:
        by_len.setdefault(w.length(g), []).append(g)
    assert {l: len(gs) for l, gs in by_len.items()} == {0: 2, 1: 4, 2: 4}


@given(word_strategy("BnCn(2)", max_len=5))
def test_factor_extended(word):
    w = group("BnCn(2)")
    g = from_word(w, word)
    u = w.gid(g)
    om, red = w.factor_extended(u)
    assert w.lens[om] == 0
    assert len(red) == w.lens[u]
    back = om
    for i in red:
        back = w.step(back, i)
    assert back == u
    # an element is factored at the public edge, and its omega is an element
    assert w.factor_extended(g) == (w.elem(om), red)


def test_coset_data_regular_and_singular():
    w = group("A2")
    stab, reps, w_x, w_up = coset_data(w, (1, 1))
    assert len(stab) == 1 and len(reps) == 6
    assert w_x == w.id_fin and w_up == w.longest_element()
    stab, reps, w_x, w_up = coset_data(w, (2, 1))
    assert len(stab) == 2 and len(reps) == 3
    assert finite_length(w, w_x) == 1
    assert w.fin_mul(w.longest_element(), w_x) == w_up
    for u in reps:
        # minimal-length representatives: strictly shorter than u * (any
        # nontrivial stabiliser element)
        for s in stab:
            if s != w.id_fin:
                assert finite_length(w, w.fin_mul(u, s)) > finite_length(w, u)


def test_orbit_sizes_match_cosets():
    w = group("B2")
    for x in [(1, 0), (1, 1), (2, 1)]:
        stab, reps, _, _ = coset_data(w, x)
        points = orbit(w, x)
        assert len(points) == len(reps)
        assert len(points) * len(stab) == len(w.enumerate_w0())
        assert len(set(points)) == len(points)


def test_simple_affine_acts_as_reflection():
    w = group("B2")
    datum = w.datum
    for i in range(datum.rank):
        s = w.simple_affine(i)
        a = datum.simple_roots[i]
        assert w.act_point(s, (0, 0)) == (0, 0)
        assert w.act_point(s, a) == vneg(a)


def test_elem_to_obj_literal():
    # the finite part as its 1-based BFS word, then the translation
    w = group("BnCn(2)")
    cases = [
        ((), {"word": [], "translation": [0, 0]}),
        ((0,), {"word": [1], "translation": [0, 0]}),
        ((1, 2, 0), {"word": [2, 1, 2], "translation": [0, -1]}),
        ((2,), {"word": [1, 2, 1], "translation": [-1, 0]}),
    ]
    for word, obj in cases:
        assert w.elem_to_obj(from_word(w, list(word))) == obj, word


TABLE_PRESETS = ["A2", "B2", "C2", "G2", "BnCn(2)", "BnCn(3)", "GLn(3)"]


def affine_elements(name):
    """A W0 word times a translation in [-6, 6]^rank."""
    w = group(name)
    words = st.lists(
        st.integers(min_value=0, max_value=len(w.simple_reflections) - 1), max_size=12
    )
    trans = st.tuples(*[st.integers(min_value=-6, max_value=6)] * w.rank)
    return st.builds(lambda word, t: AffineWeylElem(fin_from_word(w, word), t), words, trans)


@pytest.mark.parametrize("name", TABLE_PRESETS)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_table_kernel_matches_matrix_route(name, data):
    w = group(name)
    g = data.draw(affine_elements(name))
    for i in range(len(w.fundamental)):
        gs, down = w.gen_step(g, i)
        assert (gs, down) == ref_step(w, g, i)
        assert w.length(gs) == len(w.inversion_levels(gs))
    assert w.length(g) == len(w.inversion_levels(g))
    assert w.elem(w.gid(g)) == g
    om, word = w.factor_extended(g)
    assert len(word) == w.length(g)
    assert len(w.inversion_levels(om)) == 0
    back = om
    for i in word:
        nxt, down = ref_step(w, back, i)
        assert not down
        assert len(w.inversion_levels(nxt)) == len(w.inversion_levels(back)) + 1
        back = nxt
    assert back == g


DISTANCE_PRESETS = ["A2", "B2", "G2", "BnCn(2)", "BnCn(3)", "GLn(3)", "A1-weight"]


def extended_elements(name):
    """A length-zero element times ``affine_elements``: every Omega coset."""
    w = group(name)
    oms = st.sampled_from(w.omega_elements())
    return st.builds(lambda om, g: elem_product(w, om, g), oms, affine_elements(name))


def inverse_coords(w):
    """The map ``u -> K(u^{-1})`` on ids, from ``inverse_coord_rows``."""
    rows = w.inverse_coord_rows()

    def coords(u):
        t = w.trans(u)
        fin = w._w_index[w.elem(u).fin.mx]
        return tuple(n + sum(a * b for a, b in zip(r, t)) for r, n in rows[fin])

    return coords


@pytest.mark.parametrize("name", DISTANCE_PRESETS)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_length_is_the_l1_distance_of_inverse_coords(name, data):
    w = group(name)
    u = data.draw(extended_elements(name))
    v = data.draw(extended_elements(name))
    coords = inverse_coords(w)
    ku, kv = coords(w.gid(u)), coords(w.gid(v))
    assert sum(abs(a - b) for a, b in zip(ku, kv)) == w.length(elem_product(w, elem_inverse(w, u), v))
    assert sum(map(abs, ku)) == w.length(u)


@pytest.mark.parametrize("name", list(W0_SIZES))
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_a_step_moves_one_inverse_coord_at_its_wall_root(name, data):
    # u -> u s_i crosses the wall of direction w(a_i): the entry at the
    # positive root +-w(a_i) moves, by +1 exactly when w(a_i) is positive
    w = group(name)
    coords = inverse_coords(w)
    roots = w.derived.positive_roots
    u = w.gid(data.draw(extended_elements(name)))
    for i in data.draw(st.lists(st.integers(0, len(w.fundamental) - 1), min_size=1, max_size=8)):
        us = w.step(u, i)
        b = w.elem(u).fin.apply_x(w._gen_roots[i])
        moved = [(j, y - x) for j, (x, y) in enumerate(zip(coords(u), coords(us))) if x != y]
        if b in roots:
            assert moved == [(roots.index(b), 1)]
        else:
            assert moved == [(roots.index(vneg(b)), -1)]
        u = us


@pytest.mark.parametrize("name", ["A2", "G2", "BnCn(3)", "GLn(3)", "A1-weight"])
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_distance_to_is_the_capped_nearest_length(name, data):
    w = group(name)
    ends = data.draw(st.lists(extended_elements(name), max_size=5))
    cap = data.draw(st.integers(min_value=0, max_value=80))
    start, _move = w.distance_to([w.gid(v) for v in ends], cap)
    for u in data.draw(st.lists(extended_elements(name), min_size=1, max_size=4)):
        dists = [w.length(elem_product(w, elem_inverse(w, u), v)) for v in ends]
        assert start(w.gid(u))[1] == min(dists + [cap])


@pytest.mark.parametrize("name", list(W0_SIZES))
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_the_carried_distance_is_the_fresh_one(name, data):
    # a walk carries (sum, d) by ``move`` alone; small caps put most of its
    # states at l(u) >= cap + max l(v), where the sum is carried unread
    w = group(name)
    ends = [w.gid(v) for v in data.draw(st.lists(extended_elements(name), max_size=4))]
    cap = data.draw(st.sampled_from([0, 1, 2, 5, 30]))
    start, move = w.distance_to(ends, cap)
    u = w.gid(data.draw(extended_elements(name)))
    s, d = start(u)
    gens = st.integers(0, len(w.fundamental) - 1)
    for i in data.draw(st.lists(gens, min_size=1, max_size=40)):
        us = w.step(u, i)
        s, d = move(u, i, us, s, d)
        assert (s, d) == start(us)
        u = us


@pytest.mark.parametrize("name", list(W0_SIZES))
def test_the_carried_distance_on_empty_ends_and_caps_0_and_1(name):
    # a walk out past l(u) >= cap + max l(v) and back along the same letters;
    # the one end is the identity, so max l(v) = 0
    w = group(name)
    n = len(w.fundamental)
    one = w.gid(w.identity)
    word = [i % n for i in range(8)]
    for ends in ([], [one]):
        for cap in (0, 1):
            start, move = w.distance_to(ends, cap)
            u = one
            s, d = start(u)
            past = False
            for i in word + word[::-1]:
                us = w.step(u, i)
                s, d = move(u, i, us, s, d)
                assert (s, d) == start(us)
                past |= w.lens[us] >= cap
                u = us
            assert past and u == one
            assert d == (0 if ends else cap)


@pytest.mark.parametrize("name", DISTANCE_PRESETS)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_inverse_id_is_the_id_of_the_inverse(name, data):
    # the inverse on ids is the id of the matrix inverse
    w = group(name)
    g = data.draw(extended_elements(name))
    u = w.gid(g)
    assert w.inverse(u) == w.gid(elem_inverse(w, g))
    assert w.inverse(w.inverse(u)) == u


@pytest.mark.parametrize("name", TEN_PRESETS)
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_id_product_and_inverse_match_the_matrix_reference(name, data):
    w = group(name)
    g, h = data.draw(extended_elements(name)), data.draw(extended_elements(name))
    u, v = w.gid(g), w.gid(h)
    assert w.elem(w.multiply(u, v)) == elem_product(w, g, h)
    assert w.elem(w.inverse(u)) == elem_inverse(w, g)
    assert w.multiply(u, w.inverse(u)) == w.multiply(w.inverse(u), u) == w.identity_id
    assert w.multiply(u, w.identity_id) == w.multiply(w.identity_id, u) == u


@pytest.mark.parametrize("name", TEN_PRESETS)
def test_id_product_and_inverse_on_the_length_zero_elements(name):
    # Omega is a group: its products and inverses have length 0
    w = group(name)
    oms = w.omega_elements()
    for a in oms:
        u = w.gid(a)
        for b in oms:
            uv = w.multiply(u, w.gid(b))
            assert w.elem(uv) == elem_product(w, a, b) and w.lens[uv] == 0
        assert w.elem(w.inverse(u)) == elem_inverse(w, a) and w.lens[w.inverse(u)] == 0


def test_finite_elem_equality_reads_mx_only():
    w = group("B2")
    order = w.enumerate_w0()
    for u in order:
        twin = FiniteWeylElem(u.mx, word=(0, 1, 0))  # other word
        assert twin == u and hash(twin) == hash(u)
    assert len(set(order)) == len(order)
    assert order[0] != order[1]


def test_affine_elem_equality_follows_fin_and_trans():
    w = group("B2")
    s = w.simple_reflections[0]
    g = AffineWeylElem(s, (1, 2))
    twin = AffineWeylElem(FiniteWeylElem(s.mx), (1, 2))  # no word cached
    assert g == twin and hash(g) == hash(twin) == hash((s, (1, 2)))
    assert g != AffineWeylElem(s, (2, 1))
    assert g != AffineWeylElem(w.id_fin, (1, 2))
    assert g != (s, (1, 2))
    assert len({g, twin, AffineWeylElem(s, (2, 1))}) == 2


# -- packed ids: fill against the group product, and the field bound ----------


@pytest.mark.parametrize("name", list(W0_SIZES))
@pytest.mark.parametrize("seed", range(3))
def test_fill_steps_are_the_group_product(name, seed):
    # seeded walks on a fresh group, so every new id comes from fill: a batch
    # of ids per letter, repeats included, some of whose entries an earlier
    # id of the batch fills
    rng = random.Random(f"{name}-{seed}")
    w = AffineWeyl(build_preset(name))
    n = len(w.fundamental)
    frontier = [w.gid(w.identity)]
    for _ in range(30):
        i = rng.randrange(n)
        batch = rng.choices(frontier, k=min(len(frontier), 10))
        w.fill(i, batch)
        for u in batch:
            v = w.nxt[i][u]
            g = w.elem(v)
            assert g == elem_product(w, w.elem(u), w.simple_affine(i))
            assert w.nxt[i][v] == u
            assert w.lens[v] == len(w.inversion_levels(g))
            assert w.trans(v) == g.trans and w.gid(g) == v  # the tuple path finds the same id
        frontier = sorted(set(frontier) | {w.nxt[i][u] for u in batch})
    for row in w.nxt:
        assert len(row) == len(w.lens)
        assert all(v < 0 or row[v] == u for u, v in enumerate(row))


def test_an_element_past_the_packed_field_is_refused():
    # A1-weight: t = (x,) has length |x|, so the coordinate bound decides
    w = AffineWeyl(build_preset("A1-weight"))
    for x in (MAX_FIELD - 1, -MAX_FIELD):
        g = w.translation((x,))
        assert w.length(g) == len(w.inversion_levels(g)) == abs(x)
    for x in (MAX_FIELD, -MAX_FIELD - 1, 10**30):
        with pytest.raises(PackedFieldError, match=r"past the packed ids.*\[-65536, 65536\)"):
            w.gid(w.translation((x,)))
    # A2: coordinates in range, but a length past the bound
    a2 = AffineWeyl(build_preset("A2"))
    with pytest.raises(PackedFieldError, match="past the bound of 65536"):
        a2.gid(a2.translation((MAX_FIELD - 1, 0)))
    assert a2.lens == [0] and list(a2._ids.values()) == [a2.identity_id]  # the identity only
    # GLn: a translation along the centre has length 0 but its coordinates
    # still meet the bound
    gl = AffineWeyl(build_preset("GLn(2)"))
    assert gl.length(gl.translation((MAX_FIELD - 1,) * 2)) == 0
    with pytest.raises(PackedFieldError):
        gl.gid(gl.translation((MAX_FIELD,) * 2))


def test_a_step_past_the_length_bound_is_refused_and_adds_no_id():
    w = AffineWeyl(build_preset("A1-weight"))
    u = w.gid(w.translation((MAX_FIELD - 1,)))
    # one generator goes up, to the bound itself; from there the other one
    # goes up past it
    i = next(i for i in range(2) if w.lens[w.step(u, i)] > w.lens[u])
    v = w.step(u, i)
    assert w.lens[v] == MAX_FIELD
    assert w.elem(v) == elem_product(w, w.elem(u), w.simple_affine(i))
    count = len(w.lens)
    with pytest.raises(PackedFieldError, match=f"length {MAX_FIELD + 1}, past the bound"):
        w.step(v, 1 - i)
    assert len(w.lens) == len(w._ids) == count
    assert all(len(row) == count for row in w.nxt) and w.nxt[1 - i][v] == -1
    assert w.step(v, i) == u


@pytest.mark.parametrize("name", ["GLn(2)", "GLn(3)"])
def test_steps_near_the_packed_bound_decode_exactly(name):
    # a centre of MAX_FIELD - 1 puts every step's coordinates at or past
    # MAX_FIELD: the translation fields hold them, and elem reads them back
    rng = random.Random(name)
    w = AffineWeyl(build_preset(name))
    u = w.gid(w.translation((MAX_FIELD - 1,) * w.rank))
    for _ in range(60):
        i = rng.randrange(len(w.fundamental))
        v = w.step(u, i)
        assert w.elem(v) == elem_product(w, w.elem(u), w.simple_affine(i))
        assert w.lens[v] == len(w.inversion_levels(w.elem(v)))
        u = v
    assert max(max(w.trans(u)) for u in range(len(w.lens))) >= MAX_FIELD


def skewed_a1(height):
    """A1 times a torus, in a basis where the root reads ``(1, height)``."""
    return make_datum(2, [[1, 0], [0, 1]], [[1, height]], [[2, 0]])


def test_long_roots_take_64_bit_fields_and_past_that_are_refused():
    # the root (1, 2^30) puts a step's coordinates past 32 bits
    w = AffineWeyl(skewed_a1(1 << 30))
    rng = random.Random(0)
    u = w.gid(w.identity)
    for _ in range(40):
        i = rng.randrange(len(w.fundamental))
        v = w.step(u, i)
        assert w.elem(v) == elem_product(w, w.elem(u), w.simple_affine(i))
        u = v
    assert max(abs(x) for v in range(len(w.lens)) for x in w.trans(v)) >= 1 << 31
    with pytest.raises(PackedFieldError, match="too long"):
        AffineWeyl(skewed_a1(1 << 62)).gid(w.identity)
