"""The (extended) affine Weyl group of a root datum.

Elements are written ``w t_x`` with ``w`` in the finite Weyl group and ``t_x``
translation by ``x`` in X, so the product rule is

    (w t_x)(w' t_{x'}) = (w w') t_{w'^{-1}(x) + x'}.

The group acts on X by ``(w t_z)(x) = w(x + z)`` and dually on affine roots
``a = (b, k)`` (a coroot plus an integer level, the affine function
``a(x) = <x, b> + k``) by ``(w t_z)(a) = (w(b), k - <z, b>)``.

Lengths are computed by the closed formula

    l(w t_x) = sum_{a > 0, w(a) < 0} |<x, a^vee> + 1|
             + sum_{a > 0, w(a) > 0} |<x, a^vee>|

(sums over finite positive roots), which agrees with the number of positive
affine roots sent to negative ones; both are implemented and cross-checked in
the tests.  The fundamental affine roots are the simple coroots at level 0
plus, per irreducible component, the minimal coroot at level 1; elements of
length 0 form the subgroup ``Omega``, which ``factor_extended`` peels off
without ever enumerating it (it is infinite for the "GLn(n)" presets).

Elements are interned to dense int ids, and an id is stored as two ints.
Its key is ``w + 2^wb T``, where ``w`` indexes ``enumerate_w0()`` in the low
``wb`` bits (``2^wb >= |W0|``) and ``T`` packs the translation into biased
fixed-width fields; ``_ids`` maps the key to the id, which is one-to-one on
every datum, GLn included.  Its levels pack, per generator i with
fundamental affine root ``(b_i, k_i)``, the field ``k_i - <b_i, t>``.  An
element is interned from its translation only with every coordinate in
``[-MAX_FIELD, MAX_FIELD)``, and no element with a length past
``MAX_FIELD``; past that :class:`PackedFieldError` is raised.  The fields
are wide enough for every element those bounds admit, so none ever wraps
(see ``_build_packing``).  Tables built once from W0 hold the right product
of each finite element with each generator's finite part (the simple
reflections' columns are the products the breadth-first enumeration of W0
already formed), each finite element's inverse (its reduced word walked
backwards through those products), the integer forms ``P . a^vee`` of the
positive coroots, and each finite element's inversion set as a 0/1 vector.
An element met by its translation gets its key from one ``struct`` pack, and
on a miss its levels from one dot product with packed columns and its length
from the closed formula above.  A step ``u -> u s_i`` reads its level c,
field i of u's levels: the key moves by ``c`` packed roots ``a_i`` plus the
move of its W0 field, the levels by ``c`` packed ``<a_i, b_j>``, and the
length by one, down exactly when ``u`` sends the i-th fundamental affine
root to a negative one.  Each generator keeps a step table ``nxt[i][id]``,
filled in both directions, and lengths live in ``lens[id]``, so a step is a
list read and the descent bit is ``lens[v] < lens[u]``.  ``fill(i, ids)``
fills every missing entry of a letter in one pass, each new id from one
``setdefault``; the Hecke folds call it at a letter's first miss and
``step`` for one id.  No translation tuple is kept per id: ``trans(u)``
decodes it from the key, and ``fin_part(u)`` reads its finite part.  Below
the methods that take elements the id is the one form, with one product
``multiply(u, v)`` and one inverse ``inverse(u)``; the identity is id 0.

A length ``l(u^{-1} v)`` is an L1 distance between two per-root vectors
``K(u^{-1})``, read off ``u``'s translation by ``inverse_coord_rows``.  A
step ``u -> u s_i`` crosses one wall, so it moves one entry of the vector by
one, at the positive root ``+-w(a_i)``, where the entry is ``+-c`` plus a
constant; ``distance_to`` carries a state's packed distances to a set of ends
along such steps, one table entry per step.

The group acts on X only.  A finite element is its matrix ``mx`` on X: it
sends the coroot of a root ``a`` to the coroot of ``w(a)``, so a question on
the coroot side reads the root, and a coroot orbit is walked by the simple
reflections ``s_i(y) = y - <a_i, y> a_i^vee``, with no matrix on Y.  The
element types (``FiniteWeylElem``, ``AffineWeylElem``) are plain slotted
classes and ``AffineRoot`` a named tuple, so importing the package loads no
``dataclasses``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from operator import mul
from struct import Struct
from struct import error as StructError

from .rootdata import (
    DerivedRoots,
    RootDatum,
    RootSystemError,
    Vec,
    coordinate_box,
    derive,
    solve_columns,
    vadd,
    vneg,
)

Matrix = tuple[Vec, ...]

#: Safety cap for finite Weyl group enumeration.
MAX_W0 = 100_000

#: An element is interned from its translation only with every coordinate in
#: ``[-MAX_FIELD, MAX_FIELD)``, and no element with a length past ``MAX_FIELD``;
#: the packed fields of an id are sized for what those bounds admit.
MAX_FIELD = 1 << 16


class PackedFieldError(ValueError):
    """Raised when an element's translation or length is past the bounds of
    the packed ids (see ``MAX_FIELD``)."""


class FiniteWeylElem:
    """A finite Weyl group element, stored as its matrix ``mx`` on X.

    Equality and hashing use only ``mx``; ``word`` (a reduced word in the
    simple reflections, when known) is a cache.  The action on Y is not
    stored: ``w`` sends the coroot of a root ``a`` to the coroot of ``w(a)``.
    """

    __slots__ = ("mx", "word", "_hash")

    def __init__(self, mx: Matrix, word: tuple[int, ...] | None = None):
        self.mx = mx
        self.word = word
        self._hash = hash(mx)

    def __eq__(self, other):
        if other.__class__ is not FiniteWeylElem:
            return NotImplemented
        return self.mx == other.mx

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteWeylElem(mx={self.mx!r})"

    def apply_x(self, x: Vec) -> Vec:
        return tuple([sum(map(mul, row, x)) for row in self.mx])


class AffineWeylElem:
    """``fin . t_trans``: a finite part followed by a translation."""

    __slots__ = ("fin", "trans")

    def __init__(self, fin: FiniteWeylElem, trans: Vec):
        self.fin = fin
        self.trans = trans

    def __eq__(self, other):
        if other.__class__ is not AffineWeylElem:
            return NotImplemented
        return (self.fin, self.trans) == (other.fin, other.trans)

    def __hash__(self) -> int:
        return hash((self.fin, self.trans))

    def __repr__(self) -> str:
        return f"AffineWeylElem(fin={self.fin!r}, trans={self.trans!r})"


class AffineRoot(namedtuple("AffineRoot", "coroot level")):
    """A coroot together with an integer level: the affine function
    ``x -> <x, coroot> + level`` on X."""

    __slots__ = ()


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class AffineWeyl:
    """Context object: the affine Weyl group machinery for one datum."""

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self.derived: DerivedRoots = derive(datum)
        self.rank = datum.rank
        self._pos_root_set = frozenset(self.derived.positive_roots)
        self.id_fin = FiniteWeylElem(_identity(self.rank), word=())
        self.identity = AffineWeylElem(self.id_fin, (0,) * self.rank)

        self.simple_reflections: list[FiniteWeylElem] = []
        for i, (a, b) in enumerate(zip(datum.simple_roots, datum.simple_coroots)):
            self.simple_reflections.append(self._reflection_fin(a, b, word=(i,)))

        # fundamental affine roots: simple coroots at level 0, then one
        # minimal coroot at level 1 per irreducible component
        self.fundamental: list[AffineRoot] = [
            AffineRoot(b, 0) for b in datum.simple_coroots
        ]
        self.generator_names: list[str] = [f"s{i + 1}" for i in range(len(datum.simple_roots))]
        self._gen_fins: list[FiniteWeylElem] = list(self.simple_reflections)
        self._gen_shifts: list[Vec] = [(0,) * self.rank] * len(datum.simple_roots)
        self._gen_roots: list[Vec] = list(datum.simple_roots)
        for ci, comp in enumerate(self._components()):
            high = self._highest_coroot(comp)
            minimal = vneg(high)
            root = self.derived.root[high]  # root of the highest coroot
            beta = vneg(root)               # root of the minimal coroot
            self.fundamental.append(AffineRoot(minimal, 1))
            self.generator_names.append("s0" if ci == 0 else f"s0_{ci + 1}")
            self._gen_fins.append(self._reflection_fin(beta, minimal))
            self._gen_shifts.append(beta)
            self._gen_roots.append(beta)

        self._factor_cache: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._w0_list: list[FiniteWeylElem] | None = None
        self._w_index: dict[Matrix, int] = {}
        self._w0_cols: list[list[int]] = []

        # the interned elements; the W0 tables and the packing are built on
        # first use, and intern the identity first
        self.identity_id = 0
        self._ids: dict[int, int] = {}
        self._keys: list[int] = []
        self._levels: list[int] = []
        self.lens: list[int] = []
        self.nxt: list[list[int]] = [[] for _ in self.fundamental]
        self._wmul: list[list[int]] | None = None
        self._winv: list[int] = []
        self._forms: list[Vec] = []
        self._neg: list[tuple[int, ...]] = []

    # -- construction helpers ------------------------------------------------

    def _reflection_fin(
        self, root: Vec, coroot: Vec, word: tuple[int, ...] | None = None
    ) -> FiniteWeylElem:
        n = self.rank
        pb = self.datum.form(coroot)
        mx = tuple(
            tuple((1 if i == j else 0) - root[i] * pb[j] for j in range(n))
            for i in range(n)
        )
        return FiniteWeylElem(mx, word)

    def _components(self) -> list[list[int]]:
        m = len(self.datum.simple_roots)
        seen = [False] * m
        comps = []
        for start in range(m):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            queue = [start]
            while queue:
                i = queue.pop()
                for j in range(m):
                    if not seen[j] and (
                        self.datum.pair(self.datum.simple_roots[i], self.datum.simple_coroots[j]) != 0
                    ):
                        seen[j] = True
                        comp.append(j)
                        queue.append(j)
            comps.append(sorted(comp))
        return comps

    def _highest_coroot(self, comp: list[int]) -> Vec:
        best: Vec | None = None
        best_coords: tuple[Fraction, ...] | None = None
        candidates: list[tuple[Vec, tuple[Fraction, ...]]] = []
        coroots = self.derived.positive_coroots
        all_coords = solve_columns(self.datum.simple_coroots, coroots)
        if all_coords is None:
            raise RootSystemError("coroot outside span of simple coroots")
        for b, coords in zip(coroots, all_coords):
            support = {i for i, c in enumerate(coords) if c != 0}
            if support <= set(comp):
                candidates.append((b, coords))
                if best_coords is None or sum(coords) > sum(best_coords):
                    best, best_coords = b, coords
        assert best is not None and best_coords is not None
        for _, coords in candidates:
            if any(c > h for c, h in zip(coords, best_coords)):
                raise RootSystemError("component has no highest coroot")
        return best

    # -- group operations ----------------------------------------------------

    def translation(self, x: Vec) -> AffineWeylElem:
        return AffineWeylElem(self.id_fin, tuple(x))

    def simple_affine(self, i: int) -> AffineWeylElem:
        """The generator attached to the i-th fundamental affine root."""
        return AffineWeylElem(self._gen_fins[i], self._gen_shifts[i])

    def fin_mul(self, a: FiniteWeylElem, b: FiniteWeylElem) -> FiniteWeylElem:
        return FiniteWeylElem(_matmul(a.mx, b.mx))

    def fin_inv(self, a: FiniteWeylElem) -> FiniteWeylElem:
        """The inverse, read from the W0 tables (built on first use)."""
        if self._wmul is None:
            self._build_tables()
        return self._w0_list[self._winv[self._w_index[a.mx]]]

    def act_point(self, g: AffineWeylElem, x: Vec) -> Vec:
        """The affine action on X: ``(w t_z)(x) = w(x + z)``."""
        return g.fin.apply_x(vadd(x, g.trans))

    # -- interned elements ---------------------------------------------------

    def _build_tables(self) -> None:
        order = self.enumerate_w0()
        idx = self._w_index
        # the simple columns are the BFS's own products; add the affine generators'
        wmul = self._wmul = self._w0_cols
        affine = self._gen_fins[len(self.simple_reflections):]
        for w, row in zip(order, wmul):
            row += [idx[_matmul(w.mx, g.mx)] for g in affine]
        # w = s_1 ... s_k, so w^{-1} = s_k ... s_1: the word walked backwards
        self._winv = []
        for w in order:
            v = 0
            for i in reversed(w.word):
                v = wmul[v][i]
            self._winv.append(v)
        self._forms = [self.datum.form(b) for b in self.derived.positive_coroots]
        pos = self._pos_root_set
        self._neg = [
            tuple(0 if w.apply_x(a) in pos else 1 for a in self.derived.positive_roots)
            for w in order
        ]
        self._build_packing()
        self._intern(0, self.identity.trans)

    def _build_packing(self) -> None:
        """The field layout of the interned ids (see the module docstring).

        Each field holds its value plus a bias of half its range, and is wide
        enough for every value an interned element can have, so no field
        wraps or borrows and steps need no check but the length.  An element
        is interned from its translation only with every coordinate in
        ``[-MAX_FIELD, MAX_FIELD)``, and never with a length past
        ``MAX_FIELD``.  Every ``b_j`` is a coroot, and ``|<t, b>| <= l + 1``
        for a coroot b (one summand of the length formula), so a level is at
        most ``MAX_FIELD + 2`` in size.  A step moves t by a root, so
        ``t - t0`` is in the root lattice for the element ``t0`` its steps
        began at: it is ``N y`` with ``y_k = <t - t0, b_k>`` over the simple
        coroots, N the simple roots times the inverse transposed Cartan
        matrix, and ``|y_k| <= l(t) + l(t0) + 2``.  So a coordinate is less
        than ``MAX_FIELD + (2 MAX_FIELD + 2) S`` in size, S the largest row
        sum of ``|N|`` (one step past the length bound adds one to that).  A
        translation field is 32 bits when that bound fits (64 otherwise),
        with bias ``2^31``, so flipping each field's top bit gives its value
        in two's complement and one ``struct`` unpack decodes a translation.
        """
        order = self._w0_list
        pos = self._pos_root_set
        datum = self.datum
        gen_forms = [datum.form(f.coroot) for f in self.fundamental]
        cartan = [[sum(map(mul, f, a)) for f in gen_forms] for a in self._gen_roots]
        simple = datum.simple_roots
        k = len(simple)
        units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
        inv = solve_columns([row[:k] for row in cartan[:k]], units)
        spread = max(
            sum(abs(sum(a[m] * x for a, x in zip(simple, col))) for col in inv) for m in range(self.rank)
        )
        reach = MAX_FIELD + int((2 * MAX_FIELD + 4) * spread) + 1
        if reach >= 1 << 63:
            raise PackedFieldError(f"the roots are too long for the packed ids (a step may reach {reach})")
        tw = 32 if reach < 1 << 31 else 64
        lw = (MAX_FIELD + 2).bit_length() + 1
        r, n = self.rank, len(self.fundamental)
        wb = self._wbits = (len(order) - 1).bit_length()
        self._wmask = (1 << wb) - 1
        tbias = 1 << (tw - 1)
        self._tflip = sum(tbias << (tw * j) for j in range(r))
        self._tbytes = r * tw // 8
        fields = Struct(f"<{r}{'i' if tw == 32 else 'q'}")
        self._tpack, self._tunpack = fields.pack, fields.unpack
        self._lwidth, self._lbias, self._lfull = lw, 1 << (lw - 1), (1 << lw) - 1

        def packed(values, width, shift=0):
            return sum(v << (shift + width * j) for j, v in enumerate(values))

        self._lbase = packed([f.level + self._lbias for f in self.fundamental], lw)
        self._lcols = [packed([form[j] for form in gen_forms], lw) for j in range(r)]
        # per generator: its level field, the packed moves per unit of level
        # of the key (the root) and of the levels (<a_i, b_j>), and per W0
        # index the move of the key's W0 field and whether w(a_i) < 0
        self._fills = [
            (
                lw * i,
                packed(a, tw, wb),
                packed(row, lw),
                [col[i] - w for w, col in enumerate(self._wmul)],
                [w.apply_x(a) not in pos for w in order],
            )
            for i, (a, row) in enumerate(zip(self._gen_roots, cartan))
        ]

    def _refuse(self, key: int, length: int) -> None:
        t = self._tunpack(((key >> self._wbits) ^ self._tflip).to_bytes(self._tbytes, "little"))
        raise PackedFieldError(
            f"the element with translation {t} has length {length}, "
            f"past the bound of {MAX_FIELD} of the packed ids"
        )

    def _intern(self, w: int, t: Vec) -> int:
        try:  # struct refuses a coordinate past its field, so no key aliases another
            key = ((int.from_bytes(self._tpack(*t), "little") ^ self._tflip) << self._wbits) + w
        except StructError:
            key = -1
        u = self._ids.get(key)
        if u is None:
            if not -MAX_FIELD <= min(t) <= max(t) < MAX_FIELD:
                raise PackedFieldError(
                    f"translation {t} is past the packed ids: "
                    f"every coordinate must lie in [{-MAX_FIELD}, {MAX_FIELD})"
                )
            length = sum([abs(sum(map(mul, form, t)) + n) for form, n in zip(self._forms, self._neg[w])])
            if length > MAX_FIELD:
                self._refuse(key, length)
            u = self._ids[key] = len(self._keys)
            self._keys.append(key)
            self._levels.append(self._lbase - sum(map(mul, t, self._lcols)))
            self.lens.append(length)
            for row in self.nxt:
                row.append(-1)
        return u

    def gid(self, g: AffineWeylElem) -> int:
        """The dense int id of an element."""
        if self._wmul is None:
            self._build_tables()
        return self._intern(self._w_index[g.fin.mx], g.trans)

    def trans(self, u: int) -> Vec:
        """The translation of the element with id ``u``, decoded from its key."""
        return self._tunpack(((self._keys[u] >> self._wbits) ^ self._tflip).to_bytes(self._tbytes, "little"))

    def fin_part(self, u: int) -> FiniteWeylElem:
        """The finite part of the element with id ``u``, read from its key."""
        return self._w0_list[self._keys[u] & self._wmask]

    def elem(self, u: int) -> AffineWeylElem:
        """The element with id ``u``."""
        return AffineWeylElem(self.fin_part(u), self.trans(u))

    def multiply(self, u: int, v: int) -> int:
        """The id of ``u v``: ``(w t_x)(w' t_{x'}) = (w w') t_{w'^{-1}(x) + x'}``,
        with ``w w'`` read by walking the reduced word of ``w'`` through the
        product table."""
        keys, wmask, order, wmul = self._keys, self._wmask, self._w0_list, self._wmul
        w, wv = keys[u] & wmask, keys[v] & wmask
        for i in order[wv].word:
            w = wmul[w][i]
        x = self.trans(u)
        rows = order[self._winv[wv]].mx
        return self._intern(w, tuple([sum(map(mul, row, x)) + y for row, y in zip(rows, self.trans(v))]))

    def inverse(self, u: int) -> int:
        """The id of ``u^{-1}``: ``(w t_x)^{-1} = w^{-1} t_{-w(x)}``."""
        w = self._keys[u] & self._wmask
        x = self.trans(u)
        return self._intern(self._winv[w], tuple([-sum(map(mul, row, x)) for row in self._w0_list[w].mx]))

    def fill(self, i: int, ids) -> None:
        """Fill ``nxt[i]`` at every id of ``ids`` that has no entry yet, in
        both directions, interning each new ``u s_i`` in the order met.

        For the generator's affine root ``(b_i, k_i)`` and root ``a_i`` (its
        translation part is ``k_i a_i``), ``w t . s_i = (w s_i) t'`` with
        ``t' = t + c a_i``, ``c = k_i - <t, b_i>``: the level of ``(w(b_i), c)``,
        the image of ``(b_i, k_i)`` under ``w t``, and field i of u's levels.
        So a step with ``c = 0`` keeps u's key but its W0 field and all its
        levels, and otherwise the key moves by ``c`` packed roots and the
        levels by ``c`` packed ``<a_i, b_j>``.  The step goes down exactly
        when the image is negative; the length moves by one either way.  A
        new id of length past ``MAX_FIELD`` raises :class:`PackedFieldError`
        and is not interned.
        """
        row = self.nxt[i]
        keys, levs, lens = self._keys, self._levels, self.lens
        table = self._ids
        setdefault = table.setdefault
        wmask, full, bias, lmax = self._wmask, self._lfull, self._lbias, MAX_FIELD
        shift, a, m, dw, negs = self._fills[i]
        top = first = len(keys)
        try:
            for u in ids:
                if row[u] >= 0:
                    continue
                key = keys[u]
                levels = levs[u]
                w = key & wmask
                c = ((levels >> shift) & full) - bias
                if c:
                    key += dw[w] + c * a
                    levels -= c * m
                    up = c > 0
                else:
                    key += dw[w]
                    up = not negs[w]
                v = setdefault(key, top)
                if v == top:
                    length = lens[u] + 1 if up else lens[u] - 1
                    if length > lmax:
                        del table[key]
                        self._refuse(key, length)
                    top += 1
                    keys.append(key)
                    levs.append(levels)
                    lens.append(length)
                    row.append(u)
                else:
                    row[v] = u
                row[u] = v
        finally:  # the other rows get their entries of the new ids, -1
            if top > first:
                pad = [-1] * (top - first)
                for r in self.nxt:
                    if r is not row:
                        r += pad

    def step(self, u: int, i: int) -> int:
        """The id of ``u s_i``: a read of ``nxt[i]``, filled by :meth:`fill`
        on a miss."""
        v = self.nxt[i][u]
        if v < 0:
            self.fill(i, (u,))
            v = self.nxt[i][u]
        return v

    def _descent(self, u: int) -> int | None:
        lens = self.lens
        for i in range(len(self.nxt)):
            if lens[self.step(u, i)] < lens[u]:
                return i
        return None

    def inverse_coord_rows(self) -> list[list[tuple[Vec, int]]]:
        """Per W0 index w and positive root a, the pair ``(r, n)`` with
        ``K_a(u^{-1}) = n + <r, t>`` for ``u = w t``; built per call.

        ``K_a(w t) = <t, a^vee> + [w a < 0]``, over the positive roots a, is
        the summand of the length formula, and ``-K_a(g^{-1})`` numbers the
        strip ``k < <x, a^vee> < k + 1`` that holds the alcove ``g(A)``.  So
        ``l(u^{-1} v) = sum_a |K_a(u^{-1}) - K_a(v^{-1})|``, the walls between
        ``u(A)`` and ``v(A)``, with no product formed.  For ``u = w t`` the
        inverse is ``w^{-1} t_{-w t}``.

        A step ``u -> u s_i`` crosses one wall of ``u(A)``, of direction
        ``w(a_i)`` for the generator's root ``a_i``, so exactly one entry of
        ``K(u^{-1})`` moves: the one at the positive root ``+-w(a_i)``, up by
        one when ``w(a_i)`` is positive and down by one when it is negative.
        """
        if self._wmul is None:
            self._build_tables()
        return [
            [
                (tuple(-sum(f * row[j] for f, row in zip(form, w.mx)) for j in range(self.rank)), n)
                for form, n in zip(self._forms, self._neg[winv])
            ]
            for w, winv in zip(self._w0_list, self._winv)
        ]

    def distance_to(self, ends, cap: int):
        """``(start, move)`` for ``d(u) = min(cap, min over v in ends of l(u^{-1} v))``.

        Each length is an L1 distance between ``K(u^{-1})`` vectors (see
        :meth:`inverse_coord_rows`), and the distances to all ends are summed
        at once: u's packed sum is one int with a field per end,
        ``sum_j l(u^{-1} v_j) << (width j)``.  ``start(u)`` returns the pair
        ``(sum, d(u))`` from u's whole vector.  ``move(u, i, us, sum, d)``
        returns the pair of ``us = u s_i`` from u's pair: one entry of the
        vector moves by one, so the sum moves by one table entry of packed
        ``+-1``s, keyed by that entry's value, ``+-c`` plus a constant for
        u's level c of the generator (see ``walls`` below); every field
        moves by one, so ``d`` moves by at most one, and two mask tests read
        it.  Nothing is kept per id.

        A field f gives ``f + half - 1 - r`` with its high bit clear exactly
        when ``f <= r``.  A field is at most ``l(u) + l(v)``, so while
        ``l(u) < cap + max l(v)`` no field carries into the next; a state past
        that is at ``cap`` unread.  The sum is exact either way, so a walk
        through such states reads true again once it is back.
        """
        rows = self.inverse_coord_rows()
        keys, levs, lens = self._keys, self._levels, self.lens
        wmask, full, bias = self._wmask, self._lfull, self._lbias
        ends = sorted(set(ends))
        top = max((lens[v] for v in ends), default=0)
        limit = cap + top
        half = 1 << (cap + 2 * top).bit_length()
        width = half.bit_length()
        ones = sum(1 << (width * j) for j in range(len(ends)))
        high = half * ones
        offs = [(half - 1 - r) * ones for r in range(cap)]

        def coords(u: int) -> Vec:
            t = self.trans(u)
            return tuple(n + sum(map(mul, r, t)) for r, n in rows[keys[u] & wmask])

        cols = list(zip(*map(coords, ends))) or [()] * len(self._forms)

        # A move of entry j from k to k + 1 adds one to the field of each end
        # with e <= k and takes one from the others: ``2 P - ones``, P the
        # packed ones of those ends, a prefix sum over the ends sorted by e.
        # A move down from k adds one where e >= k.
        sides = []
        for col in cols:
            order = sorted(range(len(col)), key=col.__getitem__)
            pre = [0]
            for m in order:
                pre.append(pre[-1] + (1 << (width * m)))
            sides.append(([col[m] for m in order], pre))

        # the wall of u -> u s_i, per (w, i): u's level field c of the
        # generator, the entry's value at c = 0 and the sign of c in it, its
        # root, the direction it moves in, and the packed moves keyed by its
        # value.  The entry is at the root a = +-w(a_i), so w^{-1}(a^vee) =
        # +-b_i and <r, t> = -<t, w^{-1}(a^vee)> = -+(k_i - c).
        root_index = {a: j for j, a in enumerate(self.derived.positive_roots)}
        moves = [({}, {}) for _ in cols]
        walls = []
        for w, row in zip(self._w0_list, rows):
            wall = []
            for i, (a, f) in enumerate(zip(self._gen_roots, self.fundamental)):
                b = w.apply_x(a)
                j = root_index.get(b)
                up = j is not None
                if not up:
                    j = root_index[vneg(b)]
                n = row[j][1]
                base, sign = (n - f.level, 1) if up else (n + f.level, -1)
                wall.append((self._lwidth * i, base, sign, j, up, moves[j][up]))
            walls.append(wall)

        def start(u: int) -> tuple[int, int]:
            s = sum(abs(k - e) << (width * m) for k, col in zip(coords(u), cols) for m, e in enumerate(col))
            d = cap if lens[u] >= limit else 0
            while d < cap and (s + offs[d]) & high == high:
                d += 1
            return s, d

        def move(u: int, i: int, us: int, s: int, d: int) -> tuple[int, int]:
            shift, base, sign, j, up, table = walls[keys[u] & wmask][i]
            k = base + sign * (((levs[u] >> shift) & full) - bias)
            p = table.get(k)
            if p is None:
                es, pre = sides[j]
                if up:
                    p = 2 * pre[bisect_right(es, k)] - ones
                else:
                    p = ones - 2 * pre[bisect_left(es, k)]
                table[k] = p
            s += p
            if lens[us] >= limit:
                return s, cap
            if d and (s + offs[d - 1]) & high != high:
                return s, d - 1
            if d < cap and (s + offs[d]) & high == high:
                return s, d + 1
            return s, d

        return start, move

    # -- lengths and descents ------------------------------------------------

    def length(self, g: AffineWeylElem) -> int:
        return self.lens[self.gid(g)]

    def inversion_levels(self, g: AffineWeylElem) -> list[AffineRoot]:
        """The positive affine roots sent to negative ones by ``g``."""
        out = []
        pos = self._pos_root_set
        for a, b in zip(self.datum.roots, self.datum.coroots):
            n = self.datum.pair(g.trans, b)
            lo = 0 if a in pos else 1
            for k in range(lo, n):
                out.append(AffineRoot(b, k))
            if n >= lo and g.fin.apply_x(a) not in pos:
                out.append(AffineRoot(b, n))
        return out

    def gen_step(self, g: AffineWeylElem, i: int) -> tuple[AffineWeylElem, bool]:
        """``(g s_i, l(g s_i) < l(g))``, read from the step and length tables."""
        u = self.gid(g)
        v = self.step(u, i)
        return self.elem(v), self.lens[v] < self.lens[u]

    def factor_extended(self, u: int) -> tuple[int, tuple[int, ...]]:
        """Write ``u = omega . s_{i_1} ... s_{i_k}`` with ``l(omega) = 0`` and
        the word reduced (each step raises the length by one): the id of
        omega and the word.  An element ``u`` is also taken, at the public
        edge, and gets its omega back as an element."""
        if not isinstance(u, int):
            om, word = self.factor_extended(self.gid(u))
            return self.elem(om), word
        cached = self._factor_cache.get(u)
        if cached is not None:
            return cached
        om = u
        rev: list[int] = []
        while True:
            i = self._descent(om)
            if i is None:
                break
            rev.append(i)
            om = self.step(om, i)
        if self.lens[om] != 0:
            raise RootSystemError("descent-free element has nonzero length")
        out = om, tuple(reversed(rev))
        self._factor_cache[u] = out
        return out

    # -- finite Weyl group ---------------------------------------------------

    def enumerate_w0(self) -> list[FiniteWeylElem]:
        """All finite Weyl group elements, BFS by length, with reduced words."""
        if self._w0_list is not None:
            return self._w0_list
        order = [self.id_fin]
        index: dict[Matrix, int] = {self.id_fin.mx: 0}
        cols = self._w0_cols = []  # cols[k][i]: the index of order[k]·s_i
        for w in order:  # order grows as the queue of the BFS
            row = []
            for i, s in enumerate(self.simple_reflections):
                mx = _matmul(w.mx, s.mx)
                k = index.get(mx)
                if k is None:
                    k = index[mx] = len(order)
                    order.append(FiniteWeylElem(mx, word=w.word + (i,)))
                    if k >= MAX_W0:
                        raise RootSystemError("finite Weyl group exceeded the safety cap")
                row.append(k)
            cols.append(row)
        self._w0_list = order
        self._w_index = index
        return order

    def longest_element(self) -> FiniteWeylElem:
        order = self.enumerate_w0()
        return order[-1]

    def fin_word(self, w: FiniteWeylElem) -> tuple[int, ...]:
        """A reduced word for a finite element: its BFS word in ``enumerate_w0``."""
        if w.word is not None:
            return w.word
        order = self.enumerate_w0()
        return order[self._w_index[w.mx]].word

    def as_affine(self, w: FiniteWeylElem) -> AffineWeylElem:
        return AffineWeylElem(w, (0,) * self.rank)

    def omega_elements(self, box: int = 2) -> list[AffineWeylElem]:
        """Length-zero elements whose translation part lies in [-box, box].

        For data whose translation lattice equals the root lattice this is
        just the identity; otherwise each coset meeting the scanned window
        contributes one element.
        """
        if self._wmul is None:
            self._build_tables()
        points = coordinate_box(self.rank, -box, box)
        out = []
        for w, neg in zip(self._w0_list, self._neg):
            for p in points:  # length 0: every summand of the length formula is 0
                if all(sum(map(mul, form, p)) + n == 0 for form, n in zip(self._forms, neg)):
                    out.append(AffineWeylElem(w, p))
        return out

    def elements_up_to_length(self, lmax: int) -> list[AffineWeylElem]:
        """All elements of length at most ``lmax`` whose length-zero factor
        is one of ``omega_elements()``, ordered BFS by length."""
        order = [self.gid(g) for g in self.omega_elements()]
        lens = self.lens
        seen = set(order)
        frontier = list(order)
        for _ in range(lmax):
            nxt = []
            for u in frontier:
                for i in range(len(self.fundamental)):
                    v = self.step(u, i)
                    if lens[v] > lens[u] and v not in seen:
                        seen.add(v)
                        order.append(v)
                        nxt.append(v)
            frontier = nxt
        return [self.elem(u) for u in order]

    # -- orbits --------------------------------------------------------------

    def coroot_orbit(self, b: Vec) -> set[Vec]:
        """The finite Weyl orbit of a vector of Y, closed under the simple
        reflections ``s_i(y) = y - <a_i, y> a_i^vee``, so W0 itself is never
        enumerated."""
        simple = list(zip(self.datum.simple_roots, self.datum.simple_coroots))
        orbit = {b}
        frontier = [b]
        while frontier:
            cur = frontier.pop()
            form = self.datum.form(cur)
            for a, c in simple:
                n = sum(map(mul, a, form))
                if not n:
                    continue
                nxt = tuple([y - n * x for y, x in zip(cur, c)])
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        return orbit

    # -- serialization -------------------------------------------------------

    def elem_to_obj(self, g: AffineWeylElem) -> dict:
        return {
            "word": [i + 1 for i in self.fin_word(g.fin)],
            "translation": list(g.trans),
        }
