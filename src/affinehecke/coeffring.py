"""Exact coefficient arithmetic: Laurent polynomials and parameter labels.

The Hecke parameters live in a Laurent polynomial ring over Q with one
variable ``v_c`` per conjugacy class ``c`` of affine generators; the class
parameter is ``q_c = v_c^2``, and square roots such as ``delta^{1/2}`` or
``q^{1/2}`` for a halved coroot are honest monomials in the ``v_c``.

Two conjugate generators must carry the same parameter, and conjugacy of
generators is detected through the orbits of their fundamental affine roots:
the orbit of ``(b, k)`` consists of the pairs ``(b', k')`` with ``b'`` in the
finite Weyl orbit of ``±b`` and ``k' = ±k`` modulo ``d``, where ``d = 2``
exactly when ``b`` is divisible by 2 in Y and ``d = 1`` otherwise.

For a divisible-by-2 coroot the two ends of the orbit *swap* values: the
level-parity carrying the finite generator's affine root is labelled with the
affine generator's parameter and vice versa.  This crossing is forced by the
requirement that the multiplicative extension of the labels reproduce
``q(s)`` on every generator (each generator's defining product shifts the
level by one, flipping the parity), and it is what makes the translation
weight ``delta`` come out right on the non-reduced presets.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .rootdata import Vec, vneg, vscale
from .weyl import AffineWeyl, AffineWeylElem, FiniteWeylElem


class ExactDivisionError(ArithmeticError):
    """Raised when a Laurent polynomial division has a remainder."""


class LabelConfigError(ValueError):
    """Raised for label assignments that break conjugacy or parse rules."""


# ---------------------------------------------------------------------------
# sparse Laurent polynomials
#
# A monomial is keyed by one int: its exponent vector read as balanced
# base-2^FIELD_BITS digits, variable 0 most significant,
#
#     key(e) = sum_i e_i * 2^(FIELD_BITS * (n - 1 - i)),   |e_i| <= MAX_EXP.
#
# Adding two keys adds their exponent vectors, so a product of monomials is
# one int addition and a product with a monomial shifts every key; int order
# is the lexicographic order of the exponent tuples, so sorting and leading
# terms need no decoding.  Both hold only while every digit stays inside its
# field.  Each polynomial therefore carries ``bound``, an upper bound on its
# largest |exponent|, and an operation whose result could leave the field
# raises ExponentOverflowError rather than carry into the next variable.

FIELD_BITS = 16
_HALF = 1 << (FIELD_BITS - 1)
_MASK = (1 << FIELD_BITS) - 1
#: Largest |exponent| a packed field holds.
MAX_EXP = _HALF - 1


class ExponentOverflowError(OverflowError):
    """Raised when an exponent could leave its packed field."""


def _ratio(c):
    """Normalize a rational scalar: plain int when integral (int arithmetic
    is far cheaper than Fraction in the inner loops), Fraction otherwise."""
    if type(c) is int:
        return c
    f = c if isinstance(c, Fraction) else Fraction(c)
    return f.numerator if f.denominator == 1 else f


def _pack(exps) -> int:
    key = 0
    for x in exps:
        if not -MAX_EXP <= x <= MAX_EXP:
            raise ExponentOverflowError(f"exponent {x} is outside the packed field (+-{MAX_EXP})")
        key = (key << FIELD_BITS) + x
    return key


def _unpack(key: int, n: int) -> tuple[int, ...]:
    out = [0] * n
    for i in range(n - 1, -1, -1):
        d = ((key + _HALF) & _MASK) - _HALF
        out[i] = d
        key = (key - d) >> FIELD_BITS
    return tuple(out)


_new = object.__new__


def _make(variables: tuple[str, ...], terms: dict, bound: int) -> "LaurentPoly":
    """A polynomial from packed terms (no zero coefficients) and a bound."""
    p = _new(LaurentPoly)
    p.vars = variables
    p.terms = terms
    p.bound = bound
    return p


def _product_bound(a: "LaurentPoly", b: "LaurentPoly") -> int:
    """Tighten both bounds to the exact largest |exponent| and return their
    sum; raise when even that could leave the field."""
    for p in (a, b):
        n = len(p.vars)
        p.bound = max((abs(x) for k in p.terms for x in _unpack(k, n)), default=0)
    bound = a.bound + b.bound
    if bound > MAX_EXP:
        raise ExponentOverflowError(
            f"a product exponent could reach {bound}, past the packed field (+-{MAX_EXP})"
        )
    return bound


class LaurentPoly:
    """A Laurent polynomial: sparse map from exponent vectors to rationals.

    ``terms`` maps packed exponent keys (see above) to coefficients; the
    constructor, :meth:`monomial` and :meth:`sorted_terms` speak exponent
    tuples.  Coefficients are int or Fraction (ints whenever the value is
    integral); the two mix freely and compare/hash equal, so no arithmetic
    path needs to care which representation a coefficient is in.
    """

    __slots__ = ("vars", "terms", "bound")

    def __init__(self, variables: tuple[str, ...], terms: dict):
        """``terms`` maps exponent tuples, one entry per variable, to rationals."""
        n = len(variables)
        packed = {}
        bound = 0
        for e, c in terms.items():
            if c:
                if len(e) != n:
                    raise ValueError(f"exponent {e} does not match the variables {variables}")
                packed[_pack(e)] = c
                bound = max(bound, max(map(abs, e), default=0))
        self.vars = variables
        self.terms = packed
        self.bound = bound

    # -- constructors

    @staticmethod
    def zero(variables: tuple[str, ...]) -> "LaurentPoly":
        return _make(variables, {}, 0)

    @staticmethod
    def const(variables: tuple[str, ...], c) -> "LaurentPoly":
        c = _ratio(c)
        return _make(variables, {0: c} if c else {}, 0)

    @staticmethod
    def one(variables: tuple[str, ...]) -> "LaurentPoly":
        return _make(variables, {0: 1}, 0)

    @staticmethod
    def monomial(variables: tuple[str, ...], exps: tuple[int, ...], c=1) -> "LaurentPoly":
        return LaurentPoly(variables, {tuple(exps): _ratio(c)})

    # -- predicates and views

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        n = len(self.vars)
        return [(_unpack(k, n), c) for k, c in sorted(self.terms.items())]

    # -- ring operations

    def _check(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.vars is not other.vars:
            self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        a, b = self.bound, other.bound
        return _make(self.vars, out, a if a > b else b)

    def __neg__(self) -> "LaurentPoly":
        return _make(self.vars, {k: -c for k, c in self.terms.items()}, self.bound)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.vars is not other.vars:
            self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) - c
            if s:
                out[k] = s
            else:
                del out[k]
        a, b = self.bound, other.bound
        return _make(self.vars, out, a if a > b else b)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            c = _ratio(other)
            if not c:
                return _make(self.vars, {}, 0)
            return _make(self.vars, {k: cc * c for k, cc in self.terms.items()}, self.bound)
        if self.vars is not other.vars:
            self._check(other)
        bound = self.bound + other.bound
        if bound > MAX_EXP:
            bound = _product_bound(self, other)
        if len(self.terms) > len(other.terms):
            big, small = self.terms, other.terms
        else:
            big, small = other.terms, self.terms
        if len(small) <= 1:
            if not small:
                return _make(self.vars, {}, 0)
            # a monomial factor shifts every key; no two terms can meet
            ((k, c),) = small.items()
            if c == 1:
                return _make(self.vars, {e + k: cc for e, cc in big.items()}, bound)
            return _make(self.vars, {e + k: cc * c for e, cc in big.items()}, bound)
        rows = iter(small.items())
        k2, c2 = next(rows)
        out = {k1 + k2: c1 * c2 for k1, c1 in big.items()}
        get = out.get
        for k2, c2 in rows:
            for k1, c1 in big.items():
                key = k1 + k2
                s = get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return _make(self.vars, out, bound)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            return self.inverse() ** (-n)
        out = LaurentPoly.one(self.vars)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def inverse(self) -> "LaurentPoly":
        """Inverse of a unit (a single-term polynomial)."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible in the Laurent ring")
        ((k, c),) = self.terms.items()
        inv = _ratio(Fraction(1, c) if type(c) is int else 1 / c)
        return _make(self.vars, {-k: inv}, self.bound)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{k}" if k != 1 else v for v, k in zip(self.vars, e) if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)

    # -- evaluation

    def evaluate(self, values: dict[str, object]):
        """Evaluate at scalars (Fraction, float or complex) per variable,
        summing in sorted monomial order so that a float value depends on
        the polynomial only, not on the order its terms were built in."""
        missing = [v for v in self.vars if v not in values]
        if missing:
            raise ValueError(f"no value for variable(s) {missing}")
        n = len(self.vars)
        vals = [values[v] for v in self.vars]
        total = None
        for k, c in sorted(self.terms.items()):
            term = c
            for x, e in zip(vals, _unpack(k, n)):
                if e:
                    term = term * x**e
            total = term if total is None else total + term
        if total is None:
            sample = next(iter(values.values()), Fraction(0))
            return 0j if isinstance(sample, complex) else Fraction(0)
        return total


def power_table(value, lo: int, hi: int) -> tuple[list, object]:
    """Powers ``value**lo .. value**hi`` over one denominator.

    Returns ``(table, den)`` with ``table[e - lo] / den == value**e``.  For a
    rational ``value = n/d`` (int or Fraction) the table holds the ints
    ``n**(e - lo) * d**(hi - e)`` and ``den`` is the Fraction
    ``n**-lo * d**hi``; any other value (float, complex) gets its plain
    powers and ``den = 1``.
    """
    if isinstance(value, (int, Fraction)):
        n, d = value.numerator, value.denominator
        table = [n ** (e - lo) * d ** (hi - e) for e in range(lo, hi + 1)]
        return table, Fraction(n) ** -lo * Fraction(d) ** hi
    return [value**e for e in range(lo, hi + 1)], 1


def exact_divide(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact quotient ``f / g`` in the Laurent ring.

    Works by clearing each argument to an honest polynomial (per-coordinate
    minimal exponents are a valuation, so exactness is preserved) and running
    single-divisor multivariate division in lexicographic order; a domain
    guarantees the leading term of the dividend stays divisible whenever the
    quotient exists.  Raises :class:`ExactDivisionError` otherwise, and
    :class:`ExponentOverflowError` when a remainder term could leave the
    packed field.

    No command divides: the division-free formulas are checked against this
    reference in the tests, and the benchmark's tracer keeps a span on it.
    """
    if not g:
        raise ExactDivisionError("division by zero")
    if not f:
        return LaurentPoly.zero(f.vars)
    f._check(g)
    n = len(f.vars)

    def cleared(p: LaurentPoly):
        """(least exponents, largest cleared exponent, cleared packed terms)"""
        exps = [_unpack(k, n) for k in p.terms]
        low = tuple(min(col) for col in zip(*exps))
        shifted = [tuple(a - s for a, s in zip(e, low)) for e in exps]
        top = max((x for e in shifted for x in e), default=0)
        return low, top, {_pack(e): c for e, c in zip(shifted, p.terms.values())}

    sf, _, fterms = cleared(f)
    sg, gtop, gterms = cleared(g)
    glead = max(gterms)
    glead_c = gterms[glead]
    room = MAX_EXP - gtop  # largest quotient exponent whose remainder terms fit
    quot: dict[int, Fraction] = {}
    while fterms:
        flead = max(fterms)
        exp = flead - glead
        digits = _unpack(exp, n)
        if any(x < 0 for x in digits):
            raise ExactDivisionError("not divisible")
        if any(x > room for x in digits):
            raise ExponentOverflowError(
                f"a division remainder could leave the packed field (+-{MAX_EXP})"
            )
        c = _ratio(Fraction(fterms[flead]) / Fraction(glead_c))
        quot[exp] = c
        for ge, gc in gterms.items():
            key = ge + exp
            s = fterms.get(key, 0) - c * gc
            if s:
                fterms[key] = s
            else:
                fterms.pop(key, None)
    shift = tuple(a - b for a, b in zip(sf, sg))
    return LaurentPoly(
        f.vars,
        {tuple(a + b for a, b in zip(_unpack(k, n), shift)): c for k, c in quot.items()},
    )


def accumulate(out: dict, key, c) -> None:
    """Add ``c`` into ``out[key]`` in place; a sum that cancels drops the
    key, so a dict built only through here holds no zero coefficient.
    ``c`` is any coefficient: a Laurent polynomial or an exact number."""
    s = out.get(key)
    if s is not None:
        c = s + c
    if c:
        out[key] = c
    elif s is not None:
        del out[key]


def poly_to_obj(p: LaurentPoly) -> dict:
    return {
        "vars": list(p.vars),
        "terms": [
            {"exp": list(e), "num": c.numerator, "den": c.denominator}
            for e, c in p.sorted_terms()
        ],
    }


def obj_to_poly(obj: dict) -> LaurentPoly:
    variables = tuple(obj["vars"])
    terms = {
        tuple(int(x) for x in t["exp"]): _ratio(Fraction(int(t["num"]), int(t["den"])))
        for t in obj["terms"]
    }
    return LaurentPoly(variables, terms)


# ---------------------------------------------------------------------------
# parameter labels


class LabelSet:
    """The parameter classes of a datum and every label lookup built on them.

    One Laurent variable per conjugacy class of affine generators; all label
    functions (generator parameters, affine-root labels with the crossed rule
    for coroots divisible by 2, the per-root c-function pair ``c_pair``, the
    translation weight ``delta`` and its square root, full products ``q(w)``)
    return monomials or polynomials in those variables.
    """

    def __init__(self, weyl: AffineWeyl):
        self.weyl = weyl
        datum = weyl.datum

        # finite Weyl orbits of coroots (negatives included automatically:
        # each reflection sends its own coroot to its negative)
        self.orbit_id: dict[Vec, int] = {}
        next_id = 0
        for b in datum.coroots:
            if b in self.orbit_id:
                continue
            orbit = weyl.coroot_orbit(b)
            if vneg(b) not in orbit:
                orbit |= {vneg(v) for v in orbit}
            for v in orbit:
                self.orbit_id[v] = next_id
            next_id += 1

        def dval(coroot: Vec) -> int:
            return 2 if all(v % 2 == 0 for v in coroot) else 1

        self._dval = dval

        # conjugacy classes of the generators, keyed by (orbit, level mod d)
        keys: list[tuple[int, int]] = []
        for a in weyl.fundamental:
            d = dval(a.coroot)
            keys.append((self.orbit_id[a.coroot], a.level % d))
        class_members: dict[tuple[int, int], list[int]] = {}
        for j, key in enumerate(keys):
            class_members.setdefault(key, []).append(j)
        ordered = sorted(class_members.items(), key=lambda kv: kv[1][0])
        self._key_to_class: dict[tuple[int, int], int] = {
            k: i for i, (k, _) in enumerate(ordered)
        }
        self.gen_class: list[int] = [self._key_to_class[k] for k in keys]
        # each class's variable is named after its first generator
        self.vars: tuple[str, ...] = tuple(
            "v" + weyl.generator_names[gens[0]][1:] for _, gens in ordered
        )
        # the normalised basis's own variables, xi_c = v_c - v_c^{-1}; a
        # separate tuple, so a sum with a v-polynomial raises
        self.xi_vars: tuple[str, ...] = tuple("xi" + v[1:] for v in self.vars)
        self._pairs: dict[Vec, tuple[LaurentPoly, LaurentPoly]] = {}
        # F_c = sum_beta halfexp_c(q_{beta^vee}) * beta^vee over the positive
        # non-reduced extension: delta_sqrt(x) has v_c-exponent <x, F_c>,
        # the dot product of x with the integer form P . F_c kept here
        forms = [[0] * datum.rank for _ in self.vars]
        for root, coroot in weyl.derived.nonreduced_positive:
            half = self.root_label_half_exps(root)
            assert half is not None
            for f, h in zip(forms, half):
                for j, b in enumerate(coroot):
                    f[j] += h * b
        self._delta_forms: list[Vec] = [weyl._form(f) for f in forms]

    # -- basic monomials -----------------------------------------------------

    def _mono(self, exps: tuple[int, ...]) -> LaurentPoly:
        return LaurentPoly.monomial(self.vars, exps)

    def one(self) -> LaurentPoly:
        return LaurentPoly.one(self.vars)

    def zero(self) -> LaurentPoly:
        return LaurentPoly.zero(self.vars)

    def _unit_exps(self, cls: int, mult: int) -> tuple[int, ...]:
        return tuple(mult if i == cls else 0 for i in range(len(self.vars)))

    # -- label lookups -------------------------------------------------------

    def q_of_gen(self, j: int) -> LaurentPoly:
        """The parameter ``q(s_j)`` of the j-th fundamental generator."""
        return self._mono(self._unit_exps(self.gen_class[j], 2))

    def q_of_gen_inv(self, j: int) -> LaurentPoly:
        """The inverse ``q(s_j)^{-1}`` of the j-th generator's parameter."""
        return self._mono(self._unit_exps(self.gen_class[j], -2))

    def affine_label_class(self, coroot: Vec, level: int) -> int:
        """The class whose parameter labels the affine root ``(coroot, level)``."""
        o = self.orbit_id.get(coroot)
        if o is None:
            raise LabelConfigError(f"{coroot} is not a coroot of the datum")
        if self._dval(coroot) == 1:
            key = (o, 0)
        else:
            key = (o, (level + 1) % 2)  # crossed: see the module docstring
        cls = self._key_to_class.get(key)
        if cls is None:
            raise LabelConfigError(f"no generator class for affine root {(coroot, level)}")
        return cls

    def affine_label_half_exps(self, coroot: Vec, level: int) -> tuple[int, ...]:
        """v-exponents of the square root of the affine-root label."""
        return self._unit_exps(self.affine_label_class(coroot, level), 1)

    def root_label_half_exps(self, root: Vec) -> tuple[int, ...] | None:
        """v-exponents of ``q_{beta^vee}^{1/2}`` for ``beta`` in the
        non-reduced extension; None when the label is 1 by convention."""
        der = self.weyl.derived
        if root in der.coroot:  # an honest root of R0
            return self.affine_label_half_exps(der.coroot[root], 0)
        half = tuple(Fraction(v, 2) for v in root)
        if all(h.denominator == 1 for h in half):
            r = tuple(int(h) for h in half)
            if r in der.coroot and all(v % 2 == 0 for v in der.coroot[r]):
                # root = 2r with the coroot of r divisible: label is a quotient
                b = der.coroot[r]
                e1 = self.affine_label_half_exps(b, 1)
                e0 = self.affine_label_half_exps(b, 0)
                return tuple(x - y for x, y in zip(e1, e0))
        return None

    def c_pair(self, root: Vec) -> tuple[LaurentPoly, LaurentPoly]:
        """The monomials ``(A_a, B_a)`` that fix every per-root c-function
        formula at ``a = root``:

            A_a = (q_{2a}^{1/2} q_a)^{-1},   B_a = q_{2a}^{-1/2},

        where ``q_b`` is the label ``q_{b^vee}`` of ``b`` in the non-reduced
        extension and 1 for any other vector; so ``q_a = A_a^{-1} B_a``,
        ``q_{2a} = B_a^{-2}``, and ``B_a = 1`` unless ``2a`` is in the extension.  The
        c-function factor is ``c(a, t) = (1 - A_a u) / (1 - B_a u)`` with
        ``u = t(-a)``.  Memoised per root.
        """
        root = tuple(root)
        pair = self._pairs.get(root)
        if pair is None:
            zero = (0,) * len(self.vars)
            ea = self.root_label_half_exps(root) or zero
            eb = self.root_label_half_exps(vscale(2, root)) or zero
            a = self._mono(tuple(-2 * x - y for x, y in zip(ea, eb)))
            pair = self._pairs[root] = (a, self._mono(tuple(-y for y in eb)))
        return pair

    # -- multiplicative extensions -------------------------------------------

    def q_of_w(self, g: AffineWeylElem) -> LaurentPoly:
        """``q(g)``: the product of affine-root labels, one level up, over
        the inversion set of ``g``.  Always a monomial in the ``v_c``."""
        exps = [0] * len(self.vars)
        for a in self.weyl.inversion_levels(g):
            cls = self.affine_label_class(a.coroot, a.level + 1)
            exps[cls] += 2
        return self._mono(tuple(exps))

    def q_of_word(self, word: tuple[int, ...]) -> LaurentPoly:
        exps = [0] * len(self.vars)
        for i in word:
            exps[self.gen_class[i]] += 2
        return self._mono(tuple(exps))

    def q_of_fin(self, w: FiniteWeylElem) -> LaurentPoly:
        return self.q_of_word(self.weyl.fin_word(w))

    def delta_sqrt(self, x: Vec) -> LaurentPoly:
        """The square root of the translation weight: the monomial with
        v-exponents ``sum_beta <x, beta^vee> * halfexp(q_{beta^vee})`` over
        the positive non-reduced extension, i.e. ``<x, F_c>`` per variable."""
        return self._mono(tuple(sum(map(mul, f, x)) for f in self._delta_forms))

    def poincare(self, elems) -> LaurentPoly:
        """Sum of ``q(w)`` over a collection of finite elements."""
        out = self.zero()
        for w in elems:
            out = out + self.q_of_fin(w)
        return out

    # -- the normalised basis ------------------------------------------------
    #
    # On T~_w = v(w)^{-1} T_w, with v(w) = q(w)^{1/2}, a generator's inverse is
    # T~_s^{-1} = T~_s - xi_s, where xi_s = v_s - v_s^{-1}.  Coefficients on
    # that basis are polynomials in one xi_c per class, over ``xi_vars``.

    def xi_step(self, j: int) -> LaurentPoly:
        """``-xi_c`` for the class c of the j-th generator: the factor an up
        step of the inverse fold puts on the normalised basis (see
        ``HeckeAlgebra._rmul_gen``)."""
        return LaurentPoly.monomial(self.xi_vars, self._unit_exps(self.gen_class[j], 1), -1)

    def from_xi(self, c: LaurentPoly) -> LaurentPoly:
        """``c`` with ``xi_c = v_c - v_c^{-1}`` substituted.

        The xi exponents of ``c`` are non-negative.  One variable at a time,
        most significant field first, ``xi^k`` becomes
        ``sum_j C(k, j) (-1)^j v^{k - 2j}``: a key shift per j.  The fields
        below the current one still hold xi exponents in ``[0, MAX_EXP]``,
        so the current field reads off the key as its low bits after a shift.
        """
        n = len(self.vars)
        terms = c.terms
        for i in range(n):
            shift = FIELD_BITS * (n - 1 - i)
            two = 2 << shift  # v^{-2} in field i
            out: dict = {}
            get = out.get
            for key, a in terms.items():
                k = (key >> shift) & _MASK
                for j in range(k + 1):
                    g = key - j * two
                    b = math.comb(k, j)
                    s = get(g, 0) + (-a * b if j & 1 else a * b)
                    if s:
                        out[g] = s
                    else:
                        del out[g]
            terms = out
        return _make(self.vars, terms, c.bound)

    # -- numeric assignments -------------------------------------------------

    def at(self, assignment: dict) -> "LabelValues":
        """The labels read at an exact assignment (see :class:`LabelValues`)."""
        return LabelValues(self, assignment)

    def numeric_assignment(self, q_values: dict[str, object], mode: str) -> dict[str, object]:
        """Turn per-generator ``q`` values into per-class ``v`` values.

        Keys are generator names ("s1", ..., "s0"); every generator of a class
        must receive the same value and every class must be covered.  In
        ``rational`` mode the values must be positive rationals whose square
        root is exact; ``complex`` mode accepts any positive real whose float
        is finite and nonzero, since it computes in floating point, and falls
        back to a float square root where the exact one does not exist.
        """
        if mode not in ("rational", "complex"):
            raise LabelConfigError(f"unknown mode {mode!r}")
        per_class: dict[int, Fraction] = {}
        names = self.weyl.generator_names
        for key, raw in q_values.items():
            if key not in names:
                raise LabelConfigError(f"unknown generator {key!r}; expected one of {names}")
            q = _parse_rational(raw)
            if q <= 0:
                raise LabelConfigError(f"label for {key} must be positive, got {q}")
            if mode == "complex" and not 0 < _float(q) < math.inf:
                raise LabelConfigError(
                    f"label for {key} is outside the floating-point range of complex mode, "
                    f"got {raw!r}"
                )
            cls = self.gen_class[names.index(key)]
            if cls in per_class and per_class[cls] != q:
                raise LabelConfigError(
                    f"conflicting labels within one conjugacy class (generator {key})"
                )
            per_class[cls] = q
        missing = [self.vars[i] for i in range(len(self.vars)) if i not in per_class]
        if missing:
            raise LabelConfigError(f"no label given for class(es) {missing}")
        out: dict[str, object] = {}
        for i, var in enumerate(self.vars):
            q = per_class[i]
            root = _exact_sqrt(q)
            if root is not None:
                out[var] = root
            elif mode == "rational":
                raise LabelConfigError(
                    f"label {q} for class {var} is not a perfect square; "
                    "rational mode needs exact square roots"
                )
            else:
                out[var] = math.sqrt(float(q))
        return out


class LabelValues:
    """A :class:`LabelSet` read at an exact label assignment.

    It answers the lookups the Hecke folds and the Bernstein expansion make
    (``one``, ``zero``, ``q_of_gen``, ``q_of_gen_inv``, ``delta_sqrt``) with
    numbers instead of monomials, so an algebra built over it folds exact
    numbers.  Every value is an int where it is integral and a Fraction
    otherwise: with integral generator parameters a forward fold runs on
    ints.  Values are evaluated at Fraction labels, so no inverse is ever
    taken as ``int ** -1``, which would be a float.
    """

    def __init__(self, labels: LabelSet, assignment: dict):
        values = {v: assignment[v] for v in labels.vars}
        if not all(isinstance(x, (int, Fraction)) for x in values.values()):
            raise LabelConfigError("a numeric label view needs exact rational values")
        self.weyl = labels.weyl
        self._labels = labels
        self._values = {v: Fraction(x) for v, x in values.items()}

    def _value(self, poly: LaurentPoly):
        return _ratio(poly.evaluate(self._values))

    def one(self) -> int:
        return 1

    def zero(self) -> int:
        return 0

    def q_of_gen(self, j: int):
        return self._value(self._labels.q_of_gen(j))

    def q_of_gen_inv(self, j: int):
        return self._value(self._labels.q_of_gen_inv(j))

    def delta_sqrt(self, x: Vec):
        """:meth:`LabelSet.delta_sqrt` at these values, as the product of
        ``v_c ** <x, F_c>`` with no monomial built."""
        out = 1
        for v, f in zip(self._values.values(), self._labels._delta_forms):
            e = sum(map(mul, f, x))
            if e:
                out = out * v**e
        return _ratio(out)


def _parse_rational(raw) -> Fraction:
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, bool):  # a subclass of int: JSON true would read as 1
        raise LabelConfigError(f"label value must be a number, got {raw!r}")
    if isinstance(raw, int):
        return Fraction(raw)
    if not isinstance(raw, (float, str)):
        raise LabelConfigError(f"cannot parse label value {raw!r}")
    # a float is read as its shortest decimal repr, the number its JSON
    # text most likely held; Fraction(raw) would give the binary value
    text = repr(raw) if isinstance(raw, float) else raw.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise LabelConfigError(f"cannot parse label value {raw!r}: {exc}") from exc


def _float(q: Fraction) -> float:
    """``float(q)``, with ``inf`` for a value too large to convert."""
    try:
        return float(q)
    except OverflowError:
        return math.inf


def _exact_sqrt(q: Fraction) -> Fraction | None:
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None
