"""The Iwahori-Hecke algebra on the T-basis.

Elements are finitely supported maps from extended affine Weyl elements to
coefficients (Laurent polynomials, or exact numbers at given labels), keyed
by the Weyl group's int ids: the public entries (``basis``, ``coeff``,
``rmul_basis`` and ``invert_basis``) take the ids that ``AffineWeyl``'s
constructors return, and the folds, sums and products work on them through
the group's product, inverse and factorization on ids.

Multiplication factors the right-hand element's basis words through the
length-zero subgroup and applies the quadratic relation one generator at a
time; everything else (the star anti-involution, the trace, basis
inverses) reduces to one fold of generator steps.  The fold
has two step rules.  The ``q`` rule works on the T-basis:

    T_u * T_s = T_{us}                     if l(us) = l(u) + 1
    T_u * T_s = (q_s - 1) T_u + q_s T_{us} if l(us) = l(u) - 1

and its inverse step turns c into c*q_s^{-1} on us and c*q_s^{-1} - c on u,
twice the monomials of c before anything cancels.  The ``xi`` rule works on
the normalised basis T~_w = v(w)^{-1} T_w, v(w) = q(w)^{1/2}, where
T~_s^{-1} = T~_s - xi_s with xi_s = v_s - v_s^{-1} (Kazhdan-Lusztig 1979;
Lusztig, *Hecke algebras with unequal parameters*, ch. 4):

    T~_u * T~_s^{-1} = T~_{us}              if l(us) = l(u) - 1
    T~_u * T~_s^{-1} = T~_{us} - xi_s T~_u  if l(us) = l(u) + 1

so an up step shifts the keys of c once and subtracts nothing; every path
contributes +-xi^e with sign (-1)^{|e|}, so no sum cancels.  The targeted
inverse takes the ``xi`` rule and answers on the normalised basis, where the
trace needs no label factor: tau(T~_a T~_b) = [ab = 1].  Every other fold
keeps the ``q`` rule, one ``_rmul_gen`` pass per letter; a theta element,
wanted on the T-basis in full, measured several times slower on the ``xi``
rule.  The ``xi`` step is a loop of its own, ``_xi_fold``: it works on
dicts of packed xi keys, merges them in place, and drops a state in the same
pass as soon as no target is within the letters left, reading the distance
that each state carries along its steps (``AffineWeyl.distance_to``).
"""

from __future__ import annotations

from .coeffring import MAX_EXP, ExponentOverflowError, LabelSet, LabelValues, accumulate
from .weyl import AffineWeyl

MAX_SUPPORT = 1_000_000


class SupportError(RuntimeError):
    """Raised when an intermediate element outgrows the support guard."""


def _merge(into: dict, c: dict) -> None:
    """Add the packed terms c into the dict ``into`` in place.  The xi fold's
    terms on one state share a sign, so no sum is zero."""
    get = into.get
    for k, a in c.items():
        into[k] = get(k, 0) + a


class HeckeElem:
    """A finitely supported element in the T-basis, keyed by the ids of its
    algebra's Weyl group; read a coefficient with :meth:`HeckeAlgebra.coeff`."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {u: c for u, c in terms.items() if c}

    def __eq__(self, other) -> bool:
        return isinstance(other, HeckeElem) and self.terms == other.terms

    def __repr__(self) -> str:
        n = len(self.terms)
        return f"HeckeElem({n} term{'s' if n != 1 else ''})"


class HeckeAlgebra:
    """Arithmetic context: a Weyl group, its labels, and the T-basis rules.

    The coefficients are whatever the labels return: Laurent polynomials
    over a :class:`LabelSet`, exact numbers over its view
    :meth:`LabelSet.at`.  Every rule touches them only through ``+ - *``
    and truthiness, so one fold serves both.
    """

    def __init__(self, weyl: AffineWeyl, labels: LabelSet | LabelValues):
        self.weyl = weyl
        self.labels = labels
        if self.labels.weyl is not weyl:
            raise ValueError("labels were built for a different Weyl group")
        n = len(weyl.fundamental)
        self._q_gen = [self.labels.q_of_gen(i) for i in range(n)]
        self._q_gen_inv = [self.labels.q_of_gen_inv(i) for i in range(n)]
        # the packed key of xi_s per generator, for the xi rule; formal labels only
        formal = isinstance(self.labels, LabelSet)
        self._xi_keys = [self.labels.xi_key(i) for i in range(n)] if formal else None

    # -- constructors --------------------------------------------------------

    def unit(self) -> HeckeElem:
        return self.basis(self.weyl.identity)

    def basis(self, u: int) -> HeckeElem:
        """T_u for the id u."""
        return HeckeElem({u: self.labels.one()})

    def coeff(self, a: HeckeElem, u: int):
        """The coefficient of T_u in a, for the id u, or None off its support."""
        return a.terms.get(u)

    # -- linear structure ----------------------------------------------------

    def add(self, *elems: HeckeElem) -> HeckeElem:
        """The sum of the elements, accumulated left to right."""
        out: dict = {}
        for b in elems:
            for u, c in b.terms.items():
                accumulate(out, u, c)
        return HeckeElem(out)

    def sub(self, a: HeckeElem, b: HeckeElem) -> HeckeElem:
        out = dict(a.terms)
        for u, c in b.terms.items():
            accumulate(out, u, -c)
        return HeckeElem(out)

    def scale(self, a: HeckeElem, c) -> HeckeElem:
        return HeckeElem({u: cc * c for u, cc in a.terms.items()})

    # -- generator steps -----------------------------------------------------

    def _guard(self, terms: dict) -> None:
        if len(terms) > MAX_SUPPORT:
            raise SupportError(
                f"support exceeded {MAX_SUPPORT} basis terms; "
                "the computation is out of desk scale"
            )

    def _rmul_gen(self, terms: dict, i: int, inverse: bool = False) -> dict:
        """Right-multiply an id-keyed term dict by T_{s_i}, or by its inverse.

        A term whose step goes up (down, for the inverse) maps to one term;
        otherwise c becomes (c*q - c) on u and c*q on us, with q replaced by
        q^{-1} and the two terms written in the opposite order for the
        inverse.  Every term adds in through ``accumulate``, so a sum that
        cancels leaves no key.
        """
        weyl = self.weyl
        nxt = weyl.nxt[i]
        lens = weyl.lens
        q = self._q_gen_inv[i] if inverse else self._q_gen[i]
        add = accumulate
        out: dict = {}
        for u, c in terms.items():
            us = nxt[u]
            if us < 0:  # the letter's first miss: fill them all
                weyl.fill(i, terms)
                us = nxt[u]
            if (lens[us] < lens[u]) == inverse:
                add(out, us, c)
                continue
            cq = c * q  # q is a monomial: one shift of every key of a polynomial c
            if inverse:
                add(out, us, cq)
                add(out, u, cq - c)
            else:
                add(out, u, cq - c)
                add(out, us, cq)
        self._guard(out)
        return out

    def _relabel_right(self, terms: dict, om: int) -> dict:
        """Right-multiply by T_om for the id om of a length-zero element (a free relabeling)."""
        weyl = self.weyl
        if om == weyl.identity:
            return terms
        return {weyl.multiply(u, om): c for u, c in terms.items()}

    def _fold(self, terms: dict, h: int, inverse: bool = False) -> dict:
        """Right-multiply an id-keyed term dict by T_h, for the id h, or by
        its inverse, by the ``q`` rule.

        Factors ``h = om . s_{i_1} ... s_{i_k}`` through the length-zero
        subgroup.  T_h relabels by om and folds the letters in order;
        T_h^{-1} folds the one-letter inverses last letter first and
        relabels by ``om^{-1}``.  The targeted inverse on the ``xi`` rule is
        a loop of its own, :meth:`_xi_fold`.
        """
        weyl = self.weyl
        om, word = weyl.factor_extended(h)
        if not inverse:
            terms = self._relabel_right(terms, om)
            for i in word:
                terms = self._rmul_gen(terms, i)
            return terms
        for i in reversed(word):
            terms = self._rmul_gen(terms, i, inverse=True)
        return self._relabel_right(terms, weyl.inverse(om))

    def _xi_fold(self, word: tuple[int, ...], ends: set[int]) -> dict:
        """The restriction to the ids ``ends`` of ``T~_p^{-1}``, p the product
        of the letters of ``word``, on the normalised basis and in the xi
        variables: the ``xi`` rule of the module docstring, letters last
        first, in one loop that keeps a state only while an end is in reach.

        A state u with r letters left can only become ``u p'``, p' a product
        of a subword of those letters (the subword property), so it is kept
        while ``d(u) = min over v in ends of l(u^{-1} v) <= r``.  Each live
        state carries ``(c, sum, d)``: its coefficient as a dict of packed xi
        keys, and the packed distance sum and d of
        ``AffineWeyl.distance_to``.  A step ``u -> us`` moves c to us, which
        is kept only if its d is at most the letters left; its pair comes
        from the previous letter's states when us is one of them, and from
        ``move`` otherwise.  An up step also puts ``-xi_s c`` on u, built
        only while u is in reach; nothing else lands on us in that letter,
        so c is still u's own when the copy is made.

        Every path to a state after k letters stays put (taking a factor
        ``-xi``) ``k - l(u)`` times mod 2, so all terms of a coefficient have
        one sign and no merge cancels: a coefficient that lands on a state
        already in the letter's dict is added into that state's dict in
        place.  Each dict has one owner; a down step moves it, an up step
        moves it and builds a shifted copy.  A state's xi-degree is at most
        its up steps, so ``len(word)`` bounds every exponent.
        """
        if len(word) > MAX_EXP:
            raise ExponentOverflowError(
                f"a word of {len(word)} letters could take a xi exponent past the packed field (+-{MAX_EXP})"
            )
        weyl = self.weyl
        lens = weyl.lens
        start, move = weyl.distance_to(ends, len(word))
        u = weyl.identity
        live = {u: ({0: 1}, *start(u))}
        for rest in range(len(word) - 1, -1, -1):
            i = word[rest]
            nxt = weyl.nxt[i]
            key = self._xi_keys[i]
            out: dict = {}
            get = out.get
            for u, (c, s, d) in live.items():
                us = nxt[u]
                if us < 0:  # the letter's first miss: fill them all
                    weyl.fill(i, live)
                    us = nxt[u]
                if lens[us] > lens[u]:
                    if d <= rest:  # -xi_s c stays on u
                        neg = {k + key: -a for k, a in c.items()}
                        e = get(u)
                        if e is None:
                            out[u] = (neg, s, d)
                        else:
                            _merge(e[0], neg)
                    e = None  # nothing else lands on us
                else:
                    e = get(us)
                if e is not None:
                    _merge(e[0], c)
                    continue
                p = live.get(us)
                s, d = move(u, i, us, s, d) if p is None else p[1:]
                if d <= rest:
                    out[us] = (c, s, d)
            self._guard(out)
            live = out
        xi_poly, from_xi = self.labels.xi_poly, self.labels.from_xi
        return {u: from_xi(xi_poly(c, len(word))) for u, (c, _, _) in live.items() if u in ends}

    # -- ring operations -----------------------------------------------------

    def mul(self, a: HeckeElem, b: HeckeElem) -> HeckeElem:
        """Product in the algebra.

        The work of folding the left factor through the right factor's words
        scales with (left support) x (total right word length); when the
        mirrored orientation is cheaper the product is computed through the
        star anti-involution instead, which exchanges the factors.
        """
        if not a.terms or not b.terms:
            return HeckeElem({})
        lens = self.weyl.lens
        cost_fold = len(a.terms) * sum(lens[h] for h in b.terms)
        cost_star = len(b.terms) * sum(lens[u] for u in a.terms)
        if cost_star < cost_fold:
            return self.star(self._mul_fold(self.star(b), self.star(a)))
        return self._mul_fold(a, b)

    def _mul_fold(self, a: HeckeElem, b: HeckeElem) -> HeckeElem:
        out: dict = {}
        for h, d in b.terms.items():
            for u, c in self._fold(a.terms, h).items():
                accumulate(out, u, c * d)
            self._guard(out)
        return HeckeElem(out)

    def rmul_basis(self, a: HeckeElem, h: int, inverse: bool = False) -> HeckeElem:
        """a * T_h, or a * T_h^{-1}, for the id h, without building T_h or its inverse."""
        return HeckeElem(self._fold(a.terms, h, inverse))

    def star(self, a: HeckeElem) -> HeckeElem:
        """The conjugate-linear anti-involution T_g -> T_{g^{-1}}.

        Coefficients here are real (rational in the v), so conjugation is
        the identity on them."""
        inv = self.weyl.inverse
        return HeckeElem({inv(u): c for u, c in a.terms.items()})

    def tau(self, a: HeckeElem):
        """The trace: the coefficient of the identity."""
        c = a.terms.get(self.weyl.identity)
        return c if c is not None else self.labels.zero()

    # -- inverses ------------------------------------------------------------

    def invert_basis(self, g: int, targets: list[int]) -> HeckeElem:
        """The restriction of T~_g^{-1} = v(g) T_g^{-1}, for the id g, to the
        ids ``targets`` on the normalised basis T~_u = v(u)^{-1} T_u, so the coefficient at u is
        ``v(g) v(u)`` times that of T_g^{-1}.  Only formal labels have the xi
        variables.  The whole T_g^{-1} on the T-basis is
        ``rmul_basis(unit(), g, inverse=True)``.

        With ``g = om . p``, ``l(om) = 0``: ``T~_g^{-1} = T~_p^{-1} T_om^{-1}``,
        and T~_u lands on a target v exactly when ``u = v om``, so the fold
        (:meth:`_xi_fold`) aims at the ids of ``v om``, each read back as its
        target v; a state at distance 0 after the last letter still admits
        ``v om`` times a length-zero element, so the last states are matched
        against them exactly.  ``v = 1`` on the length-zero relabel, so the
        result stays on the normalised basis.
        """
        if self._xi_keys is None:
            raise ValueError("a targeted inverse needs formal labels")
        weyl = self.weyl
        om, word = weyl.factor_extended(g)
        target_of = {weyl.multiply(v, om): v for v in targets}
        terms = self._xi_fold(word, target_of.keys())
        return HeckeElem({target_of[u]: c for u, c in terms.items()})
