"""``to_xi``: a trace value rewritten as a polynomial in ``xi_c = v_c - v_c^{-1}``.

The exact inverse of ``LabelSet.from_xi``, kept with the tests until a
product route needs it.  Shared by the ring tests and criterion 04.
"""

from math import comb

from affinehecke.coeffring import LaurentPoly


def to_xi(labels, p: LaurentPoly) -> LaurentPoly:
    """The polynomial ``c`` over ``labels.xi_vars`` with ``from_xi(c) == p``.

    One variable at a time, the term of highest ``v_i`` exponent ``k`` is
    peeled off as ``a xi_i^k``, subtracting ``a (v_i - v_i^{-1})^k``; the
    fields already done hold xi exponents and are carried along.  Raises
    ``ValueError`` when ``p`` is not in ``Z[xi]``: a term is left with a
    negative ``v`` exponent, or a coefficient is not an integer.
    """
    terms = dict(p.sorted_terms())
    for i in range(len(labels.vars)):
        out = {}
        while terms:
            e = max(terms, key=lambda e: e[i])
            k, a = e[i], terms[e]
            if k < 0:
                raise ValueError(f"{p} is not a polynomial in the xi")
            out[e] = a
            for j in range(k + 1):
                g = e[:i] + (k - 2 * j,) + e[i + 1:]
                s = terms.get(g, 0) - (-1) ** j * comb(k, j) * a
                if s:
                    terms[g] = s
                else:
                    del terms[g]
        terms = out
    if any(type(c) is not int for c in terms.values()):
        raise ValueError(f"{p} has a coefficient outside Z")
    return LaurentPoly(labels.xi_vars, terms)
