"""Exact affine Hecke algebras with unequal parameters.

The package builds the algebra from a root datum, computes the canonical
trace on the commutative (Bernstein) basis by two independent routes, and
evaluates the principal series — the module action, the intertwining
elements, the spherical function and its c-function formula — over exact
rational (or complex float) coefficients.

Typical construction chain::

    datum = build_preset("BnCn(2)")
    weyl = AffineWeyl(datum)
    labels = LabelSet(weyl)
    hecke = HeckeAlgebra(weyl, labels)
    bern = Bernstein(hecke)
    trace = TraceGen(bern)

Numeric work adds ``labels.numeric_assignment({...}, mode="rational")`` and
passes the assignment to :class:`TraceGen` / :class:`PrincipalSeries`.
"""

from .bernstein import Bernstein, BoxError
from .coeffring import (
    ExactDivisionError,
    ExponentOverflowError,
    LabelConfigError,
    LabelSet,
    LaurentPoly,
    exact_divide,
)
from .hecke import HeckeAlgebra, HeckeElem, SupportError
from .principal import ModeError, PrincipalSeries
from .rootdata import (
    RootDatum,
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
from .tracegen import PoleError, TorusPoint, TraceGen
from .weyl import AffineRoot, AffineWeyl, AffineWeylElem, FiniteWeylElem, PackedFieldError

__all__ = [
    "AffineRoot",
    "AffineWeyl",
    "AffineWeylElem",
    "Bernstein",
    "BoxError",
    "ExactDivisionError",
    "ExponentOverflowError",
    "FiniteWeylElem",
    "HeckeAlgebra",
    "HeckeElem",
    "LabelConfigError",
    "LabelSet",
    "LaurentPoly",
    "ModeError",
    "PackedFieldError",
    "PoleError",
    "PrincipalSeries",
    "RootDatum",
    "RootSystemError",
    "SupportError",
    "TorusPoint",
    "TraceGen",
    "build_preset",
    "datum_from_json",
    "datum_to_json",
    "derive",
    "dominant_decomposition",
    "dominant_shift",
    "exact_divide",
    "height",
    "in_negative_cone",
    "is_dominant",
    "make_datum",
]
