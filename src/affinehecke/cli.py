"""Command-line front end.

Four subcommands over one exact engine:

* ``trace``    — trace values on the commutative basis over a coordinate box,
  computed independently by the weighted-partition formula and by direct
  coefficient extraction, with per-point equality flags.
* ``verify``   — named identity suites (quadratic relations, orthogonality,
  commutation rules, trace oracles, intertwiner braid relations, ...).
* ``series``   — the trace restricted to the negative cone, dumped in
  (height, lexicographic) order.
* ``spherical``— spherical-function values at a numeric torus point by the
  c-function sum and by the module computation, with a diff column.

All output is the text of ``json.dumps(report, sort_keys=True, indent=2)``
and a newline; given the same configuration and seed, reruns are
byte-identical.  ``emit`` writes that text a top-level key or one item of a
top-level list at a time.  The records of ``trace`` and ``series`` hold their
exact polynomials, each written straight from its terms by
``coeffring.poly_json``; json writes every other value.  Exit codes:
0 success, 1 verification failure, 2 usage or configuration error or a
report that could not be written.
"""

from __future__ import annotations

import argparse
import cmath
import errno
import json
import os
import sys
from fractions import Fraction

from .bernstein import Bernstein, BoxError
from .coeffring import (
    ExponentOverflowError, LabelConfigError, LabelSet, LaurentPoly, poly_json,
)
from .hecke import HeckeAlgebra, SupportError
from .principal import PrincipalSeries
from .rootdata import (
    PRESET_FAMILY,
    PRESET_NAMES,
    RootSystemError,
    build_preset,
    coordinate_box,
    datum_from_json,
    height,
    in_negative_cone,
    is_dominant,
    vneg,
)
from .tracegen import PoleError, TorusPoint, TraceGen
from .weyl import AffineWeyl, PackedFieldError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

class UsageError(Exception):
    """Bad command-line configuration; maps to exit code 2."""


# -- configuration loading ---------------------------------------------------


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of a configuration file; one that cannot be read (a
    directory, no permission, not UTF-8) is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {what} file {path!r}: {exc}")


def load_datum(spec: str):
    try:
        return build_preset(spec)
    except RootSystemError as exc:
        if not os.path.exists(spec):
            # a preset family's own error needs no word about files
            tail = "" if PRESET_FAMILY.fullmatch(spec) else " (and no file by that name)"
            raise UsageError(f"datum {spec!r}: {exc}{tail}")
    return datum_from_json(read_text(spec, "datum"))


def load_label_values(raw: str) -> dict | None:
    """Parse --labels: "formal", inline JSON, or a path to a JSON file."""
    if raw == "formal":
        return None
    text = raw
    if not raw.lstrip().startswith("{"):
        text = read_text(raw, "labels")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"bad labels JSON: {exc}")
    if not isinstance(obj, dict):
        raise UsageError("labels JSON must be an object mapping generator names to values")
    return obj


class Job:
    """Everything a subcommand needs, built from parsed arguments."""

    def __init__(self, args, need_numeric: bool = False):
        if args.box < 0:
            raise UsageError(f"--box must be >= 0 (got {args.box})")
        self.args = args
        self.datum = load_datum(args.datum)
        self.weyl = AffineWeyl(self.datum)
        self.labels = LabelSet(self.weyl)
        self.mode = args.mode
        raw = load_label_values(args.labels)
        if need_numeric and self.mode == "formal":
            raise UsageError(
                "this command evaluates at a numeric torus point and refuses "
                "formal mode; pass --mode rational or --mode complex with "
                "numeric --labels"
            )
        if self.mode == "formal":
            if raw is not None:
                raise UsageError("formal mode takes --labels formal (got numeric labels)")
            self.assignment = None
        else:
            if raw is None:
                raise UsageError(
                    f"--mode {self.mode} needs numeric --labels "
                    '(e.g. \'{"s1": 4, "s0": 4}\')'
                )
            try:
                self.assignment = self.labels.numeric_assignment(raw, mode=self.mode)
            except LabelConfigError as exc:
                raise UsageError(f"bad labels: {exc}")
        self.hecke = HeckeAlgebra(self.weyl, self.labels)
        self.bernstein = Bernstein(self.hecke)
        self.trace = TraceGen(self.bernstein, self.assignment)
        self._ps = None

    @property
    def principal(self) -> PrincipalSeries:
        if self._ps is None:
            self._ps = PrincipalSeries(self.bernstein, self.assignment)
        return self._ps

    def torus_point(self) -> TorusPoint:
        args = self.args
        if args.t:
            if len(args.t) != self.datum.rank:
                raise UsageError(
                    f"--t given {len(args.t)} times but the datum has rank {self.datum.rank}"
                )
            coords = tuple(parse_coordinate(v, self.mode) for v in args.t)
            try:
                return TorusPoint(coords)
            except ValueError as exc:
                raise UsageError(f"bad --t: {exc}")
        return self.principal.seeded_point(args.seed, mode=self.mode)

    def value_obj(self, poly: LaurentPoly):
        """A trace value in the output: in formal mode the polynomial itself,
        which ``emit`` writes as its JSON object; a number otherwise."""
        if self.assignment is None:
            return poly
        return num_obj(poly.evaluate(self.assignment))

    def describe(self) -> dict:
        return {
            "datum": self.datum.name or "custom",
            "rank": self.datum.rank,
            "mode": self.mode,
            "labels": self.args.labels,
        }


def parse_coordinate(raw: str, mode: str):
    """One --t coordinate: "num/den" in rational mode, "re,im" (or a plain
    float) in complex mode.  A complex coordinate must be finite."""
    if mode == "rational":
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational coordinate {raw!r}: {exc}")
    parts = raw.split(",")
    if len(parts) > 2:
        raise UsageError(f"bad complex coordinate {raw!r}: expected \"re,im\"")
    try:
        z = complex(*(float(p) for p in parts))
    except ValueError as exc:
        raise UsageError(f"bad complex coordinate {raw!r}: {exc}")
    if not cmath.isfinite(z):
        raise UsageError(f"bad complex coordinate {raw!r}: not finite")
    return z


def num_obj(v):
    if isinstance(v, complex):
        return {"im": v.imag, "re": v.real}
    if isinstance(v, float):
        return v
    return str(Fraction(v))


def emit(obj: dict, out: str | None) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=2)`` and a newline to
    ``out`` or stdout, a ``LaurentPoly`` as its ``poly_json`` text, one
    top-level key or item of a top-level list at a time, so no copy of the
    whole report is held.  A failed write is a usage error."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                _stream(obj, fh)
        except OSError as exc:
            raise UsageError(f"cannot write --out {out!r}: {exc}")
        return
    try:
        _stream(obj, sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        # the interpreter flushes stdout again at exit: give it a sink
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise UsageError(f"cannot write to stdout: {exc}")


def _stream(obj, fh) -> None:
    if not (isinstance(obj, dict) and obj):
        fh.write(_render(obj, "\n") + "\n")
        return
    sep = "{\n  "
    for key, value in sorted(obj.items()):
        fh.write(sep + _quote(key) + ": ")
        sep = ",\n  "
        if isinstance(value, (list, tuple)) and value:
            sep_item = "[\n    "
            for item in value:
                fh.write(sep_item + _render(item, "\n    "))
                sep_item = ",\n    "
            fh.write("\n  ]")
        else:
            fh.write(_render(value, "\n  "))
    fh.write("\n}\n")


# Object keys must be strings (every report key is): json would also write
# number keys, this renderer refuses them.
_quote = json.encoder.encode_basestring_ascii


def _render(o, ind: str) -> str:
    """The JSON text of ``o`` nested where a line starts with ``ind``
    (a newline and the indent)."""
    if isinstance(o, LaurentPoly):
        return poly_json(o, ind)
    inner = ind + "  "
    if isinstance(o, dict) and o:
        return "{" + inner + ("," + inner).join(
            _quote(k) + ": " + _render(v, inner) for k, v in sorted(o.items())
        ) + ind + "}"
    if isinstance(o, (list, tuple)) and o:
        return "[" + inner + ("," + inner).join([_render(v, inner) for v in o]) + ind + "]"
    return json.dumps(o)  # a scalar, {} or []


def check_out(out: str | None) -> None:
    """Refuse an ``--out`` path that ``emit`` could not open (a directory, or
    a file in a missing directory) before any work, with ``emit``'s message."""
    if out and os.path.isdir(out):
        code = errno.EISDIR
    elif out and not os.path.isdir(os.path.dirname(out) or "."):
        code = errno.ENOENT
    else:
        return
    raise UsageError(f"cannot write --out {out!r}: {OSError(code, os.strerror(code), out)}")


# -- trace -------------------------------------------------------------------


def cmd_trace(args) -> int:
    job = Job(args)
    xs = coordinate_box(job.datum.rank, -args.box, args.box)
    xs.sort(key=lambda x: (height(job.datum, x), x))
    direct = job.trace.trace_sweep(xs)
    partition = job.trace.trace_theta_partition(xs)
    records = []
    all_equal = True
    for x in xs:
        part, dir_poly = partition[x], direct[x]
        equal = part == dir_poly
        all_equal = all_equal and equal
        value = job.value_obj(dir_poly)
        records.append(
            {
                "direct": value,
                "equal": equal,
                "in_negative_cone": in_negative_cone(job.datum, x),
                "partition": value if equal else job.value_obj(part),
                "x": list(x),
            }
        )
    report = job.describe()
    report.update({"all_equal": all_equal, "box": args.box, "records": records})
    emit(report, args.out)
    return EXIT_OK if all_equal else EXIT_FAIL


# -- verify ------------------------------------------------------------------


def suite_quadratic(job: Job, failures: list) -> int:
    H = job.hecke
    cases = 0
    for i, name in enumerate(job.weyl.generator_names):
        cases += 1
        ts = H.basis(job.weyl.simple_affine(i))
        qi = job.labels.q_of_gen(i)
        lhs = H.mul(ts, ts)
        rhs = H.add(H.scale(ts, qi - job.labels.one()), H.scale(H.unit(), qi))
        if not lhs == rhs:
            failures.append(f"quadratic relation fails at generator {name}")
    return cases


def suite_orthogonality(job: Job, failures: list) -> int:
    H = job.hecke
    elems = job.weyl.elements_up_to_length(3)
    cases = 0
    for g in elems:
        tg_inv = H.star(H.basis(g))
        qg = job.labels.q_of_w(g)
        for h in elems:
            cases += 1
            val = H.tau(H.mul(tg_inv, H.basis(h)))
            want = qg if g == h else job.labels.zero()
            if not val == want:
                failures.append(f"tau(T* T) wrong at {job.weyl.elem_to_obj(g)}, {job.weyl.elem_to_obj(h)}")
    return cases


def suite_bernstein(job: Job, failures: list) -> int:
    bern = job.bernstein
    H = job.hecke
    cases = 0
    pts = coordinate_box(job.datum.rank, -1, 1)
    for x in pts:
        for y in pts:
            cases += 1
            lhs = H.mul(bern.theta(x), bern.theta(y))
            rhs = bern.theta(tuple(a + b for a, b in zip(x, y)))
            if not lhs == rhs:
                failures.append(f"theta multiplicativity fails at {x}+{y}")
    for x in pts:
        cases += 1
        if not bern.star_theta_check(x):
            failures.append(f"star of theta fails at {x}")
    return cases


def suite_lusztig(job: Job, failures: list) -> int:
    bern = job.bernstein
    box = job.args.box
    cases = 0
    for x in coordinate_box(job.datum.rank, -box, box):
        for i in range(len(job.datum.simple_roots)):
            cases += 1
            lhs, rhs = bern.lusztig_commutation(x, i)
            if not lhs == rhs:
                failures.append(f"commutation fails at x={x}, i={i}")
    return cases


def suite_trace_oracle(job: Job, failures: list) -> int:
    xs = job.trace.negative_cone_points(job.args.box)
    direct = job.trace.trace_sweep(xs)
    partition = job.trace.trace_theta_partition(xs)
    cases = 0
    for x in xs:
        cases += 1
        if not partition[x] == direct[x]:
            failures.append(f"partition vs direct mismatch at {x}")
    return cases


def suite_support(job: Job, failures: list) -> int:
    box = job.args.box
    xs = [
        x
        for x in coordinate_box(job.datum.rank, -box, box)
        if not in_negative_cone(job.datum, x)
    ]
    direct = job.trace.trace_sweep(xs)
    cases = 0
    for x in xs:
        cases += 1
        if direct[x]:
            failures.append(f"trace nonzero off the negative cone at {x}")
    return cases


def suite_dcoeff(job: Job, failures: list) -> int:
    order = 12
    cases = 0
    for root, _coroot in job.weyl.derived.r1_positive:
        cases += 1
        lhs = job.trace.d_series_truncation(root, order)
        rhs = job.trace.inverse_cc_series(root, order)
        if not lhs == rhs:
            failures.append(f"partition-coefficient series mismatch at root {root}")
    return cases


def suite_braid_intertwiner(job: Job, failures: list) -> int:
    ps = job.principal
    H = job.hecke
    weyl = job.weyl
    n = len(job.datum.simple_roots)
    cases = 0
    for i in range(n):
        cases += 1
        if not ps.intertwiner_element(i) == ps.intertwiner_element_right(i):
            failures.append(f"left and right intertwiner forms differ at i={i}")
        cases += 1
        sq = H.mul(ps.intertwiner_element(i), ps.intertwiner_element(i))
        if not sq == ps.d_element(ps.r1_of_simple(i)):
            failures.append(f"intertwiner square is not the root factor at i={i}")
    for i in range(n):
        for j in range(i + 1, n):
            si = weyl.simple_reflections[i]
            sj = weyl.simple_reflections[j]
            prod = weyl.fin_mul(si, sj)
            m = 1
            cur = prod
            while cur != weyl.id_fin and m < 7:
                cur = weyl.fin_mul(cur, prod)
                m += 1
            word_a = tuple((i, j)[k % 2] for k in range(m))
            word_b = tuple((j, i)[k % 2] for k in range(m))
            cases += 1
            if not ps.intertwiner_word(word_a) == ps.intertwiner_word(word_b):
                failures.append(f"braid relation fails for generators ({i},{j})")
    return cases


SUITES = {
    "quadratic": suite_quadratic,
    "orthogonality": suite_orthogonality,
    "bernstein": suite_bernstein,
    "lusztig": suite_lusztig,
    "trace-oracle": suite_trace_oracle,
    "support": suite_support,
    "dcoeff": suite_dcoeff,
    "braid-intertwiner": suite_braid_intertwiner,
}


def cmd_verify(args) -> int:
    job = Job(args)
    wanted = args.suite or list(SUITES)
    for name in wanted:
        if name not in SUITES:
            raise UsageError(
                f"unknown suite {name!r}; available: {', '.join(SUITES)}"
            )
    results = []
    ok = True
    for name in wanted:
        failures: list[str] = []
        cases = SUITES[name](job, failures)
        passed = not failures
        ok = ok and passed
        results.append(
            {
                "cases": cases,
                "failures": failures[:10],
                "pass": passed,
                "suite": name,
            }
        )
    report = job.describe()
    report.update({"pass": ok, "suites": results})
    emit(report, args.out)
    return EXIT_OK if ok else EXIT_FAIL


# -- series ------------------------------------------------------------------


def cmd_series(args) -> int:
    job = Job(args)
    xs = [
        x
        for x in coordinate_box(job.datum.rank, -args.box, args.box)
        if in_negative_cone(job.datum, x)
    ]
    xs.sort(key=lambda x: (height(job.datum, vneg(x)), x))
    values = job.trace.trace_theta_partition(xs)
    records = [
        {
            "height": str(height(job.datum, vneg(x))),
            "trace": job.value_obj(values[x]),
            "x": list(x),
        }
        for x in xs
    ]
    report = job.describe()
    report.update({"box": args.box, "records": records})
    emit(report, args.out)
    return EXIT_OK


# -- spherical ---------------------------------------------------------------


def cmd_spherical(args) -> int:
    if args.seed < 0:  # random.Random(-n) would give the point of seed n
        raise UsageError(f"--seed must be >= 0 (got {args.seed})")
    job = Job(args, need_numeric=True)
    ps = job.principal
    t = job.torus_point()
    xs = [
        x
        for x in coordinate_box(job.datum.rank, 0, args.box)
        if is_dominant(job.datum, x)
    ]
    xs.sort(key=lambda x: (height(job.datum, x), x))
    records = []
    skipped = failed = 0
    for x in xs:
        rec = {"t": [num_obj(v) for v in t.images], "x": list(x)}
        try:
            formula = ps.macdonald_value(t, x)
            direct = ps.spherical_theta_plus(t, x)
        except (PoleError, ZeroDivisionError) as exc:
            rec.update({"reason": str(exc) or "pole", "skipped": True})
            skipped += 1
        else:
            diff = abs(formula - direct)
            if diff and job.mode == "rational":  # an exact gap is a failed check
                failed += 1
            rec.update(
                {
                    "diff": num_obj(diff),
                    "direct": num_obj(direct),
                    "macdonald": num_obj(formula),
                    "skipped": False,
                }
            )
        records.append(rec)
    report = job.describe()
    report.update({"box": args.box, "records": records})
    emit(report, args.out)
    if failed or (records and skipped == len(records)):
        return EXIT_FAIL
    return EXIT_OK


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecke-trace",
        description="Exact trace, verification, series, and spherical-function "
        "computations for affine Hecke algebras with unequal parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode="formal"):
        """Shared flags; ``mode`` is the --mode default, None where nothing is evaluated."""
        p.add_argument(
            "--datum",
            default="A1-weight",
            help=f"preset name ({', '.join(PRESET_NAMES)}) or path to a root-datum JSON file",
        )
        if mode is None:
            p.set_defaults(mode="formal", labels="formal")
        else:
            p.add_argument(
                "--labels",
                default="formal",
                help='"formal", inline JSON mapping generator names to values, or a JSON file path',
            )
            p.add_argument(
                "--mode",
                choices=("formal", "rational", "complex"),
                default=mode,
                help="coefficient arithmetic for evaluations",
            )
        p.add_argument("--box", type=int, default=3, help="coordinate box radius")
        p.add_argument("--out", default=None, help="write the JSON report to this path")

    p = sub.add_parser("trace", help="both trace methods over a coordinate box")
    common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("verify", help="run named identity suites")
    common(p, mode=None)  # the identities are checked exactly
    p.add_argument(
        "--suite",
        action="append",
        default=None,
        help=f"suite name (repeatable); default all: {', '.join(SUITES)}",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("series", help="trace values on the negative cone")
    common(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("spherical", help="spherical function vs c-function formula")
    common(p, mode="rational")
    p.add_argument("--seed", type=int, default=0, help="seed (>= 0) for generated torus points")
    p.add_argument(
        "--t",
        action="append",
        default=None,
        help='torus coordinate, repeated per basis direction: "num/den" or "re,im"',
    )
    p.set_defaults(func=cmd_spherical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_out(args.out)
        return args.func(args)
    except OverflowError as exc:
        # ExponentOverflowError, or a float that left its range in complex mode
        if args.mode == "complex" and not isinstance(exc, ExponentOverflowError):
            detail = exc.args[-1] if exc.args else "overflow"  # drop an errno code
            print(f"error: a value left the floating-point range of complex mode ({detail}); "
                  "use --mode rational for exact arithmetic", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; try a smaller --box", file=sys.stderr)
        return EXIT_USAGE
    except (
        UsageError, RootSystemError, LabelConfigError, BoxError, SupportError, PackedFieldError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
