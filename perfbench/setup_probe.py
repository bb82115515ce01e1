"""Build the algebra tower for one `hecke-trace` command line, then exit.

    python3 perfbench/setup_probe.py HECKE_TRACE_ARGV...

Reads `--datum`, `--labels` and `--mode` from the command line.  The probe
loads the command's modules and builds `build_preset` -> `AffineWeyl` ->
`LabelSet` -> `HeckeAlgebra` -> `Bernstein` -> `TraceGen` (and
`PrincipalSeries` for numeric labels), with no trace or evaluation call.
Its wall time from spawn to exit is the benchmark's `setup_s`.
"""

import argparse
import json
import sys

import affinehecke.cli  # noqa: F401  (the import set of the `hecke-trace` command)
from affinehecke import (
    AffineWeyl,
    Bernstein,
    HeckeAlgebra,
    LabelSet,
    PrincipalSeries,
    TraceGen,
    build_preset,
)


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--datum", required=True)
    parser.add_argument("--labels", default="formal")
    parser.add_argument("--mode", default="formal")
    args, _rest = parser.parse_known_args(argv)
    weyl = AffineWeyl(build_preset(args.datum))
    label_set = LabelSet(weyl)
    assignment = None
    if args.labels != "formal":
        assignment = label_set.numeric_assignment(json.loads(args.labels), mode=args.mode)
    bernstein = Bernstein(HeckeAlgebra(weyl, label_set))
    TraceGen(bernstein, assignment)
    if assignment is not None:
        PrincipalSeries(bernstein, assignment)


if __name__ == "__main__":
    main(sys.argv[1:])
