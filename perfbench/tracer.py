"""Per-layer tracing of one `hecke-trace` run.

    python3 perfbench/tracer.py STATS_PATH HECKE_TRACE_ARGV...

Wraps public functions of the `affinehecke` modules by replacing class and
module attributes, runs the command's own `main(argv)` and writes per-layer
counts and span times to STATS_PATH as JSON.  The report the command writes
to stdout is not touched, so it must stay byte-identical to an untraced run.

Coarse calls are timed as spans; a layer's self time is the time of its spans
minus the time of the spans nested inside them.  Per-element calls
(`AffineWeyl.gen_step`, `AffineWeyl.length`) are only counted, so their time
lands in the self time of the span that called them (mostly `hecke`).
Cache sizes are read with `len()` when the command has finished.
"""

from __future__ import annotations

import functools
import json
import sys
import time

clock = time.perf_counter

# Spans per layer: (owner, attribute).  An owner is "module:Class" for a
# method or "module" for a module-level function.
SPANS = {
    "rootdata": [("rootdata", "build_preset"), ("rootdata", "derive")],
    "weyl": [
        ("weyl:AffineWeyl", "__init__"),
        ("weyl:AffineWeyl", "factor_extended"),
        ("weyl:AffineWeyl", "enumerate_w0"),
    ],
    "coeffring": [
        ("coeffring:LaurentPoly", "__mul__"),
        ("coeffring:LaurentPoly", "__rmul__"),
        ("coeffring:LaurentPoly", "__add__"),
        ("coeffring:LaurentPoly", "evaluate"),
        ("coeffring", "exact_divide"),
    ],
    "hecke": [
        ("hecke:HeckeAlgebra", "mul"),
        ("hecke:HeckeAlgebra", "rmul_basis"),
        ("hecke:HeckeAlgebra", "invert_basis"),
        ("hecke:HeckeAlgebra", "add"),
        ("hecke:HeckeAlgebra", "sub"),
        ("hecke:HeckeAlgebra", "scale"),
        ("hecke:HeckeAlgebra", "star"),
    ],
    "bernstein": [
        ("bernstein:Bernstein", "__init__"),
        ("bernstein:Bernstein", "theta"),
        ("bernstein:Bernstein", "lusztig_commutation"),
        ("bernstein:Bernstein", "expand_in_bernstein"),
    ],
    "tracegen": [
        ("tracegen:TraceGen", "trace_sweep"),
        ("tracegen:TraceGen", "trace_theta_partition"),
        ("tracegen:TraceGen", "c_full"),
    ],
    "principal": [
        ("principal:PrincipalSeries", "symbolic_action"),
        ("principal:PrincipalSeries", "laplace_matrix"),
        ("principal:PrincipalSeries", "macdonald_value"),
        ("principal:PrincipalSeries", "spherical_theta_plus"),
        ("principal:PrincipalSeries", "theta_plus_cleared"),
        ("principal:PrincipalSeries", "seeded_point"),
    ],
    "cli": [("cli", "emit")],
}

# Per-element calls: counted, not timed.
COUNTED = [("weyl:AffineWeyl", "gen_step"), ("weyl:AffineWeyl", "length")]

# Hecke spans that fold through the letters of a reduced word.
FOLDS = ("mul", "rmul_basis", "invert_basis")


class Tracer:
    """Span times and counters, kept in memory until the run ends."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # "layer.name" -> [calls, seconds]
        self.self_s: dict[str, list] = {}  # layer -> [seconds]
        self.counts: dict[str, int] = {}
        self.stack: list[list] = []  # active spans: [child seconds, record]
        self.instances: dict[str, list] = {}
        self._fold_ids: set[int] = set()

    def span(self, layer: str, name: str, fn, observe=None):
        rec = self.spans.setdefault(f"{layer}.{name}", [0, 0.0])
        lay = self.self_s.setdefault(layer, [0.0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, rec]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                rec[0] += 1
                rec[1] += dt
                lay[0] += dt - frame[0]
            if observe is not None:
                observe(args, out)
            return out

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def bump(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, n: int) -> None:
        if n > self.counts.get(key, 0):
            self.counts[key] = n

    # -- observers: run after a span returns, outside its timed interval

    def observer(self, layer: str, name: str):
        if layer == "coeffring" and name == "__mul__":
            return self._observe_poly_mul
        if layer == "coeffring" and name == "__add__":
            return self._observe_poly_result
        if layer == "hecke":
            return self._observe_hecke
        if name == "__init__":
            return lambda args, _out: self.instances.setdefault(layer, []).append(args[0])
        if (layer, name) == ("weyl", "factor_extended"):
            return self._observe_factor
        if (layer, name) == ("tracegen", "trace_sweep"):
            return lambda args, _out: self.bump("tracegen.sweep_points", len(args[1]))
        return None

    def _observe_poly_mul(self, args, out):
        a, b = args
        if type(b) is type(a):
            self.bump("coeffring.term_products", len(a.terms) * len(b.terms))
        self.peak("coeffring.max_coeff_terms", len(out.terms))

    def _observe_poly_result(self, _args, out):
        self.peak("coeffring.max_coeff_terms", len(out.terms))

    def _observe_hecke(self, _args, out):
        self.peak("hecke.peak_support", len(out.terms))

    def _observe_factor(self, _args, out):
        # the letters a Hecke fold walks through: factor_extended called
        # directly from mul / rmul_basis / invert_basis
        if self.stack and id(self.stack[-1][1]) in self._fold_ids:
            self.bump("hecke.fold_letters", len(out[1]))

    # -- installation

    def install(self) -> None:
        import affinehecke.cli  # noqa: F401  (loads every module of the package)

        for layer, entries in SPANS.items():
            for owner, attr in entries:
                name = "__mul__" if attr == "__rmul__" else attr  # one ring product
                _replace(owner, attr, lambda fn, l=layer, n=name: self.span(l, n, fn, self.observer(l, n)))
        for owner, name in COUNTED:
            _replace(owner, name, lambda fn, n=name: self.counter(f"weyl.{n}_calls", fn))
        self._fold_ids = {id(self.spans[f"hecke.{n}"]) for n in FOLDS}
        for key in ("hecke.fold_letters", "hecke.peak_support", "coeffring.term_products",
                    "coeffring.max_coeff_terms", "tracegen.sweep_points"):
            self.counts.setdefault(key, 0)

    def cache_sizes(self) -> dict[str, int]:
        def total(layer, attr):
            return sum(len(getattr(obj, attr, ())) for obj in self.instances.get(layer, []))

        return {
            "weyl.step_cache_entries": total("weyl", "_step_cache"),
            "weyl.length_cache_entries": total("weyl", "_length_cache"),
            "bernstein.theta_cache_entries": total("bernstein", "_theta_cache"),
            "bernstein.inverse_cache_entries": total("bernstein", "_inv_cache"),
        }

    def stats(self) -> dict:
        return {
            "spans": self.spans,
            "self_s": {layer: v[0] for layer, v in self.self_s.items()},
            "counts": {**self.counts, **self.cache_sizes()},
        }


def _replace(owner: str, name: str, make) -> None:
    """Swap `owner.name` for `make(original)`; a module-level function is
    also swapped in every package module that imported it by name."""
    module_name, _, cls_name = owner.partition(":")
    module = sys.modules[f"affinehecke.{module_name}"]
    if cls_name:
        cls = getattr(module, cls_name)
        setattr(cls, name, make(cls.__dict__[name]))
        return
    original = getattr(module, name)
    wrapped = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "affinehecke" and getattr(mod, name, None) is original:
            setattr(mod, name, wrapped)


def main(argv: list[str]) -> int:
    stats_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from affinehecke.cli import main as cli_main

    try:
        return cli_main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.stats(), fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
