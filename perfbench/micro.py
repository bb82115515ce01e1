"""Layer micro-benchmarks on fixed inputs, through the public API only.

    python3 perfbench/micro.py

Prints one JSON object of per-layer metrics:

* `coeffring.mul_monomial_us`, `coeffring.mul_binomial_us`: the 167-term
  coefficient of `theta((-3, -3))` on BnCn(2) (the largest coefficient of the
  `trace-bncn2` report, kept in `fixtures/`), multiplied by the monomial
  `v1^2 = q` and by the binomial `q - 1`.  These are the two products of the
  Hecke fold's generator step.
* `weyl.factor_cold_ms`: `factor_extended` of the G2 translation by 2*(2 rho),
  a 64-letter word, on a fresh `AffineWeyl` each time.

Each value is the median over batches; every result is checked.
"""

import json
import statistics
import sys
import time
from pathlib import Path

from affinehecke import AffineWeyl, LaurentPoly, build_preset
from affinehecke.coeffring import obj_to_poly

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "theta_bncn2_m3m3.json"
BATCHES = 9
PRODUCTS_PER_BATCH = 40


def per_call_us(fn, arg) -> float:
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(PRODUCTS_PER_BATCH):
            fn(arg)
        times.append((time.perf_counter() - t0) / PRODUCTS_PER_BATCH)
    return statistics.median(times) * 1e6


def coeffring_metrics() -> dict:
    with open(FIXTURE, encoding="utf-8") as fh:
        coeff = obj_to_poly(json.load(fh))
    if len(coeff.terms) != 167:
        raise SystemExit(f"fixture has {len(coeff.terms)} terms, expected 167")
    q = LaurentPoly.monomial(coeff.vars, (2, 0, 0))
    q_minus_one = q - LaurentPoly.one(coeff.vars)
    by_q, by_binomial = coeff * q, coeff * q_minus_one
    if len(by_q.terms) != 167 or by_binomial != by_q - coeff:
        raise SystemExit("coefficient products disagree")
    return {
        "coeffring.mul_monomial_us": per_call_us(coeff.__mul__, q),
        "coeffring.mul_binomial_us": per_call_us(coeff.__mul__, q_minus_one),
    }


def weyl_metrics() -> dict:
    datum = build_preset("G2")
    times = []
    for _ in range(BATCHES):
        weyl = AffineWeyl(datum)
        g = weyl.translation(tuple(2 * v for v in weyl.derived.two_rho))
        t0 = time.perf_counter()
        omega, word = weyl.factor_extended(g)
        times.append(time.perf_counter() - t0)
        if len(word) != 64 or omega != weyl.identity:
            raise SystemExit(f"G2 translation factored into {len(word)} letters, expected 64")
    return {"weyl.factor_cold_ms": statistics.median(times) * 1e3}


if __name__ == "__main__":
    json.dump({**coeffring_metrics(), **weyl_metrics()}, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
