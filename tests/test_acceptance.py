"""End-to-end acceptance battery.

Every test covers one numbered criterion and prints one PASS/FAIL line; a
failing assertion still reports its line through the try/finally wrapper.
Tolerances sit next to the assertions they guard.
"""

import json
import time
from functools import lru_cache

from affinehecke import (
    build_preset,
    exact_divide,
    height,
    is_dominant,
)
from affinehecke.bernstein import Bernstein
from affinehecke.cli import main as cli_main, num_obj
from affinehecke.coeffring import LabelSet
from affinehecke.hecke import HeckeAlgebra
from affinehecke.principal import PrincipalSeries
from affinehecke.tracegen import TorusPoint, TraceGen
from affinehecke.weyl import AffineWeyl

from xi_form import to_xi

# the two parametrized families are pinned at desk-scale sizes
ALL_PRESETS = (
    "A1-weight",
    "A1-root",
    "A2",
    "B2",
    "C2",
    "G2",
    "BnCn(2)",
    "GLn(2)",
    "GLn(3)",
)

ORACLE_PRESETS = ("A1-weight", "A1-root", "A2", "B2", "BnCn(2)")


@lru_cache(maxsize=None)
def tower(name):
    w = AffineWeyl(build_preset(name))
    L = LabelSet(w)
    H = HeckeAlgebra(w, L)
    B = Bernstein(H)
    return w, L, H, B


@lru_cache(maxsize=None)
def formal_trace(name):
    return TraceGen(tower(name)[3])


@lru_cache(maxsize=None)
def numeric_series(name, items, mode="rational"):
    w, L, H, B = tower(name)
    return PrincipalSeries(B, L.numeric_assignment(dict(items), mode))


def run_suite(capsys, preset, suite, *flags):
    """``hecke-trace verify`` on one suite: its exit code and suite record."""
    code = cli_main(["verify", "--datum", preset, "--suite", suite, *flags])
    (record,) = json.loads(capsys.readouterr().out)["suites"]
    return code, record


def _report(capsys, num: int, name: str, ok: bool) -> None:
    # bypass capture so the line lands in the terminal run log
    with capsys.disabled():
        print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_rank_one_closed_form(capsys):
    ok = False
    try:
        start = time.time()
        w, L, H, B = tower("A1-weight")
        trace = formal_trace("A1-weight")
        q = L.q_of_gen(0)
        qi = q.inverse()
        one = L.one()
        for k in range(1, 11):
            x = (-2 * k,)
            # (q - 1)(q^k - q^-k)/(q + 1): the division is exact in the
            # Laurent ring, so perform it exactly
            closed = exact_divide((q - one) * (q**k - qi**k), q + one)
            assert H.tau(B.theta(x)) == closed, k
            assert trace.trace_theta_partition([x])[x] == closed, k
        elapsed = time.time() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _report(capsys, 1, "rank-1 closed form, both methods, k = 1..10", ok)


def test_criterion_02_partition_equals_direct(capsys):
    ok = False
    try:
        start = time.time()
        # every x in the negative cone with height(-x) <= 6
        cases = {"A1-weight": 7, "A1-root": 7, "A2": 28, "B2": 28, "BnCn(2)": 28}
        for preset in ORACLE_PRESETS:
            code, record = run_suite(capsys, preset, "trace-oracle", "--box", "6")
            assert code == 0 and record["pass"], (preset, record["failures"])
            assert record["cases"] == cases[preset], preset
        elapsed = time.time() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        _report(capsys, 2, "partition formula = direct trace, height <= 6", ok)


def test_criterion_03_support(capsys):
    ok = False
    try:
        # every x in [-4, 4]^rank off the negative cone
        cases = {"A1-weight": 6, "A1-root": 4, "A2": 56, "B2": 59, "C2": 62, "G2": 56,
                 "BnCn(2)": 46, "GLn(2)": 76, "GLn(3)": 704}
        for preset in ALL_PRESETS:
            code, record = run_suite(capsys, preset, "support", "--box", "4")
            assert code == 0 and record["pass"], (preset, record["failures"])
            assert record["cases"] == cases[preset], preset
        ok = True
    finally:
        _report(capsys, 3, "trace vanishes off the negative cone, box [-4, 4]", ok)


def test_criterion_04_positivity(capsys):
    ok = False
    try:
        for preset in ALL_PRESETS:
            labels = tower(preset)[1]
            trace = formal_trace(preset)
            values = trace.trace_theta_partition(trace.negative_cone_points(6))
            for x, poly in values.items():
                if x == tuple(0 for _ in x):
                    assert poly == labels.one(), preset
                # a nonzero element of N[xi] is positive wherever every
                # xi_c = v_c - 1/v_c > 0, i.e. at all labels q_c > 1 at once
                xi = to_xi(labels, poly)
                assert xi and all(c > 0 for c in xi.terms.values()), (preset, x)
        ok = True
    finally:
        _report(capsys, 4, "tau(theta_x) a nonzero element of N[xi], height <= 6", ok)


def test_criterion_05_orthogonality(capsys):
    ok = False
    try:
        for preset in ("A2", "BnCn(2)"):
            w, L, H, B = tower(preset)
            elems = w.elements_up_to_length(4)
            expected = {"A2": 31, "BnCn(2)": 28}[preset]
            assert len(elems) == expected
            for g in elems:
                tg_star = H.star(H.basis(g))
                qg = L.q_of_w(g)
                for h in elems:
                    val = H.tau(H.mul(tg_star, H.basis(h)))
                    want = qg if g == h else L.zero()
                    assert val == want, (preset, g, h)
        ok = True
    finally:
        _report(capsys, 5, "tau(T_w* T_w') = delta q(w), all pairs l <= 4", ok)


def test_criterion_06_commutation_relation(capsys):
    ok = False
    try:
        # every x in [-3, 3]^2 against both finite generators
        for preset in ("A2", "BnCn(2)"):
            code, record = run_suite(capsys, preset, "lusztig", "--box", "3")
            assert code == 0 and record["pass"], (preset, record["failures"])
            assert record["cases"] == 98, preset
        ok = True
    finally:
        _report(capsys, 6, "commutation relation, both branches, box [-3, 3]", ok)


def test_criterion_07_intertwiners(capsys):
    ok = False
    try:
        # per generator: the left and right forms agree and the square is the
        # root factor; per pair of generators: the braid relation (length 3
        # on A2, length 4 on B2 and BnCn(2))
        cases = {"A1-weight": 2, "A1-root": 2, "A2": 5, "B2": 5, "BnCn(2)": 5}
        for preset, n in cases.items():
            code, record = run_suite(capsys, preset, "braid-intertwiner")
            assert code == 0 and record["pass"], (preset, record["failures"])
            assert record["cases"] == n, preset
        ok = True
    finally:
        _report(capsys, 7, "intertwiner squares and braid relations, symbolic", ok)


def test_criterion_08_spherical_formula(capsys):
    ok = False
    try:
        rational_labels = {
            "A1-weight": (("s1", 4), ("s0", 4)),
            "A2": (("s1", 4), ("s2", 4), ("s0", 4)),
            "B2": (("s1", 4), ("s2", 9), ("s0", 9)),
        }
        # `hecke-trace spherical --box 2` per seed; rational gaps are exact,
        # the same labels in floating point stay within tolerance
        for preset, items in rational_labels.items():
            for mode in ("rational", "complex"):
                ps = numeric_series(preset, items, mode)
                xs = [[1]] if ps.datum.rank == 1 else [[1, 1], [2, 1]]
                for seed in range(20):
                    code = cli_main([
                        "spherical", "--datum", preset, "--labels", json.dumps(dict(items)),
                        "--mode", mode, "--seed", str(seed), "--box", "2",
                    ])
                    records = json.loads(capsys.readouterr().out)["records"]
                    assert code == 0, (preset, mode, seed)
                    assert not any(r["skipped"] for r in records), (preset, mode, seed)
                    for r in records:
                        if mode == "rational":
                            assert r["diff"] == "0", (preset, seed, r)
                        else:
                            assert r["diff"] <= 1e-8, (preset, seed, r)
                    # the criterion's own points are among those checked
                    t = [num_obj(v) for v in ps.seeded_point(seed, mode=mode).images]
                    assert all(r["t"] == t for r in records), (preset, mode, seed)
                    assert all(x in [r["x"] for r in records] for x in xs), (preset, mode, seed)
        ok = True
    finally:
        _report(capsys, 8, "spherical formula vs module value, 20 seeds", ok)


def test_criterion_09_plus_basis_orthogonality(capsys):
    ok = False
    try:
        ps = numeric_series("A2", (("s1", 4),))
        datum = ps.datum
        dominant = [
            (a, b)
            for a in range(0, 5)
            for b in range(0, 5)
            if is_dominant(datum, (a, b)) and height(datum, (a, b)) <= 4
        ]
        assert set(dominant) == {(0, 0), (1, 1), (1, 2), (2, 1), (2, 2)}
        for x in dominant:
            for y in dominant:
                assert ps.inner_plus(x, y) == ps.inner_plus_target(x, y), (x, y)
        ok = True
    finally:
        _report(capsys, 9, "plus-basis orthogonality, dominant height <= 4", ok)


def test_criterion_10_truncated_series_check(capsys):
    ok = False
    try:
        ps = numeric_series("A1-weight", (("s1", 4), ("s0", 4)), mode="complex")
        H = ps.hecke
        t = TorusPoint((10**-0.5,))  # t(alpha) = 1/10
        helems = {
            "T_e": H.unit(),
            "T_s": H.basis(ps.weyl.simple_affine(0)),
            "theta_1": ps.bernstein.theta((1,)),
        }
        for name, h in helems.items():
            act = ps.symbolic_action(h)
            gaps = [
                ps.eisenstein_check(t, h, radius, act)[2]
                for radius in range(4, 44, 4)
            ]
            assert all(b <= a for a, b in zip(gaps, gaps[1:])), (name, gaps)
            assert gaps[-1] < 1e-6, (name, gaps[-1])
        ok = True
    finally:
        _report(capsys, 10, "truncated series check: gap shrinks below 1e-6", ok)


def test_criterion_11_numeric_generating_identity(capsys):
    ok = False
    try:
        w, L, H, B = tower("A1-weight")
        asg = L.numeric_assignment({"s1": 4, "s0": 4}, "complex")
        trace = TraceGen(B, asg)
        t = TorusPoint((10**-0.5,))
        lhs, rhs, gap = trace.generating_check(t, 30)
        assert gap <= 1e-8, gap
        ok = True
    finally:
        _report(capsys, 11, "numeric generating identity, height <= 30", ok)


def test_criterion_12_rank_one_series_identity(capsys):
    ok = False
    try:
        # the suite checks to order 12; one case per positive root
        for preset in ("A1-weight", "A1-root"):
            code, record = run_suite(capsys, preset, "dcoeff")
            assert code == 0 and record["pass"], (preset, record["failures"])
            assert record["cases"] == 1, preset
        ok = True
    finally:
        _report(capsys, 12, "rank-1 series identity to order 12, both label patterns", ok)
