"""Benchmark of the `hecke-trace` engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One workload is a fixed
`hecke-trace` invocation (see WORKLOADS and perfbench/README.md).  The
benchmark runs it as fresh child processes, one at a time, with
`HECKE_TRACE_THREADS=1`: a closed loop with a single client, which is how
the engine is used (bounded batch computations, no traffic).  It keeps
starting children for about S seconds and checks every report: exit code 0,
the report's own oracle, and, where one is recorded, the report's sha256.

With `--trace 0` it reports the end-to-end metrics: the child's wall time,
its peak RSS, and the set-up time of a separate probe child that only builds
the algebra tower.  The two times are scaled to a nominal host speed.  After
each child the benchmark runs a fixed reference kernel of its own for a tenth
of the child's time, and multiplies the median times by (nominal ÷ measured)
kernel pass time.  This cancels the host's speed changes, which reach 2×
over minutes on a shared VM.  The raw times are in the diagnostics line.

With `--trace 1` it alternates untraced children with children run under
perfbench/tracer.py, and reports the per-layer metrics, the layer
micro-benchmarks of perfbench/micro.py and the tracing overhead.

Diagnostics (sample counts, quartiles, tail percentiles) go to the line
before the last; the last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 only when
every run was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

SETUP_PROBES_FIRST = 4  # set-up probes before the first child; one more after each
RUN_LIMIT_S = 170.0  # a run ends well inside the 180 s it is allowed


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    digest: str  # sha256 of the report; for a seeded workload, at seed 0
    seeded: bool = False


WORKLOADS = {
    # The coefficient ring does nearly all the work; the Weyl layer almost none.
    "trace-bncn2": Workload(
        ("trace", "--datum", "BnCn(2)", "--box", "3"),
        "da22289a9ce1ea651fdf8a177bc8cdfef4e7919702883e9d48d0f04186d305d5",
    ),
    # Same code path with long translation words and small coefficients:
    # the Weyl layer and its caches show.
    "trace-g2": Workload(
        ("trace", "--datum", "G2", "--box", "2"),
        "7a9b57fe693cf33a7ee941d6af838b6c14e81b00a2e7dd7e830df04eb8a7b30f",
    ),
    # Principal series in rational mode: shallow folds over wide supports
    # and numeric evaluation; the only workload that reads the seed.
    "spherical-b2": Workload(
        ("spherical", "--datum", "B2", "--labels", '{"s1":4,"s2":9}',
         "--mode", "rational", "--box", "3"),
        "d2b8847990f3bff893fcc622684296047f0b768a93bdd6ba7722083dce2bf3c0",
        seeded=True,
    ),
    # The only workload through Bernstein.theta at non-dominant points.
    "commutation-c2": Workload(
        ("verify", "--datum", "C2", "--box", "2", "--suite", "lusztig"),
        "b9f85fdf73b7c3a5e6b8c8eb72cbb735611ab5b0a2777413fecae91dcdd3b9ed",
    ),
}

# What the `hecke-trace` console script runs.
CLI = ("-c", "import sys; from affinehecke.cli import main; sys.exit(main())")


class ChildTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise ChildTimeout


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int  # exit code, or -signal


def spawn(args: list[str], out: Path, env: dict, timeout: float) -> Child:
    """Run the interpreter on `args` with stdout to `out`; wall time from
    spawn to exit and the child's own peak RSS, from `wait4`."""
    err = out.with_suffix(".err")
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    argv = [sys.executable, *args]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
    except ChildTimeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted or terminated: leave no child behind
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.stderr.write(f"child {' '.join(args)} exited with {code}:\n")
        sys.stderr.write(err.read_text(encoding="utf-8", errors="replace")[-2000:])
    return Child(wall, usage.ru_maxrss / 1024.0, code)


def oracle_holds(command: str, report: dict) -> bool:
    """The report's own correctness claim."""
    if command == "trace":
        return report.get("all_equal") is True and bool(report.get("records"))
    if command == "verify":
        return report.get("pass") is True and bool(report.get("suites"))
    records = report.get("records") or []
    return bool(records) and all(
        r.get("skipped") is False and r.get("diff") == "0" for r in records
    )


def check_report(wl: Workload, seed: int, path: Path) -> str | None:
    """None when the report passes, else the reason it fails."""
    data = path.read_bytes()
    try:
        report = json.loads(data)
    except ValueError:
        return "report is not JSON"
    if not oracle_holds(wl.argv[0], report):
        return "the report's own oracle fails"
    if not wl.seeded or seed == 0:
        digest = hashlib.sha256(data).hexdigest()
        if digest != wl.digest:
            return f"report sha256 {digest[:10]} differs from the recorded {wl.digest[:10]}"
    return None


# The reference kernel: a sparse product with cancellation (the engine's hot
# loop) written here, so that no change to the engine can move it.  Its
# mean pass time over a run measures the host's speed during that run.
REF_A = {(i, j, k): (-1) ** (i + j) * (1 + (i * j + k) % 3)
         for i in range(-3, 4) for j in range(-3, 4) for k in range(-2, 2)}
REF_B = {(2, 0, 0): 1, (0, 0, 0): -1, (1, 1, 0): 2}
REF_NOMINAL_S = 1e-3  # seconds per pass on the nominal host
REF_SHARE = 0.1  # reference time after each child, as a share of its wall time


def reference_kernel(seconds: float) -> tuple[int, float]:
    """Passes of the reference kernel for at least `seconds`: (passes, time)."""
    passes = 0
    t0 = time.perf_counter()
    while True:
        out: dict = {}
        for e2, c2 in REF_B.items():
            for e1, c1 in REF_A.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return passes, elapsed


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return {"p": p, "value": statistics.quantiles(values, n=1000)[round(p * 10) - 1]}
    return None


def summary(values: list[float]) -> dict:
    out = {"n": len(values), "median": statistics.median(values), "min": min(values),
           "max": max(values), "tail": tail(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


class Bench:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        # Bytecode is cached beside the sources, as an installed package has
        # it; the warm-up probe writes it.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env.update(
            PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
            PYTHONHASHSEED="0",
            HECKE_TRACE_THREADS="1",
        )
        self.argv = list(self.wl.argv) + (["--seed", str(seed)] if self.wl.seeded else [])

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def helper(self, script: str, *args: str) -> Child:
        """A probe or micro-benchmark child; a failure makes the run incorrect."""
        out = BUILD / f"{self.name}.{Path(script).stem}.out"
        child = spawn([str(HERE / script), *args], out, self.env, self.remaining())
        if child.code != 0:
            self.correct = False
        return child

    def probe(self) -> float:
        return self.helper("setup_probe.py", *self.wl.argv).wall_s

    def workload_child(self, traced: bool, index: int) -> tuple[Child, dict | None]:
        kind = "traced" if traced else "plain"
        out = BUILD / f"{self.name}.{kind}.json"
        stats_path = BUILD / f"{self.name}.stats.{index}.json"
        if traced:
            args = [str(HERE / "tracer.py"), str(stats_path), *self.argv]
        else:
            args = [*CLI, *self.argv]
        child = spawn(args, out, self.env, self.remaining())
        self.attempted += 1
        reason = f"exit code {child.code}" if child.code else check_report(self.wl, self.seed, out)
        if reason is None and traced and out.read_bytes() != (BUILD / f"{self.name}.plain.json").read_bytes():
            reason = "the traced report differs from the untraced one"
        stats = None
        if reason is None and traced:
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
            stats["report_bytes"] = out.stat().st_size
        if reason is not None:
            self.failed += 1
            sys.stderr.write(f"{self.name} ({kind} run {index}): {reason}\n")
        return child, stats

    def measure(self):
        """Workload children until the next one is expected to end more than
        half a child past `seconds`; with tracing, untraced and traced
        children alternate.  Set-up probes and reference-kernel bursts run
        before the children and after each one, so that they sample the
        whole run.  Returns (setup times, reference bursts as (passes,
        seconds), untraced children, traced children, traced stats)."""
        self.probe()  # warm-up: writes the bytecode cache; not counted
        setup = [self.probe() for _ in range(SETUP_PROBES_FIRST)]
        ref = [reference_kernel(0.4)]
        kinds = [False, True] if self.trace else [False]
        plain: list[Child] = []
        traced: list[Child] = []
        stats: list[dict] = []
        deadline = time.perf_counter() + self.seconds
        i = 0
        while True:
            is_traced = kinds[i % len(kinds)]
            child, st = self.workload_child(is_traced, i)
            (traced if is_traced else plain).append(child)
            if st is not None:
                stats.append(st)
            setup.append(self.probe())
            ref.append(reference_kernel(REF_SHARE * child.wall_s))
            i += 1
            nxt = traced if kinds[i % len(kinds)] else plain
            expected = statistics.median(c.wall_s for c in nxt) if nxt else child.wall_s
            done = plain and (traced or not self.trace)
            late = time.perf_counter() + expected / 2 > deadline
            if done and (late or self.remaining() < 2 * expected):
                return setup, ref, plain, traced, stats

    def run(self) -> dict:
        BUILD.mkdir(parents=True, exist_ok=True)
        micro = None
        if self.trace:
            child = self.helper("micro.py")
            if child.code == 0:
                micro = json.loads((BUILD / f"{self.name}.micro.out").read_text(encoding="utf-8"))
        setup, ref, plain, traced, stats = self.measure()
        walls = [c.wall_s for c in plain]
        # host speed relative to the nominal host; see README.md
        speed = REF_NOMINAL_S * sum(n for n, _ in ref) / sum(t for _, t in ref)
        detail = {
            "workload": self.name,
            "seed": self.seed,
            "fail_share": self.failed / self.attempted,
            "wall_s_raw": summary(walls),
            "setup_s_raw": summary(setup),
            "peak_rss_mb": summary([c.rss_mb for c in plain]),
            "ref_pass_s": summary([t / n for n, t in ref]),
            "speed": speed,
        }
        if self.trace:
            detail["traced_wall_s_raw"] = summary([c.wall_s for c in traced])
            metrics = self.layer_metrics(stats, micro, traced, plain)
        else:
            metrics = {
                "wall_s": (statistics.median(walls) * speed, "s"),
                "setup_s": (statistics.median(setup) * speed, "s"),
                "peak_rss_mb": (statistics.median(c.rss_mb for c in plain), "MiB"),
            }
        print(json.dumps({"detail": detail}, sort_keys=True))
        return {
            "correct": self.correct and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def layer_metrics(self, stats: list[dict], micro: dict | None, traced, plain) -> dict:
        if not stats or micro is None:
            self.correct = False
            return {}
        def calls_of(s):
            return {key: rec[0] for key, rec in s["spans"].items()}

        first = stats[0]
        for other in stats[1:]:
            if other["counts"] != first["counts"] or calls_of(other) != calls_of(first):
                self.correct = False
                sys.stderr.write(f"{self.name}: traced counts differ between runs\n")

        def timed(get) -> float:
            return statistics.median(get(s) for s in stats)

        def span_s(key):
            return timed(lambda s: s["spans"][key][1]), "s"

        def self_s(layer):
            return timed(lambda s: s["self_s"].get(layer, 0.0)), "s"

        def calls(key):
            return first["spans"][key][0], "count"

        def count(key):
            return first["counts"][key], "count"

        def hit_ratio(calls_n, entries):
            return (1 - entries / calls_n if calls_n else 0.0), "ratio"

        c = first["counts"]
        theta_calls = first["spans"]["bernstein.theta"][0]
        metrics = {
            "coeffring.self_s": self_s("coeffring"),
            "coeffring.mul_calls": calls("coeffring.__mul__"),
            "coeffring.mul_s": span_s("coeffring.__mul__"),
            "coeffring.term_products": count("coeffring.term_products"),
            "coeffring.max_coeff_terms": count("coeffring.max_coeff_terms"),
            "coeffring.add_calls": calls("coeffring.__add__"),
            "coeffring.add_s": span_s("coeffring.__add__"),
            "coeffring.evaluate_calls": calls("coeffring.evaluate"),
            "coeffring.evaluate_s": span_s("coeffring.evaluate"),
            "coeffring.exact_divide_s": span_s("coeffring.exact_divide"),
            "weyl.self_s": self_s("weyl"),
            "weyl.gen_step_calls": count("weyl.gen_step_calls"),
            "weyl.step_cache_entries": count("weyl.step_cache_entries"),
            # each miss stores both directions of the step
            "weyl.gen_step_hit_ratio": hit_ratio(c["weyl.gen_step_calls"], c["weyl.step_cache_entries"] / 2),
            "weyl.length_calls": count("weyl.length_calls"),
            "weyl.length_cache_entries": count("weyl.length_cache_entries"),
            "weyl.factor_extended_calls": calls("weyl.factor_extended"),
            "weyl.factor_extended_s": span_s("weyl.factor_extended"),
            "hecke.self_s": self_s("hecke"),
            "hecke.invert_basis_calls": calls("hecke.invert_basis"),
            "hecke.invert_basis_s": span_s("hecke.invert_basis"),
            "hecke.rmul_basis_calls": calls("hecke.rmul_basis"),
            "hecke.rmul_basis_s": span_s("hecke.rmul_basis"),
            "hecke.mul_calls": calls("hecke.mul"),
            "hecke.mul_s": span_s("hecke.mul"),
            "hecke.fold_letters": count("hecke.fold_letters"),
            "hecke.peak_support": count("hecke.peak_support"),
            "bernstein.self_s": self_s("bernstein"),
            "bernstein.theta_calls": (theta_calls, "count"),
            "bernstein.theta_s": span_s("bernstein.theta"),
            "bernstein.theta_cache_entries": count("bernstein.theta_cache_entries"),
            "bernstein.theta_hit_ratio": hit_ratio(theta_calls, c["bernstein.theta_cache_entries"]),
            "bernstein.inverse_cache_entries": count("bernstein.inverse_cache_entries"),
            "bernstein.expand_calls": calls("bernstein.expand_in_bernstein"),
            "bernstein.expand_s": span_s("bernstein.expand_in_bernstein"),
            "tracegen.self_s": self_s("tracegen"),
            "tracegen.sweep_s": span_s("tracegen.trace_sweep"),
            "tracegen.sweep_points": count("tracegen.sweep_points"),
            "tracegen.partition_calls": calls("tracegen.trace_theta_partition"),
            "tracegen.partition_s": span_s("tracegen.trace_theta_partition"),
            "tracegen.c_full_calls": calls("tracegen.c_full"),
            "tracegen.c_full_s": span_s("tracegen.c_full"),
            "principal.self_s": self_s("principal"),
            "principal.symbolic_action_calls": calls("principal.symbolic_action"),
            "principal.symbolic_action_s": span_s("principal.symbolic_action"),
            "principal.laplace_matrix_s": span_s("principal.laplace_matrix"),
            "principal.macdonald_s": span_s("principal.macdonald_value"),
            "rootdata.build_s": self_s("rootdata"),
            "cli.emit_s": span_s("cli.emit"),
            "cli.report_bytes": (first["report_bytes"], "bytes"),
            "coeffring.mul_monomial_us": (micro["coeffring.mul_monomial_us"], "us"),
            "coeffring.mul_binomial_us": (micro["coeffring.mul_binomial_us"], "us"),
            "weyl.factor_cold_ms": (micro["weyl.factor_cold_ms"], "ms"),
            "trace_overhead": (
                statistics.median(t.wall_s for t in traced)
                / statistics.median(p.wall_s for p in plain) - 1,
                "ratio",
            ),
        }
        return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "affinehecke" / "cli.py").is_file():
        sys.stderr.write(f"error: no affinehecke sources under {SRC}; run from a source checkout\n")
        return 2
    # One CPU for this process and its children, so that the reference kernel
    # times the CPU the children run on; each vCPU's speed changes on its own.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))
    result = Bench(args.workload, args.seed, args.seconds, bool(args.trace)).run()
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
