"""Benchmark of the thetapairs exact pipeline.

    python3 perfbench/run.py --workload report-catalog --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the package is imported from ./src, so
nothing needs to be installed.  Each invocation is one fresh,
single-threaded process, because `pairs._realize_cached` and
`fibers._LIFTS` keep state for the life of the process.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics (`setup_s`, `wall_s`, `peak_rss_mb`); with `--trace 1`
the public functions of each module are wrapped from outside the package
(see tracer.py) and the object carries the per-layer metrics instead.
Workloads, metrics and reference figures are described in README.md.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

sys.dont_write_bytecode = True   # a run leaves no compiled files in the checkout

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"   # per-run details: raw times, probe samples, full trace

# Set-up is repeated in an untraced run and its median reported, so that
# one slow repetition does not move setup_s.
SETUP_REPEATS = 3

PACKAGE_MODULES = ("gaussian", "matrix", "lattice", "jordan", "rootsystem", "liealg",
                   "pairs", "involutions", "slices", "fibers", "diagonal",
                   "stabilizers", "report", "cli")


def load_package():
    """Import every thetapairs module (and sympy, which the package loads
    on first use) from ./src of this checkout."""
    if not (SRC / "thetapairs" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no thetapairs package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sympy  # noqa: F401

    modules = {name: importlib.import_module(f"thetapairs.{name}") for name in PACKAGE_MODULES}
    where = Path(modules["pairs"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"perfbench: thetapairs was imported from {where}, not from {SRC}")
    return argparse.Namespace(**modules)


# -- workloads ---------------------------------------------------------------------


class ReportCatalog:
    """`build_report` for each FULL_CATALOG pair in catalog order; set-up
    realizes all nine pairs first."""

    def __init__(self, tp, seed):
        self.tp = tp
        self.seed = seed
        self.specs = tuple(tp.pairs.FULL_CATALOG)

    def setup_steps(self):
        for spec in self.specs:
            yield lambda spec=spec: self.tp.pairs.realize(spec)

    def operations(self, round_index):
        report = self.tp.report
        for spec in self.specs:
            yield spec, (lambda spec=spec: report.build_report(spec, seed=self.seed))

    def check(self, outcomes, checks):
        import oracle

        for spec, doc in outcomes:
            oracle.check_report(spec, doc, checks)


SLICE_PAIRS = ("splitA:n=3", "glgl:n=2", "diag:sl3")
QUERIES_PER_PAIR = 8   # per round; every fourth query of a pair is a wall point
WALL_EVERY = 4


class SliceQueries:
    """Independent point queries y -> chi1(y) -> x = kw_solve -> is_regular(x),
    eigenvalues(x) and, at wall points, the Jordan parts of x."""

    def __init__(self, tp, seed):
        self.tp = tp
        self.seed = seed
        self.specs = SLICE_PAIRS

    def setup_steps(self):
        self.state = {}
        for spec in self.specs:
            yield lambda spec=spec: self._set_up_pair(spec)

    def _set_up_pair(self, spec):
        pair = self.tp.pairs.realize(spec)
        self.state[spec] = (pair, self.tp.slices.build_kw_section(pair, seed=self.seed))

    def operations(self, round_index):
        rng = random.Random(f"slice-queries/{self.seed}/{round_index}")
        for q in range(QUERIES_PER_PAIR):
            for spec in self.specs:
                pair, section = self.state[spec]
                wall = q % WALL_EVERY == WALL_EVERY - 1
                a_coeffs, spectrum = draw_a_point(pair, rng, wall, self.tp.gaussian)
                yield spec, (lambda p=pair, s=section, c=a_coeffs, sp=spectrum, w=wall:
                             self.query(p, s, c, sp, w))

    def query(self, pair, section, a_coeffs, spectrum, wall):
        slices = self.tp.slices
        zero = self.tp.gaussian.ZERO
        y = [zero] * pair.dim_g
        for c, v in zip(a_coeffs, pair.a_basis):
            y = [a + c * b for a, b in zip(y, v)]
        chi_y = slices.chi1(pair, y)
        x = section.slice_point(slices.kw_solve(section, chi_y))
        return {
            "y": y,
            "spectrum": spectrum,
            "chi1_y": chi_y,
            "x": x,
            "regular": slices.is_regular(pair, x),
            "eigenvalues": self.tp.jordan.eigenvalues(pair.from_coords(x)),
            "parts": (slices.ElementOfG1.from_coords(pair, x).jordan_parts()
                      if wall else None),
        }

    def check(self, outcomes, checks):
        import oracle

        bases = {}
        for spec, query in outcomes:
            pair = self.state[spec][0]
            if spec not in bases:
                bases[spec] = oracle.Basis(pair)
            rank_g = oracle.closed_forms(spec)["rank_g"]
            oracle.check_query(pair, bases[spec], rank_g, query, checks)


def _gauss_int(rng, gaussian):
    return gaussian.GaussRat(rng.randint(-6, 6), rng.randint(-3, 3))


def draw_a_point(pair, rng, wall, gaussian):
    """Gaussian-integer coordinates of y on the pair's a basis, and the
    spectrum of y.  Off a wall every restricted root is nonzero on y; on a
    wall one restricted root, drawn uniformly, vanishes."""
    zero = gaussian.ZERO
    family = pair.spec.family
    if family == "glgl":
        n = pair.spec.n
        while True:
            c = [_gauss_int(rng, gaussian) for _ in range(n)]
            if wall:
                a, b = rng.sample(range(n), 2)
                kind = rng.randrange(3)
                if kind == 0:
                    c[a] = zero
                else:
                    c[b] = c[a] if kind == 1 else -c[a]
            values = c + [-v for v in c]
            if any(not v.is_zero() for v in c) and (wall or len(set(values)) == 2 * n):
                return c, values
    # type A walls (splitA, diag): y is diag(d) (and -diag(d) for diag), trace 0
    size = pair.frame.n_def if family == "splitA" else pair.frame.n_def // 2
    while True:
        d = [_gauss_int(rng, gaussian) for _ in range(size - 1)]
        if wall:
            a, b = sorted(rng.sample(range(size), 2))
            if b < size - 1:
                d[b] = d[a]
            else:   # make the last entry, -sum(d), equal d[a]
                j = next(i for i in range(size - 1) if i != a)
                d[j] = zero
                d[j] = -sum(d, zero) - d[a]
        d.append(-sum(d, zero))
        if any(not v.is_zero() for v in d) and (wall or len(set(d)) == size):
            break
    coeffs, acc = [], zero
    for v in d[:-1]:
        acc = acc + v
        coeffs.append(acc)
    spectrum = d if family == "splitA" else d + [-v for v in d]
    return coeffs, spectrum


WORKLOADS = {"report-catalog": ReportCatalog, "slice-queries": SliceQueries}


# -- the run -----------------------------------------------------------------------


def measure(tp, workload, probe, seconds, traced):
    """Set up (once when traced, else SETUP_REPEATS times) and run whole
    rounds of operations until `seconds` have passed (one round when
    traced, so its counts describe a fixed amount of work).  Every step is
    timed in seconds and in reference seconds (see speed.py)."""
    setup_times, setup_ref = [], []
    for repeat in range(1 if traced else SETUP_REPEATS):
        if repeat:
            tp.pairs._realize_cached.cache_clear()
        times = [probe.time(step) for step in workload.setup_steps()]
        setup_times.append(sum(t for t, _ in times))
        setup_ref.append(sum(r for _, r in times))

    outcomes, round_times, round_ref, operation_times = [], [], [], []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        times = []
        for label, operation in workload.operations(len(round_times)):
            attempted += 1
            try:
                times.append(probe.time(lambda: outcomes.append((label, operation()))))
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                failed += 1
                print(f"{label}: FAILED ({type(exc).__name__}: {exc})", file=sys.stderr)
        operation_times.append(times)
        round_times.append(sum(t for t, _ in times))
        round_ref.append(sum(r for _, r in times))
        if traced or time.perf_counter() - begin >= seconds:
            break
    return (setup_times, setup_ref, round_times, round_ref, operation_times,
            outcomes, attempted, failed)


def run(args):
    tp = load_package()
    imports_s = time.perf_counter() - START
    workload = WORKLOADS[args.workload](tp, args.seed)
    probe = speed.SpeedProbe()
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    else:
        probe.sample()   # scales the imports, and any operation before the first tick
        probe.start()
    traced_start = time.perf_counter()
    try:
        (setup_times, setup_ref, round_times, round_ref, operation_times,
         outcomes, attempted, failed) = measure(tp, workload, probe, args.seconds,
                                                traced=tracer is not None)
    finally:
        if tracer:
            tracer.uninstall()
        else:
            probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced_wall = time.perf_counter() - traced_start

    import oracle

    checks = oracle.Checks()
    workload.check(outcomes, checks)
    for message in checks.failures:
        print(f"check failed: {message}", file=sys.stderr)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(round_times), "attempted": attempted, "failed": failed,
        "checks_made": checks.made, "checks_failed": checks.failures,
        "imports_s": imports_s, "setup_repeats_s": setup_times, "rounds_s": round_times,
        "setup_repeats_ref_s": setup_ref, "rounds_ref_s": round_ref,
        "operations_s": operation_times,
        "slowdown_samples": probe.samples,
    }
    print(f"{args.workload} seed {args.seed}: {len(round_times)} round(s) of "
          f"{attempted // len(round_times)} operations, {failed} failed; "
          f"{checks.made - len(checks.failures)}/{checks.made} output checks passed")

    if tracer:
        metrics = layer_metrics(tracer, workload, traced_wall)
        details["functions"] = {name: {"calls": st.calls, "s": st.total, "self_s": st.self_time}
                            for name, st in tracer.stats.items()}
    else:
        print(f"seconds: set-up repeats {' '.join(f'{t:.3f}' for t in setup_times)}, "
              f"rounds {' '.join(f'{t:.3f}' for t in round_times)}; mean slowdown "
              f"{statistics.mean(probe.samples):.3f} over {len(probe.samples)} samples")
        metrics = {
            "setup_s": (imports_s / probe.samples[0] + statistics.median(setup_ref), "s"),
            "wall_s": (statistics.mean(round_ref), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUTPUT.mkdir(exist_ok=True)
    details["result"] = result
    out = OUTPUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1) + "\n")
    return result


# Nothing traced runs inside these on either workload (or they are not
# called at all), so their inclusive time .s would repeat .self_s; leaving
# it out keeps the per-layer set within 128 metrics.
SELF_ONLY = frozenset((
    "matrix.ExactMatrix.rref", "matrix.ExactMatrix.__matmul__", "matrix.ExactMatrix.det",
    "gaussian.gaussian_roots", "liealg.LinearAlgebraFrame.ad", "lattice.smith_normal_form",
    "rootsystem.enumerate_weyl", "involutions.enumerate_split_borels",
    "slices.conjugate_ss_into_a", "fibers.g0_weyl_lifts", "stabilizers.stabilizer_fiber",
    "stabilizers.tangent_space_solver", "stabilizers.admissible_elements",
))

# One call per pair is the useful amount; more is work a report repeats.
WASTE_RATIOS = ("involutions.compute_subgroups", "involutions.detect_regular_borels",
                "slices.build_kw_section")


def layer_metric_names():
    """(name, unit) of every per-layer metric, in output order."""
    import tracer as tracing

    names = []
    for module, qualname in tracing.TARGETS:
        name = f"{module}.{qualname}"
        names.append((f"{name}.calls", "count"))
        if name not in SELF_ONLY:
            names.append((f"{name}.s", "s"))
        names.append((f"{name}.self_s", "s"))
    names += [(f"{module}.self_s", "s") for module in tracing.MODULES]
    names += [(f"{name}.calls_per_pair", "calls/pair") for name in WASTE_RATIOS]
    names += [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return names


def layer_metrics(tracer, workload, traced_wall):
    import tracer as tracing

    values = {"trace.wall_s": traced_wall,
              "trace.overhead_s": tracing.per_call_overhead() * tracer.total_calls()}
    for name, stat in tracer.stats.items():
        values[f"{name}.calls"] = stat.calls
        values[f"{name}.s"] = stat.total
        values[f"{name}.self_s"] = stat.self_time
        if name in WASTE_RATIOS:
            values[f"{name}.calls_per_pair"] = stat.calls / len(workload.specs)
    for module, seconds in tracer.module_self_time().items():
        values[f"{module}.self_s"] = seconds
    return {name: (values[name], unit) for name, unit in layer_metric_names()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds until at least this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
