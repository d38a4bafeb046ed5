#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for omegafract.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload det-scc --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-check

Workloads (see README.md in this directory): ``cli-oracle``, ``det-scc``
and ``nfa-periodic``.  Each is a closed loop with one client: one process,
one analysis at a time, at most one child process at a time.  The seed
only picks the generated inputs; the program sees nothing but them.

A run sets up (import, corpus, references, warm-up), then calls the
analyses of the corpus until ``--seconds`` have elapsed; each analysis's
time is the median of its calls in the run.  Every result is checked
against a reference computed without the code being timed.  With
``--trace 0`` the last line of output holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced pass, which
follows one untraced pass.  Lines before it describe the environment,
the corpus, every metric with its unit and sample count, and every failed
check.
"""

from __future__ import annotations

import os
import sys
import time

# A fixed hash seed: the program iterates sets of state names, so the hash
# seed reorders its work, and it moved single analyses by up to 30% from
# one process to the next.  Re-executing once sets it for this process
# and for every child, before anything is timed.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

#: Set-up time runs from here: it includes importing numpy and omegafract.
STARTED = time.perf_counter()

# One BLAS thread: the analyses run one at a time, and more BLAS threads
# only compete with them for the cores and add noise.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import importlib
import json
import platform
import resource
import signal
import statistics
import traceback
import warnings
from pathlib import Path

import numpy as np

import corpus
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ["cli-oracle", "det-scc", "nfa-periodic"]
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: Samples beyond the tail percentile, per pass.
TAIL_BEYOND = 10
#: Children timed for cli.startup_ms / cli.import_ms, and CLI probe calls.
PROBE_REPEATS = 5
#: Share of the time that extra calls take while the first pass lasts.
EXTRA_SHARE = 1 / 3
#: Analyses still due this long after start are not run but counted as
#: failed, so that a run always ends well within 180 s.
RUN_BUDGET_S = 140.0

END_TO_END = ["setup_s", "analyses_per_s", "call_p50_ms", "call_tail_ms", "peak_rss_mb"]


class AnalysisTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise AnalysisTimeout()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


class Context:
    """Everything a run needs after set-up."""

    def __init__(self, workload: str, seed: int):
        sys.path.insert(0, str(SRC))
        self.of = importlib.import_module("omegafract")
        self.cli = importlib.import_module("omegafract.cli")
        WORK.mkdir(exist_ok=True)
        self.workload = workload
        self.seed = seed
        self.runner = workloads.ChildRunner(ROOT, WORK)
        self.inputs, self.analyses = workloads.build(
            workload, seed, self.of, self.runner
        )
        self.warmup_failures = []
        for a in self.warmup():
            _, errors = execute(a)
            self.warmup_failures += [f"warm-up {a.label}: {e}" for e in errors]
        self.setup_s = time.perf_counter() - STARTED

    def warmup(self):
        """The analysis on the smallest input, for each kind."""
        best = {}
        for a in self.analyses:
            if a.kind not in best or _size(a) < _size(best[a.kind]):
                best[a.kind] = a
        return list(best.values())


def _size(a) -> tuple[int, int]:
    return a.inp.meta["subsets"] or 0, a.inp.meta["transitions"]


def execute(a, tracer=None) -> tuple[float, list[str]]:
    """Run one analysis under its time limit: (call seconds, mismatches).
    Unexpected errors, time-outs and failed checks all count as failures."""
    cli = bool(a.argv)
    if not cli:
        signal.setitimer(signal.ITIMER_REAL, workloads.LIMIT_S)
    start = time.perf_counter()
    try:
        if tracer is None:
            output = a.call()
        else:
            with tracer.span("cli.subprocess" if cli else "analysis"):
                output = a.call()
        elapsed = time.perf_counter() - start
    except (AnalysisTimeout, TimeoutError):
        return time.perf_counter() - start, [f"timed out after {workloads.LIMIT_S} s"]
    except Exception as exc:  # the loop must go on; report the failure
        last = traceback.extract_tb(exc.__traceback__)[-1]
        return time.perf_counter() - start, [
            f"raised {type(exc).__name__}: {exc} ({last.filename}:{last.lineno})"
        ]
    finally:
        if not cli:
            signal.setitimer(signal.ITIMER_REAL, 0)
    try:
        return elapsed, a.check(output)
    except Exception as exc:
        return elapsed, [f"unexpected output ({type(exc).__name__}: {exc})"]


def setup_child(ctx: Context) -> float:
    """Set-up time measured in a fresh process."""
    code, text = ctx.runner.run(
        [str(HERE / "run.py"), "--setup-only", "--workload", ctx.workload,
         "--seed", str(ctx.seed)],
        170.0,
    )
    if code != 0:
        raise RuntimeError(f"set-up child failed with status {code}")
    return json.loads(text.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Calls:
    """Call times of the measured analyses, per analysis."""

    def __init__(self, analyses: int):
        self.times: list[list[float]] = [[] for _ in range(analyses)]
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def per_analysis(self) -> list[float]:
        """Each analysis's median call time in the run."""
        return [statistics.median(t) for t in self.times if t]

    def rate(self) -> float:
        """Analyses per second of call time, each analysis weighing once."""
        times = self.per_analysis()
        return len(times) / sum(times)


def measure(ctx: Context, seconds: float, tracer=None) -> Calls:
    """Every analysis once, in pass order, and extra calls of the analysis
    with the least call time so far: while the pass lasts they take up to
    EXTRA_SHARE of the time, after it the rest of ``seconds``.  A cheap
    analysis is thus timed many times and a slow one once, and the calls
    of each are spread over the whole run."""
    out = Calls(len(ctx.analyses))
    total = [0.0] * len(ctx.analyses)
    start = time.perf_counter()

    def call(i: int) -> float:
        a = ctx.analyses[i]
        if tracer is not None:
            tracer.analysis = a.label
        out.attempted += 1
        elapsed = 0.0
        if time.perf_counter() - STARTED > RUN_BUDGET_S:
            errors = ["not run: the run's time budget is spent"]
        else:
            elapsed, errors = execute(a, tracer)
            out.times[i].append(elapsed)
            total[i] += elapsed
        out.failed += bool(errors)
        out.failures += [f"{a.label}: {e}" for e in errors]
        return elapsed

    def running(share: float) -> bool:
        now = time.perf_counter()
        return (now - start < seconds and now - STARTED <= RUN_BUDGET_S
                and extra < share * (now - start))

    extra = 0.0
    for i in range(len(ctx.analyses)):
        call(i)
        while running(EXTRA_SHARE):
            extra += call(min(range(i + 1), key=total.__getitem__))
    while running(1.0):
        extra += call(min(range(len(total)), key=total.__getitem__))
    return out


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics.  With a few dozen analyses a plain order
    statistic is a single analysis; this estimate averages its neighbours."""
    n = len(samples)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    x = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, x, cdf)
    weights = np.diff(edges)
    return float(np.dot(weights / weights.sum(), np.sort(samples)))


def tail_percentile(n: int) -> float:
    """The highest percentile of ``n`` analyses that still has
    TAIL_BEYOND of them beyond it."""
    return 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(ctx: Context, run: Calls, setups: list[float], rss_kb: int) -> dict:
    times = run.per_analysis()
    n = len(times)
    pct = tail_percentile(n)
    calls = sorted(len(t) for t in run.times)
    per = (f"n={n} analyses, each the median of its {calls[0]}-{calls[-1]}"
           f" calls ({sum(calls)} calls)")
    return {
        "setup_s": (statistics.median(setups),
                    f"median of {len(setups)} set-ups: "
                    + " ".join(f"{s:.3f}" for s in setups)),
        "analyses_per_s": (run.rate(),
                           f"{n} analyses / sum of their median call times"),
        "call_p50_ms": (1000 * quantile(times, 0.5),
                        f"Harrell-Davis median, {per}"),
        "call_tail_ms": (1000 * quantile(times, pct / 100),
                         f"Harrell-Davis p{pct:.1f}, {per},"
                         f" {TAIL_BEYOND} analyses beyond"),
        "peak_rss_mb": (rss_kb / 1024,
                        "largest CLI child" if ctx.workload == "cli-oracle"
                        else "benchmark process"),
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _cli_probes(ctx: Context) -> dict:
    """cli.startup_ms and cli.import_ms from fresh children (medians)."""
    runner = ctx.runner
    startup, imports = [], []
    snippet = (
        "import time; t = time.perf_counter(); import omegafract;"
        " print(time.perf_counter() - t)"
    )
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        runner.run(["-c", "pass"], 60.0)
        startup.append(time.perf_counter() - t)
        imports.append(float(runner.run(["-c", snippet], 60.0)[1]))
    return {
        "cli.startup_ms": 1000 * statistics.median(startup),
        "cli.import_ms": 1000 * statistics.median(imports),
    }


def traced(ctx: Context) -> tuple[dict, Calls, Calls]:
    """One untraced pass, then one traced pass, then the CLI calls of the
    pass (cli-oracle) or of the six bundled automata (the other workloads)
    replayed in process through ``cli.main`` with every layer traced, so
    that every layer is reached on every workload."""
    base = measure(ctx, 0.0)
    boundary = tracing.Tracer()
    layers = tracing.Tracer()
    if ctx.workload == "cli-oracle":
        # the children are opaque: time them at the process boundary
        run = measure(ctx, 0.0, boundary)
        replay = ctx.analyses
        subprocess_s = boundary.durations("cli.subprocess")
    else:
        with tracing.instrument(layers):
            run = measure(ctx, 0.0, layers)
        bundled = [corpus.Input(n, doc) for n, doc in corpus.BUNDLED.items()]
        replay = workloads.cli_oracle(ctx.runner, bundled)
        subprocess_s = []
        for a in replay:
            if a.kind == "check":
                t = time.perf_counter()
                ctx.runner.run(a.argv, workloads.LIMIT_S)
                subprocess_s.append(time.perf_counter() - t)
    with tracing.instrument(layers):
        for a in replay:
            layers.analysis = f"{a.label} (in process)"
            errors = a.check(workloads.inprocess_cli(ctx.cli, a))
            run.failures += [f"{a.label} (in process): {e}" for e in errors]
    timed = {
        f"{a.label} (in process)"
        for a in replay
        if ctx.workload == "cli-oracle" or a.kind == "check"
    }
    inprocess_s = [
        end - start
        for name, start, end, _, analysis in layers.spans
        if name == "cli.inprocess" and analysis in timed
    ]
    self_s = layers.self_times()
    metrics = _cli_probes(ctx)
    metrics["cli.subprocess_ms"] = 1000 * statistics.median(subprocess_s)
    metrics["cli.inprocess_ms"] = 1000 * statistics.median(inprocess_s)
    for name in tracing.LAYER_FUNCTIONS:
        if not name.startswith("cli."):
            metrics[f"{name}_ms"] = 1000 * self_s.get(name, 0.0)
    for name in tracing.COUNTERS:
        metrics[name] = layers.counts.get(name, 0.0)
    metrics["dimension.nontrivial_sccs"] = sum(
        a.inp.meta["nontrivial_sccs"]
        for a in (ctx.analyses if replay is ctx.analyses else ctx.analyses + replay)
        if a.kind in ("dimension_report", "dim")
    )
    metrics["trace_overhead_ratio"] = base.rate() / run.rate()
    layers.dump(WORK / f"trace-{ctx.workload}-{ctx.seed}.json")
    boundary.dump(WORK / f"trace-{ctx.workload}-{ctx.seed}-cli.json")
    return metrics, base, run


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def blas_threads() -> str:
    """Threads the loaded OpenBLAS reports, read through its C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return "unknown"
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def describe(ctx: Context) -> None:
    print(f"# python {platform.python_version()} numpy {np.__version__}"
          f" nproc {os.cpu_count()} blas_threads {blas_threads()}"
          f" workload {ctx.workload} seed {ctx.seed}")
    n = len(ctx.inputs)
    periodic = sum(1 for i in ctx.inputs if i.meta["period"] > 1)
    nondet = sum(1 for i in ctx.inputs if not i.meta["deterministic"])
    gap = sum(1 for i in ctx.inputs if i.meta["gap"])
    print(f"# corpus: {n} inputs, periodic {periodic}/{n},"
          f" nondeterministic {nondet}/{n}, gap {gap}/{n}")
    for inp in ctx.inputs:
        m = inp.meta
        print(f"#   {inp.name}: states {m['states']} transitions {m['transitions']}"
              f" nontrivial_sccs {m['nontrivial_sccs']} subsets {m['subsets']}"
              f" period {m['period']} deterministic {m['deterministic']}"
              f" gap {m['gap']} sha256 {m['sha256']}")
    kinds: dict[str, int] = {}
    for a in ctx.analyses:
        kinds[a.kind] = kinds.get(a.kind, 0) + 1
    print(f"# pass: {len(ctx.analyses)} analyses: "
          + ", ".join(f"{k} x{v}" for k, v in kinds.items()))


def emit(spec_key: str, values: dict, notes: dict, run: Calls, extra: list[str]) -> int:
    """Print every metric BENCHMARK.json names under ``spec_key`` with its
    unit, then the failures, then the result object as the last line."""
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))[spec_key]
    metrics = {}
    for entry in spec:
        name = entry["name"]
        if name not in values:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            return 3
        value = float(values[name])
        metrics[name] = {"value": value, "unit": entry["unit"]}
        note = f"; {notes[name]}" if name in notes else ""
        print(f"{name} = {value:.6g} {entry['unit']} ({entry['better']} is better{note})")
    failures = extra + run.failures
    print(f"failed_ratio = {run.failed}/{run.attempted}"
          f" = {run.failed / run.attempted:.6g}")
    for line in failures:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def self_check() -> int:
    """Same seed, same documents, another seed other ones; every metric
    BENCHMARK.json names is one this benchmark measures.  Needs no
    omegafract."""
    ok = True
    for name, make in corpus.CORPORA.items():
        first = [i.text for i in make(7)]
        again = [i.text for i in make(7)]
        other = [i.text for i in make(8)]
        same = first == again
        ok &= same and first != other
        print(f"{name}: documents of seed 7 twice"
              f" {'identical' if same else 'DIFFERENT'},"
              f" seed 8 {'differs' if first != other else 'IDENTICAL'}"
              f" ({len(first)} inputs)")
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    measured = {
        "end_to_end": set(END_TO_END),
        "per_layer": set(tracing.PER_LAYER_METRICS),
    }
    for key, names in measured.items():
        listed = {e["name"] for e in spec[key]}
        if listed != names:
            ok = False
            print(f"{key}: BENCHMARK.json lists {sorted(listed - names)} not"
                  f" measured, misses {sorted(names - listed)}")
        else:
            print(f"{key}: all {len(names)} metrics listed and measured")
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and exit")
    parser.add_argument("--self-check", action="store_true",
                        help="corpus determinism and metric list checks")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "omegafract" / "__init__.py").is_file():
        print(f"error: no omegafract package under {SRC}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    signal.signal(signal.SIGALRM, _on_alarm)
    ctx = Context(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": ctx.setup_s}))
        return 0
    describe(ctx)
    if args.trace:
        values, base, run = traced(ctx)
        notes = {"trace_overhead_ratio":
                 f"untraced {base.attempted} analyses vs traced {run.attempted}"}
        return emit("per_layer", values, notes, run,
                    ctx.warmup_failures + base.failures)
    setups = [ctx.setup_s] + [setup_child(ctx) for _ in range(SETUP_REPEATS - 1)]
    ctx.runner.peak_rss_kb = 0
    run = measure(ctx, args.seconds)
    if ctx.workload == "cli-oracle":
        rss_kb = ctx.runner.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    described = end_to_end(ctx, run, setups, rss_kb)
    values = {k: v for k, (v, _) in described.items()}
    notes = {k: note for k, (_, note) in described.items()}
    return emit("end_to_end", values, notes, run, ctx.warmup_failures)


if __name__ == "__main__":
    sys.exit(main())
