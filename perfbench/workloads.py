"""The three workloads: one pass is a fixed list of analyses over the
seeded corpus, each with its own reference check.

An analysis is one library call (in process, starting from the serialized
document) or one CLI invocation.  ``Analysis.call`` performs it (this is
what gets timed) and ``Analysis.check`` turns its result into the list of
mismatches against the reference; an empty list means the result is
correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import corpus
import reference as ref
from corpus import Graph, Input

#: The CLI's default enumeration cap (echoed in every report's config).
CLI_CAP = 2**22
#: Per-analysis time limit, far above the slowest call at seed (about 6 s
#: in process, 2.5 s through the CLI).
LIMIT_S = 40.0

CLI_SUBCOMMANDS = ["check", "entropy", "dim", "measure", "raster", "oracle"]


@dataclass
class Analysis:
    label: str
    kind: str
    inp: Input
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    #: CLI analyses only: arguments after the interpreter
    argv: list[str] = field(default_factory=list)


def _close(what: str, got, want, tol=ref.REL_TOL) -> list[str]:
    if got == "inf":
        got = math.inf
    if isinstance(got, (int, float)) and ref.close(float(got), float(want), tol):
        return []
    return [f"{what}: got {got!r}, reference {want!r}"]


def _equal(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, reference {want!r}"]


# ---------------------------------------------------------------------------
# checks shared by the in-process and CLI paths
# ---------------------------------------------------------------------------


def check_dimensions(want: dict, hausdorff, box, gap, per_state) -> list[str]:
    errors = _close("hausdorff", hausdorff, want["hausdorff"])
    errors += _close("box", box, want["box"])
    errors += _equal("gap", gap, want["gap"])
    errors += _equal("cycle states", sorted(per_state), sorted(want["per_state"]))
    for q, h in want["per_state"].items():
        if q in per_state:
            errors += _close(f"cycle entropy {q}", per_state[q], h)
    return errors


def check_density(complete: set[str], nowhere, somewhere, witness) -> list[str]:
    errors = _equal("nowhere_dense", nowhere, not complete)
    errors += _equal("somewhere_dense", somewhere, bool(complete))
    if complete and witness not in complete:
        errors.append(f"density witness {witness!r} has incomplete cycle prefixes")
    return errors


def check_ambiguity(g: Graph, want: dict, unambiguous, witness) -> list[str]:
    errors = _equal("unambiguous", unambiguous, want["unambiguous"])
    if not want["unambiguous"] and not errors:
        if witness is None or not ref.witness_ok(g, want, witness):
            errors.append(f"ambiguity witness {witness!r} is not a shortest witness")
    return errors


def _max_depth(g: Graph, requested: int) -> int:
    depth, alphabet = 0, g.base**g.arity
    while depth < requested and alphabet ** (depth + 1) <= CLI_CAP:
        depth += 1
    return depth


# ---------------------------------------------------------------------------
# det-scc and nfa-periodic: in-process library calls
# ---------------------------------------------------------------------------


def _inprocess(of, inp: Input, kind: str, check) -> Analysis:
    """``omegafract.<kind>`` on the parsed document; the function is looked
    up at call time so that the traced run sees its instrumented form."""

    def call():
        return getattr(of, kind)(of.parse_automaton(inp.text))

    return Analysis(f"{inp.name}/{kind}", kind, inp, call, check)


def det_scc(of, inputs: list[Input]) -> list[Analysis]:
    out = []
    for inp in inputs:
        g = Graph(inp.doc)
        dims = ref.dimensions(g)
        ent = ref.entropy(g)
        meas = ref.measure(g)
        complete = ref.complete_states(g)
        out.append(_inprocess(of, inp, "entropy", lambda r, ent=ent: _close(
            "entropy", r, ent)))
        out.append(_inprocess(of, inp, "dimension_report", lambda r, dims=dims: (
            check_dimensions(dims, r.hausdorff, r.box, r.gap, r.per_state))))
        out.append(_inprocess(of, inp, "hausdorff_measure", lambda r, meas=meas: (
            _close("alpha", r.alpha, meas["alpha"])
            + _close("total measure", r.total, meas["total"]))))
        for members in g.nontrivial_sccs():
            sub = Input(f"{inp.name}/scc-{members[0]}", g.sub_doc(members, members[0]))
            want = dims["alphas"]["+".join(g.names[q] for q in members)]
            out.append(_inprocess(of, sub, "mw_alpha", lambda r, want=want: _close(
                "mw_alpha", r, want)))
        out.append(_inprocess(of, inp, "density_classifier", lambda r, c=complete: (
            check_density(c, r.nowhere_dense, r.somewhere_dense, r.witness_state))))
    return out


def nfa_periodic(of, inputs: list[Input]) -> list[Analysis]:
    out = []
    for inp in inputs:
        g = Graph(inp.doc)
        if inp.name.startswith("cycle-"):
            want = ref.cycle_entropy(g.n)
            out.append(_inprocess(of, inp, "entropy", lambda r, want=want: _close(
                "entropy", r, want)))
            continue
        ent = ref.entropy(g)
        amb = ref.ambiguity(g)
        out.append(_inprocess(of, inp, "entropy", lambda r, ent=ent: _close(
            "entropy", r, ent)))
        out.append(_inprocess(of, inp, "check_unambiguous", lambda r, g=g, amb=amb: (
            check_ambiguity(g, amb, r.unambiguous, None if r.witness is None
                            else [list(s.digits) for s in r.witness]))))
    return out


# ---------------------------------------------------------------------------
# cli-oracle: one CLI process per analysis
# ---------------------------------------------------------------------------

#: Closed forms for bundled automata; the eigvals reference must agree.
CLOSED_FORMS = {
    "cantor": {"hausdorff": math.log(2) / math.log(3), "total": 1.0},
    "full_binary": {"hausdorff": 1.0, "box": 1.0, "total": 1.0},
    "dyadic": {"hausdorff": 0.0, "box": 1.0, "gap": True},
}


def _cli_expectations(name: str, g: Graph) -> dict:
    dims = ref.dimensions(g)
    amb = ref.ambiguity(g)
    want = {"dims": dims, "amb": amb, "entropy": ref.entropy(g)}
    want["measure"] = None if not amb["unambiguous"] else ref.measure(g)
    want["complete"] = ref.complete_states(g) if g.arity == 1 else None
    for key, value in CLOSED_FORMS.get(name, {}).items():
        have = want["measure"]["total"] if key == "total" else dims[key]
        if have != value and not (
            isinstance(value, float) and ref.close(have, value)
        ):
            raise ref.ReferenceUnavailable(f"{name}: reference {key} {have} != {value}")
    return want


def check_cli(sub: str, g: Graph, inp: Input, want: dict, output) -> list[str]:
    code, text = output
    try:
        report = json.loads(text)
    except ValueError:
        return [f"exit {code}, output is not JSON: {text[:200]!r}"]
    errors = _equal("automaton_sha256", report.get("automaton_sha256"), inp.sha256)
    errors += _equal("enumeration cap", report.get("config", {}).get(
        "enumeration_cap"), CLI_CAP)
    if sub == "measure" and not want["amb"]["unambiguous"]:
        errors += _equal("exit status", code, 2)
        errors += _equal("error code", report.get("error", {}).get("code"),
                         "ambiguous-input")
        return errors
    errors += _equal("exit status", code, 0)
    if code != 0 or "result" not in report:
        return errors + [f"error {report.get('error')}"]
    r = report["result"]
    dims = want["dims"]
    if sub == "check":
        errors += _equal("deterministic", r["properties"]["deterministic"],
                         g.deterministic)
        errors += _equal("trim", r["properties"]["trim"], True)
        errors += _equal("closed", r["properties"]["closed"], len(g.accept) == g.n)
        errors += _equal("states", r["states"], g.n)
        errors += _equal("transitions", r["transitions"], len(inp.doc["transitions"]))
        witness = r["ambiguity_witness_prefix"]
        if witness is not None:  # digit vectors render as {"digits": [...]}
            witness = [s["digits"] for s in witness]
        errors += check_ambiguity(g, want["amb"], r["unambiguous"], witness)
    elif sub == "entropy":
        depth = _max_depth(g, 12)
        count = ref.prefix_counts(g, depth)[depth]
        errors += _close("entropy", r["entropy_nat"], want["entropy"])
        errors += _equal("estimate depth", r["estimate_depth"], depth)
        errors += _close("entropy estimate", r["entropy_estimate_nat"],
                         math.log(count) / depth, 1e-12)
    elif sub == "dim":
        errors += check_dimensions(dims, r["hausdorff"], r["box"], r["gap"],
                                   r["per_state_cycle_entropy_nat"])
        got = r["mw_alpha_per_scc"]
        errors += _equal("mw_alpha components", sorted(got), sorted(dims["alphas"]))
        for key, value in dims["alphas"].items():
            if key in got:
                errors += _close(f"mw_alpha {key}", got[key], value)
        if g.arity == 1:
            d = r["density"]
            errors += check_density(want["complete"], d["nowhere_dense"],
                                    d["somewhere_dense"], d["witness_state"])
    elif sub == "measure":
        errors += _close("alpha", r["alpha"], want["measure"]["alpha"])
        errors += _close("total measure", r["total"], want["measure"]["total"])
    elif sub == "raster":
        depth = _max_depth(g, 4)
        fmt = "interval" if g.arity == 1 else "pbm"
        errors += _equal("raster depth", r["depth"], depth)
        errors += _equal("raster document", r["document"], ref.raster(g, depth, fmt))
    elif sub == "oracle":
        hi = _max_depth(g, 12)
        counts = ref.prefix_counts(g, hi)
        errors += _equal("oracle depths", r["depths"], [4, hi])
        errors += _equal("box counts", r["box_counts"],
                         {str(n): counts[n] for n in range(4, hi + 1)})
        slope = r["estimated_box_dimension"]
        if abs(slope - dims["box"]) > ref.SLOPE_TOL:
            errors.append(f"oracle slope {slope} is more than {ref.SLOPE_TOL}"
                          f" from box dimension {dims['box']}")
    return errors


class ChildRunner:
    """Runs one CLI child at a time and records the largest child RSS."""

    def __init__(self, root: Path, work: Path):
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.root = root
        self.work = work
        self.peak_rss_kb = 0

    def run(self, argv: list[str], limit: float) -> tuple[int, str]:
        """Exit status and standard output; raises TimeoutError after
        killing a child that outlives ``limit``."""
        out_path = self.work / f"child-{os.getpid()}.out"
        err_path = self.work / f"child-{os.getpid()}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, *argv], stdout=out, stderr=err,
                env=self.env, cwd=self.root,
            )
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(limit, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if killed.is_set():
            raise TimeoutError(f"killed after {limit} s")
        return proc.returncode, out_path.read_text(encoding="utf-8")


def cli_oracle(runner: ChildRunner, inputs: list[Input]) -> list[Analysis]:
    out = []
    for inp in inputs:
        g = Graph(inp.doc)
        want = _cli_expectations(inp.name, g)
        path = runner.work / f"{inp.name}.json"
        path.write_text(inp.text, encoding="utf-8")
        subs = CLI_SUBCOMMANDS if inp.name in corpus.BUNDLED else ["oracle", "entropy"]
        for sub in subs:
            argv = ["-m", "omegafract", sub, str(path)]

            def check(output, sub=sub, g=g, inp=inp, want=want):
                return check_cli(sub, g, inp, want, output)

            def call(argv=argv):
                return runner.run(argv, LIMIT_S)

            out.append(Analysis(
                f"{inp.name}/{sub}", sub, inp, call, check, argv))
    return out


def inprocess_cli(cli, analysis: Analysis) -> tuple[int, str]:
    """The same CLI call through ``cli.main``, standard output captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(analysis.argv[2:])
    return code, buffer.getvalue()


def spread(analyses: list[Analysis]) -> list[Analysis]:
    """The pass order: analysis j goes to position j * step mod n, with
    step near n / golden ratio.  Neighbours in the list (the calls on one
    input, the inputs of one size) end up spread evenly over the pass, so
    the calls near a percentile are timed across the whole run and not in
    one stretch of it; the speed of a shared host drifts from second to
    second."""
    n = len(analyses)
    step = max(1, round(n * (math.sqrt(5) - 1) / 2))
    while math.gcd(step, n) != 1:
        step += 1
    return [a for _, a in sorted((j * step % n, a) for j, a in enumerate(analyses))]


def build(name: str, seed: int, of, runner: ChildRunner) -> tuple[list[Input], list[Analysis]]:
    inputs = corpus.CORPORA[name](seed)
    if name == "det-scc":
        return inputs, spread(det_scc(of, inputs))
    if name == "nfa-periodic":
        return inputs, spread(nfa_periodic(of, inputs))
    return inputs, spread(cli_oracle(runner, inputs))

