"""Command-line surface: one subcommand per analysis, one JSON report per
invocation on standard output.

Exit status: 0 on success, 1 on input errors (unreadable or invalid
documents, bad configuration), 2 on precondition errors (valid automaton,
inapplicable operation; the module error code is reported verbatim), 64 on
usage errors.  Reports are deterministic byte-for-byte for a given input
and configuration, and embed both the configuration used and a hash of the
canonical serialization of the automaton.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import geometry
from .core import (
    DEFAULT_ENUMERATION_CAP,
    Automaton,
    _max_depth,
    check_unambiguous,
    classify_properties,
    load_automaton,
    serialize_automaton,
)
from .dimension import (
    REPORT_TOL,
    DimensionReport,
    _critical_exponent,
    density_classifier,
    dimension_report,
)
from .errors import (
    ConfigError,
    FormatError,
    OmegafractError,
    ValidationError,
)
from .measure import hausdorff_measure
from .spectral import DEFAULT_SPECTRAL_TOL, entropy, entropy_estimate

_USAGE_EXIT = 64
_INPUT_EXIT = 1
_PRECONDITION_EXIT = 2

_INPUT_ERRORS = (FormatError, ValidationError, ConfigError)


@dataclass(frozen=True)
class AnalysisConfig:
    """Settings shared by the subcommands, printed in every report.

    The CLI takes the cap from --cap or the default, and the oracle depths
    from ``oracle --depths`` or the default; ``entropy`` estimates at the
    high one unless given --depth.  The tolerances are fixed:
    ``spectral_tolerance`` bounds the relative width of every certified
    root bracket, ``report_tolerance`` is the guard band of the decisions
    on them.
    """

    enumeration_cap: int = DEFAULT_ENUMERATION_CAP
    spectral_tolerance: float = field(default=DEFAULT_SPECTRAL_TOL, init=False)
    report_tolerance: float = field(default=REPORT_TOL, init=False)
    oracle_depths: tuple[int, int] = (4, 12)

    def __post_init__(self) -> None:
        if self.enumeration_cap < 2:
            raise ConfigError("enumeration cap must allow at least one symbol")
        lo, hi = self.oracle_depths
        if not (0 <= lo < hi):
            raise ConfigError("oracle depths must satisfy 0 <= low < high")

    def check_automaton(self, a: Automaton) -> None:
        if _max_depth(a, self.enumeration_cap) < 1:
            raise ConfigError(
                f"cap {self.enumeration_cap} cannot enumerate even depth 1"
                f" (alphabet size {a.base ** a.arity})"
            )

    def max_depth(self, a: Automaton, requested: int) -> int:
        """Largest depth <= requested whose worst case fits under the cap."""
        return max(0, min(requested, _max_depth(a, self.enumeration_cap)))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit(2)
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(_USAGE_EXIT)


def _jsonable(value):
    """Recursively convert report values to strict-JSON-safe data.

    Infinities become the string "inf" (strict JSON has no Infinity);
    fractions render as exact "p/q" strings; dataclasses, symbols among
    them, become objects of their fields.
    """
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _build_config(args: argparse.Namespace) -> AnalysisConfig:
    depths = (4, 12)
    if getattr(args, "depths", None) is not None:
        parts = args.depths.split(",")
        if len(parts) != 2:
            raise ConfigError("--depths expects two comma-separated integers")
        try:
            depths = (int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"--depths expects integers, got {args.depths!r}") from exc
    return AnalysisConfig(enumeration_cap=args.cap, oracle_depths=depths)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_check(a: Automaton, config: AnalysisConfig, args) -> dict:
    flags = classify_properties(a)
    ambiguity = check_unambiguous(a, cap=config.enumeration_cap)
    return {
        "properties": _jsonable(flags),
        "unambiguous": ambiguity.unambiguous,
        "ambiguity_witness_prefix": _jsonable(ambiguity.witness),
        "states": len(a.states),
        "transitions": len(a.edges.src),
    }


def _cmd_entropy(a: Automaton, config: AnalysisConfig, args) -> dict:
    requested = args.depth if args.depth is not None else config.oracle_depths[1]
    if requested < 1:
        raise ConfigError(f"--depth must be at least 1, got {requested}")
    h = entropy(a, cap=config.enumeration_cap)
    depth = config.max_depth(a, requested)
    estimate = entropy_estimate(a, depth, cap=config.enumeration_cap)
    log_k = math.log(a.base)
    return {
        "entropy_nat": h,
        "entropy_base_k": h / log_k,
        "estimate_depth": depth,
        "entropy_estimate_nat": estimate,
        "entropy_estimate_base_k": estimate / log_k,
    }


def _dimension_payload(report: DimensionReport, base: int) -> dict:
    log_k = math.log(base)
    return {
        "hausdorff": report.hausdorff,
        "box": report.box,
        "gap": report.gap,
        "hausdorff_witness": report.hausdorff_witness,
        "box_witness": report.box_witness,
        "per_state_cycle_entropy_nat": {
            q: value for q, value in report.per_state.items()
        },
        "per_state_cycle_entropy_base_k": {
            q: value / log_k for q, value in report.per_state.items()
        },
    }


def _cmd_dim(a: Automaton, config: AnalysisConfig, args) -> dict:
    report = dimension_report(a, cap=config.enumeration_cap)
    payload = _dimension_payload(report, a.base)
    alphas = {}
    for block in a.sccs.blocks.values():
        names = [a.states[q] for q in block.nodes.tolist()]
        alphas["+".join(names)] = _critical_exponent(report.per_state[names[0]], a)
    payload["mw_alpha_per_scc"] = alphas
    if a.arity == 1:
        payload["density"] = _jsonable(
            density_classifier(a, cap=config.enumeration_cap)
        )
    return payload


def _cmd_measure(a: Automaton, config: AnalysisConfig, args) -> dict:
    report = hausdorff_measure(a, cap=config.enumeration_cap)
    return {
        "alpha": report.alpha,
        "per_key_state": _jsonable(report.per_key_state),
        "total": _jsonable(report.total),
    }


def _cmd_raster(a: Automaton, config: AnalysisConfig, args) -> dict:
    depth = args.depth if args.depth is not None else config.max_depth(a, 4)
    if depth < 0:
        raise ConfigError(f"--depth must be nonnegative, got {depth}")
    fmt = args.format or ("interval" if a.arity == 1 else "pbm")
    document = geometry.render(a, depth, fmt, cap=config.enumeration_cap)
    return {"depth": depth, "format": fmt, "document": document}


def _cmd_oracle(a: Automaton, config: AnalysisConfig, args) -> dict:
    lo, hi = config.oracle_depths
    hi = config.max_depth(a, hi)
    if hi <= lo:
        raise ConfigError(
            f"cap {config.enumeration_cap} leaves no usable depth range above {lo}"
        )
    counts, estimate = geometry._box_count_fit(a, lo, hi, config.enumeration_cap)
    table = {str(n): count for n, count in zip(range(lo, hi + 1), counts)}
    return {"depths": [lo, hi], "box_counts": table, "estimated_box_dimension": estimate}


#: add_argument keywords of each flag.
_FLAGS = {
    "--depth": dict(type=int, default=None, help="single depth"),
    "--depths": dict(default=None, help="depth range 'a,b'"),
    "--format": dict(
        choices=["interval", "pbm"], default=None, help="raster output format"
    ),
    "--cap": dict(type=int, default=DEFAULT_ENUMERATION_CAP, help="enumeration cap"),
    "--pretty": dict(action="store_true", help="indent the JSON report"),
}

#: Subcommand -> handler, help and the flags it reads; any other flag is a
#: usage error.
_COMMANDS = {
    "check": (_cmd_check, "structural property flags and ambiguity check", []),
    "entropy": (
        _cmd_entropy,
        "prefix-language entropy plus enumeration estimate",
        ["--depth"],
    ),
    "dim": (_cmd_dim, "Hausdorff/box dimension report with cross-checks", []),
    "measure": (_cmd_measure, "Hausdorff measure at the critical dimension", []),
    "raster": (_cmd_raster, "render the depth-n cover", ["--depth", "--format"]),
    "oracle": (_cmd_oracle, "box-counting table and dimension estimate", ["--depths"]),
}


def _make_parser() -> _Parser:
    parser = _Parser(
        prog="omegafract",
        description="entropy, fractal dimensions and Hausdorff measure of"
        " sets recognized by Buchi automata over base-k digits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("automaton", help="path to the automaton JSON document")
        for flag in [*flags, "--cap", "--pretty"]:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        print(json.dumps(report, separators=(",", ":"), sort_keys=False))


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    base_report: dict = {"tool": "omegafract", "command": args.command}
    try:
        config = _build_config(args)
        try:
            a = load_automaton(args.automaton)
        except OSError as exc:
            raise FormatError(f"cannot read {args.automaton!r}: {exc}") from exc
        config.check_automaton(a)
        base_report["automaton_sha256"] = hashlib.sha256(
            serialize_automaton(a).encode("utf-8")
        ).hexdigest()
        base_report["config"] = _jsonable(config)
        base_report["result"] = _jsonable(_COMMANDS[args.command][0](a, config, args))
    except _INPUT_ERRORS as exc:
        base_report["error"] = {"code": exc.code, "message": str(exc)}
        _emit(base_report, args.pretty)
        return _INPUT_EXIT
    except OmegafractError as exc:
        base_report["error"] = {"code": exc.code, "message": str(exc)}
        _emit(base_report, args.pretty)
        return _PRECONDITION_EXIT
    _emit(base_report, args.pretty)
    return 0


if __name__ == "__main__":
    sys.exit(main())
