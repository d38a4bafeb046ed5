import json
import os
import random
import subprocess
import sys
import time

import pytest

from omegafract import Automaton, DigitVector, core, load_automaton, serialize_automaton
from omegafract.cli import AnalysisConfig, main

from conftest import AUTOMATA_DIR, child_env
from helpers_random import random_strongly_connected, reference_product_pairs

CANTOR = str(AUTOMATA_DIR / "cantor.json")
DYADIC = str(AUTOMATA_DIR / "dyadic.json")
DYADIC_U = str(AUTOMATA_DIR / "dyadic_unambiguous.json")
GOLDEN = str(AUTOMATA_DIR / "golden_mean.json")
PAIR = str(AUTOMATA_DIR / "cantor_pair.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_reports_flags(capsys):
    code, report = run_cli(capsys, "check", CANTOR)
    assert code == 0
    assert report["command"] == "check"
    assert report["result"]["properties"]["closed"] is True
    assert report["result"]["unambiguous"] is True
    assert "automaton_sha256" in report and "config" in report


@pytest.mark.parametrize("path", [DYADIC, CANTOR, GOLDEN], ids=os.path.basename)
def test_check_runs_each_reachability_search_once(monkeypatch, capsys, path):
    # forward from the starts, backward from the accept states, and backward
    # from the accept states on cycles; the live mask and the ambiguity
    # check reuse the first and the last
    calls = []
    search = core._reach

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(core, "_reach", counting)
    code, _ = run_cli(capsys, "check", path)
    assert code == 0
    assert len(calls) == 3


def test_dim_dyadic(capsys):
    code, report = run_cli(capsys, "dim", DYADIC)
    assert code == 0
    result = report["result"]
    assert result["hausdorff"] == 0.0
    assert result["box"] == pytest.approx(1.0, abs=1e-9)
    assert result["gap"] is True
    assert result["box_witness"] == "q0"
    assert result["density"]["somewhere_dense"] is True
    assert result["density"]["dense_codense_on_interval"] == ["0/1", "1/1"]


def test_dim_cantor(capsys):
    code, report = run_cli(capsys, "dim", CANTOR)
    assert code == 0
    result = report["result"]
    assert result["hausdorff"] == pytest.approx(0.6309297535714574, abs=1e-9)
    assert result["gap"] is False
    assert result["mw_alpha_per_scc"]["c"] == pytest.approx(
        0.6309297535714574, abs=1e-9
    )
    assert result["density"]["nowhere_dense"] is True


def test_entropy_subcommand(capsys):
    code, report = run_cli(capsys, "entropy", GOLDEN, "--depth", "10")
    assert code == 0
    result = report["result"]
    assert result["estimate_depth"] == 10
    assert result["entropy_nat"] == pytest.approx(0.4812118250596035, abs=1e-9)
    assert abs(result["entropy_estimate_nat"] - result["entropy_nat"]) < 0.05


def test_measure_cantor(capsys):
    code, report = run_cli(capsys, "measure", CANTOR)
    assert code == 0
    assert report["result"]["total"] == pytest.approx(1.0, abs=1e-9)


def test_measure_infinite_encoded_as_string(capsys):
    code, report = run_cli(capsys, "measure", DYADIC_U)
    assert code == 0
    assert report["result"]["total"] == "inf"
    assert report["result"]["per_key_state"]["r"]["prefix_series"] == "inf"


def test_measure_ambiguous_precondition_exit(capsys):
    code, report = run_cli(capsys, "measure", DYADIC)
    assert code == 2
    assert report["error"]["code"] == "ambiguous-input"


def test_raster_interval(capsys):
    code, report = run_cli(capsys, "raster", CANTOR, "--depth", "2")
    assert code == 0
    assert report["result"]["document"] == "0/1 1/9\n2/9 1/3\n2/3 7/9\n8/9 1/1\n"


def test_raster_pbm_default_for_pairs(capsys):
    code, report = run_cli(capsys, "raster", PAIR, "--depth", "1")
    assert code == 0
    assert report["result"]["format"] == "pbm"
    assert report["result"]["document"].startswith("P1\n3 3\n")


def test_oracle_table(capsys):
    code, report = run_cli(capsys, "oracle", GOLDEN, "--depths", "2,8")
    assert code == 0
    result = report["result"]
    assert result["box_counts"]["4"] == 8  # Fibonacci counts
    assert result["estimated_box_dimension"] == pytest.approx(0.6969, abs=0.01)


def test_file_not_found_is_input_error(capsys):
    code, report = run_cli(capsys, "dim", "no_such_file.json")
    assert code == 1
    assert report["error"]["code"] == "syntax-error"


def test_semantic_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"base": 2, "arity": 1, "states": ["s"], "start": [], "accept": [],'
        ' "transitions": []}'
    )
    code, report = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert report["error"]["code"] == "semantic-error"


def test_check_counts_pairs_against_the_cap(tmp_path, capsys):
    # state d guesses that the next digit is d: the check finds no
    # witness, so it builds all 6 pairs of distinct states
    a = Automaton(
        base=3,
        arity=1,
        states=("0", "1", "2"),
        transitions=tuple(
            (q, DigitVector((int(q),)), r) for q in "012" for r in "012"
        ),
        start=frozenset("012"),
        accept=frozenset("012"),
    )
    path = tmp_path / "guess.json"
    path.write_text(serialize_automaton(a))
    assert sum(p != q for p, q in reference_product_pairs(a)) == 6
    code, report = run_cli(capsys, "check", "--cap", "6", str(path))
    assert code == 0 and report["result"]["unambiguous"] is True
    code, report = run_cli(capsys, "check", "--cap", "5", str(path))
    assert code == 2
    assert report["error"]["code"] == "cap-exceeded"


def test_unknown_subcommand_usage_exit():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "x.json"])
    assert exc.value.code == 64


def test_reports_are_deterministic(capsys):
    _, first = run_cli(capsys, "dim", DYADIC)
    main(["dim", DYADIC])
    second_raw = capsys.readouterr().out
    main(["dim", DYADIC])
    third_raw = capsys.readouterr().out
    assert second_raw == third_raw
    assert json.loads(second_raw) == first


def test_cap_comes_from_the_flag_not_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("OMEGAFRACT_CAP", "1")
    code, report = run_cli(capsys, "check", CANTOR)
    assert code == 0
    assert report["config"]["enumeration_cap"] == 4194304
    code, report = run_cli(capsys, "check", CANTOR, "--cap", "4096")
    assert code == 0
    assert report["config"]["enumeration_cap"] == 4096


#: The flags each subcommand reads, besides --cap and --pretty.
FLAG_TABLE = {
    "check": [],
    "entropy": ["--depth"],
    "dim": [],
    "measure": [],
    "raster": ["--depth", "--format"],
    "oracle": ["--depths"],
}
FLAG_VALUES = {
    "--depth": ["2"],
    "--depths": ["2,6"],
    "--format": ["interval"],
    "--cap": ["100000"],
    "--pretty": [],
}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("sub", sorted(FLAG_TABLE))
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, sub, flag):
    argv = [sub, CANTOR, flag, *FLAG_VALUES[flag]]
    if flag in FLAG_TABLE[sub] or flag in ("--cap", "--pretty"):
        assert main(argv) == 0
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
    capsys.readouterr()


def test_tolerance_is_not_configurable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", CANTOR, "--tol", "1e-6"])
    assert exc.value.code == 64
    capsys.readouterr()
    for name in ("spectral_tolerance", "report_tolerance"):
        with pytest.raises(TypeError):
            AnalysisConfig(**{name: 0.5})
    code, report = run_cli(capsys, "check", CANTOR)
    assert code == 0
    assert report["config"]["spectral_tolerance"] == 1e-12
    assert report["config"]["report_tolerance"] == 1e-09


@pytest.mark.parametrize(
    "depth, cap", [("0", None), ("-3", None), ("0", "5299")], ids=["0", "-3", "0-cap"]
)
def test_entropy_depth_below_one_is_config_error(tmp_path, capsys, depth, cap):
    path, flags = CANTOR, []
    if cap is not None:
        # the entropy of this input stops at the cap (cap-exceeded), so the
        # depth must be rejected before the analysis runs
        path = tmp_path / "strongly-connected-200.json"
        a = random_strongly_connected(random.Random(4), 200, extra=100)
        path.write_text(serialize_automaton(a))
        flags = ["--cap", cap]
    code, report = run_cli(capsys, "entropy", str(path), "--depth", depth, *flags)
    assert code == 1
    assert report["error"]["code"] == "config"
    assert "result" not in report


@pytest.mark.parametrize(
    "argv",
    [
        ["check", CANTOR, "--cap", "1"],
        ["check", PAIR, "--cap", "3"],  # below the alphabet of 9 symbols
        ["oracle", CANTOR, "--depths", "4"],
        ["oracle", CANTOR, "--depths", "a,b"],
        ["oracle", CANTOR, "--depths", "5,3"],
        ["oracle", CANTOR, "--cap", "16"],  # no usable depth above 4
    ],
)
def test_bad_settings_are_config_errors(capsys, argv):
    code, report = run_cli(capsys, *argv)
    assert code == 1
    assert report["error"]["code"] == "config"
    assert "result" not in report


def test_raster_format_has_one_name_each():
    for fmt in ("interval-list", "bitmap"):
        with pytest.raises(SystemExit) as exc:
            main(["raster", CANTOR, "--format", fmt])
        assert exc.value.code == 64


def test_raster_depth_below_zero_is_config_error(capsys):
    code, report = run_cli(capsys, "raster", CANTOR, "--depth", "-1")
    assert code == 1
    assert report["error"]["code"] == "config"
    assert "result" not in report


@pytest.mark.parametrize("depth", ["15000", "100000000"])
def test_raster_past_the_cap_is_cap_exceeded(capsys, depth):
    # 3^15000 already has more digits than an int may print as text: the
    # guard must refuse the depth without building the power
    started = time.monotonic()
    code, report = run_cli(capsys, "raster", "--depth", depth, CANTOR)
    assert time.monotonic() - started < 1.0
    assert code == 2
    assert report["error"]["code"] == "cap-exceeded"
    assert "result" not in report


def _power_loop_max_depth(a, cap, requested):
    """Largest depth <= requested whose worst case fits under the cap, by
    raising the alphabet size to each depth in turn."""
    depth = 0
    alphabet = a.base**a.arity
    while depth < requested and alphabet ** (depth + 1) <= cap:
        depth += 1
    return depth


def test_max_depth_matches_the_power_loop():
    automata = [load_automaton(str(p)) for p in sorted(AUTOMATA_DIR.glob("*.json"))]
    assert len(automata) == 6
    caps = {2, 2**22} | set(random.Random(0).sample(range(2, 2**22 + 1), 100))
    caps |= {b**j + o for b in (2, 3, 9) for j in range(1, 23) for o in (-1, 0, 1)}
    caps = sorted(c for c in caps if 2 <= c <= 2**22)
    for a in automata:
        for cap in caps:
            config = AnalysisConfig(enumeration_cap=cap)
            for requested in range(21):
                expected = _power_loop_max_depth(a, cap, requested)
                assert config.max_depth(a, requested) == expected, (a, cap, requested)


def test_config_embedded_in_report(capsys):
    code, report = run_cli(capsys, "entropy", CANTOR, "--cap", "100000")
    assert code == 0
    assert report["config"]["enumeration_cap"] == 100000
    assert report["config"]["spectral_tolerance"] == 1e-12


def test_module_entrypoint_subprocess(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "omegafract", "check", CANTOR],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["properties"]["deterministic"] is True
    # byte-identical across process boundaries
    main(["check", CANTOR])
    assert capsys.readouterr().out == proc.stdout


def test_pretty_flag_emits_indented_json(capsys):
    code = main(["check", CANTOR, "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("{\n  ")
    json.loads(out)
