"""CLI reports on the bundled automata, byte for byte.

``golden/<subcommand>-<automaton>.out`` holds the standard output of
``omegafract <subcommand> automata/<automaton>.json`` with default
configuration.  A change that moves any of these bytes, the last digit of
a float included, must update the files deliberately.
"""

from pathlib import Path

import pytest

from omegafract.cli import main

from conftest import AUTOMATA_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SUBCOMMANDS = ["check", "entropy", "dim", "measure", "raster", "oracle"]
AUTOMATA = [
    "cantor",
    "cantor_pair",
    "dyadic",
    "dyadic_unambiguous",
    "full_binary",
    "golden_mean",
]
#: the small dyadic automaton merges runs, so measure refuses it
EXIT_CODES = {("measure", "dyadic"): 2}


@pytest.mark.parametrize("name", AUTOMATA)
@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_cli_output_matches_golden(capsys, sub, name):
    code = main([sub, str(AUTOMATA_DIR / f"{name}.json")])
    expected = (GOLDEN_DIR / f"{sub}-{name}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
    assert code == EXIT_CODES.get((sub, name), 0)
