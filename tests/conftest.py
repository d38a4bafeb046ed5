import os
from pathlib import Path

import pytest

from omegafract import load_automaton

AUTOMATA_DIR = Path(__file__).resolve().parents[1] / "automata"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the package from
    this checkout's ``src`` whether or not it is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env

#: Unary bundled examples, enumerable to depth 12 under the default cap.
BUNDLED_UNARY = ["cantor", "dyadic", "full_binary", "golden_mean"]


def bundled(name: str):
    return load_automaton(str(AUTOMATA_DIR / f"{name}.json"))


@pytest.fixture
def cantor():
    return bundled("cantor")


@pytest.fixture
def dyadic():
    return bundled("dyadic")


@pytest.fixture
def dyadic_unambiguous():
    return bundled("dyadic_unambiguous")


@pytest.fixture
def full_binary():
    return bundled("full_binary")


@pytest.fixture
def golden_mean():
    return bundled("golden_mean")


@pytest.fixture
def cantor_pair():
    return bundled("cantor_pair")
