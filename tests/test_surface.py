"""The public surface: one name per paper quantity, a raise site for
every error class, and a README library example that runs."""

import ast
import re
from pathlib import Path

import omegafract
from omegafract import errors

ROOT = Path(__file__).resolve().parents[1]

KEPT = """
    AmbiguityReport Automaton Box ComponentMeasure DEFAULT_ENUMERATION_CAP
    DensityReport DigitVector DimensionReport MeasureReport PropertyFlags
    REPORT_TOL Word accepts automaton_to_dict box_cover check_unambiguous
    classify_properties closure cycle_entropies density_classifier
    dimension_report entropy entropy_estimate enumerate_prefixes
    estimate_box_dimension hausdorff_measure load_automaton mw_alpha nu_k
    parse_automaton prefix_count render scc_measure serialize_automaton trim
    OmegafractError FormatError ValidationError EmptyLanguageError
    NotTrimError AmbiguousError NotStronglyConnectedError CapExceededError
    ArityError ConfigError NotConvergedError NonCriticalExponentWarning
""".split()


def test_public_names_are_the_kept_list():
    assert omegafract.__all__ == KEPT
    for name in KEPT:
        getattr(omegafract, name)


def test_every_error_class_has_a_raise_site():
    raised = set()
    for path in (ROOT / "src" / "omegafract").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    for name, value in vars(errors).items():
        if isinstance(value, type) and issubclass(value, errors.OmegafractError):
            assert name in raised or value is errors.OmegafractError, name


def test_readme_library_block_runs(monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(ROOT)
    exec(block, {})
