"""The benchmark tracer's binding sites still name package functions.

``perfbench/tracer.py`` wraps package attributes by name and reports None for
a recorder none of whose names resolves, so a rename in the package would
surface only as a null metric in a traced benchmark run. The tracer is loaded
by file path and never installed: installing it would wrap the package's
functions for the rest of the test session.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from excitonsim import reference

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module_name: str, path: str) -> bool:
    """Whether ``path`` names a callable in the package module ``module_name``."""
    if not module_name.startswith("excitonsim."):
        return False
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return False
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_recorder_has_a_binding_site_in_the_package():
    tracer = load_tracer()
    unbound = [
        name
        for name, sites in tracer.RECORDERS.items()
        if not any(resolves(module_name, path) for module_name, path in sites)
    ]
    assert unbound == []


def test_fit_result_carries_the_evaluation_count_the_tracer_reads():
    assert "n_evaluations" in {f.name for f in dataclasses.fields(reference.FitResult)}
