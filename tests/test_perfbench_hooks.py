"""The names perfbench wraps must exist in the package.

perfbench measures by patching names in `cds_forge.solver` and `cds_forge`;
a hook the package lost only shows up as absent metrics there.  Deleting a
name that looks unused in the solver (such as an import kept only for a
hook) must fail this suite.
"""

import importlib.util
import sys
from pathlib import Path

import cds_forge
import cds_forge.solver

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_hooks_exist(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans.SOLVER_HOOKS and spans.PACKAGE_HOOKS
    assert [n for n in spans.SOLVER_HOOKS if not hasattr(cds_forge.solver, n)] == []
    assert [n for n in spans.PACKAGE_HOOKS if not hasattr(cds_forge, n)] == []
