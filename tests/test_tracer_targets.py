"""Every function and method the benchmark tracer wraps exists in the package.

``perfbench/tracer.py`` names its targets as (module, attribute) strings; a
renamed or deleted target would only fail when a traced run starts, and a
suite missing from its ``VERIFY_SUITES`` would never fail.  The tracer module
is loaded from its file without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from loopalg import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_target_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    assert tracer.TARGETS
    missing = []
    for _span, module_name, attr in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            # The tracer replaces a method in the class's own namespace.
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is None or not callable(cls.__dict__.get(meth)):
                missing.append(f"{module_name}.{attr}")
        elif not callable(getattr(owner, attr, None)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_traced_suites_are_the_cli_suites(monkeypatch):
    # A suite missing from the tracer's list would leave its verify.<suite>.*
    # metrics reading 0 without any test failing.
    tracer = _load_tracer(monkeypatch)
    assert sorted(tracer.VERIFY_SUITES) == sorted(cli.SUITES)
