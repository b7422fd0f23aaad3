"""Every public name of the package resolves.

Two lists name attributes of ``kreiss`` from outside the module that
defines them: each module's ``__all__``, and ``bench/tracing.WRAPPED``,
the (module, attribute) pairs the benchmark's tracer replaces with timing
wrappers.  A deletion that leaves a stale entry in either breaks
``from kreiss.<module> import *`` or a traced benchmark run, not a test
of the package itself, so both are checked here.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import kreiss

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

MODULES = sorted(m.name for m in pkgutil.iter_modules(kreiss.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"kreiss.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    missing = [(module, attr) for module, attr, _ in tracing.WRAPPED
               if not hasattr(getattr(kreiss, module, None), attr)]
    assert missing == []
