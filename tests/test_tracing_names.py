"""Every function the benchmark tracer wraps exists in the library.

bench/tracing.py names each traced function by (module, attribute path)
and wraps it by that name, so a rename in the library breaks only traced
benchmark runs unless a test looks the names up.
"""

import importlib
import pathlib
import runpy

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_names_resolve():
    tracing = runpy.run_path(str(TRACING))
    missing = []
    for _, module, path in tracing["SPANS"] + tracing["COUNTS"]:
        owner = importlib.import_module(f"antiassoc.{module}")
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name, None)
        # a method is wrapped on the class that defines it, as the tracer does
        found = vars(owner).get(attr) if classes and owner else getattr(owner, attr, None)
        if not callable(found):
            missing.append(f"{module}.{path}")
    assert missing == []
