"""The benchmark's traced run wraps program attributes by name.

``perfbench/spans.py`` replaces module and class attributes of halfsquares
with timing wrappers and puts the originals back.  A refactor that renames
or drops one of those attributes breaks the traced run, so the names are
checked here, with the tracer loaded from its file as the benchmark runs it.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners(traced):
    """(owner, attribute) that install replaces for each traced entry."""
    for module_name, path, _, _ in traced:
        module = importlib.import_module(module_name)
        cls_name, _, attr = path.rpartition(".")
        if not cls_name:
            yield module, attr
            continue
        cls = getattr(module, cls_name)
        yield (cls, attr) if cls.__module__ == module_name else (module, cls_name)


def test_tracer_wraps_and_restores_every_traced_attribute():
    spans = _load_spans()
    owners = list(_owners(spans.TRACED))
    before = [vars(owner)[attr] for owner, attr in owners]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [vars(owner)[attr] for owner, attr in owners]
    finally:
        tracer.uninstall()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(vars(owner)[attr] is b for (owner, attr), b in zip(owners, before))
