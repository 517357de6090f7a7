"""The benchmark's traced run wraps program attributes by name, the
package declares what the suite imports, and its exports resolve.

``perfbench/spans.py`` replaces module and class attributes of halfsquares
with timing wrappers and puts the originals back.  A refactor that renames
or drops one of those attributes breaks the traced run, so the names are
checked here, with the tracer loaded from its file as the benchmark runs it.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def test_test_extra_names_every_package_the_suite_imports():
    """pyproject's ``test`` extra is the third-party packages that the tests
    import beyond the program's own dependencies."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in requirements}

    imported = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    local = {path.stem for path in (ROOT / "tests").glob("*.py")} | {"halfsquares"}
    third_party = imported - set(sys.stdlib_module_names) - local - names(project["dependencies"])
    assert third_party == names(project["optional-dependencies"]["test"]) == {"pytest", "hypothesis"}


def test_package_exports_resolve():
    """``halfsquares.__all__`` names each export once, every name resolves, and
    a star import succeeds, so a removed name cannot linger in it."""
    package = importlib.import_module("halfsquares")
    assert len(package.__all__) == len(set(package.__all__))
    assert all(hasattr(package, name) for name in package.__all__)
    namespace = {}
    exec("from halfsquares import *", namespace)
    assert set(package.__all__) <= set(namespace)


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


def test_traced_run_counts_every_ball_built(monkeypatch):
    """A small decompose, partial_decompose and verify run under the installed
    tracer, and its build_cover amounts add up to the balls of the covers built.
    The 2D decompose of paraboloid-21 recurses on a fiber curve, so the
    traced evaluate_1d_squares and partition_functions see real work.  The
    2D fiber searches evaluate through ``RectBivariateSpline.ev``, the
    binding decompose.fiber_eval reads, so its calls and amount are every
    call and point the searches pass to the spline."""
    from halfsquares.fixtures import build_fixture

    dec = importlib.import_module("halfsquares.decompose")
    built = []
    build_cover = dec.build_cover

    def counting(*args, **kwargs):
        cover = build_cover(*args, **kwargs)
        built.append(len(cover))
        return cover

    fiber_points = []
    block_fiber_minima = dec._block_fiber_minima

    class CountingSpline:
        def __init__(self, spline):
            self.spline = spline

        def ev(self, x, y):
            fiber_points.append(len(x))
            return self.spline.ev(x, y)

    def counting_search(f, spline, *args):
        return block_fiber_minima(f, CountingSpline(spline), *args)

    monkeypatch.setattr(dec, "build_cover", counting)
    monkeypatch.setattr(dec, "_block_fiber_minima", counting_search)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        for name, points, k in (("parabola", 201, 2), ("radial_bump", 21, 3)):
            f = build_fixture(name, points=points)
            dec.verify(dec.decompose(f, k, 1.0), f)
            dec.verify(dec.partial_decompose(f, k, 1.0, 1e-3), f)
        f = build_fixture("paraboloid", points=21)
        dec.verify(dec.decompose(f, 2, 1.0), f)
    finally:
        tracer.uninstall()
    assert dec.build_cover is counting
    (stats,) = tracer.pass_stats().values()
    assert stats.calls["cover.build_cover"] == len(built)
    assert stats.amount["cover.build_cover"] == sum(built) > 0
    assert stats.calls["decompose.verify"] == 5
    assert stats.calls["decompose.evaluate_1d_squares"] >= 1
    assert stats.calls["cover.partition_functions"] == stats.calls["cover.build_cover"]
    # the per-layer metrics read these bindings; a call through another one would zero them
    assert stats.calls["holder.check_slow_variation"] > 0
    assert stats.calls["holder.estimate_seminorm"] > 0
    assert 0 < stats.amount["cover.color_classes"] <= sum(built)
    assert stats.calls["decompose.fiber_eval"] == len(fiber_points) > 0
    assert stats.amount["decompose.fiber_eval"] == sum(fiber_points)
