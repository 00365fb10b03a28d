"""The benchmark's traced run finds every supkit name it wraps or profiles.

``bench/layers.py`` reads its per-layer metrics at functions it names: a
renamed or deleted one drops its metric from a traced run, which still
exits 0.  This test loads the module by its path, as the benchmark does
not ship as a package, and checks the names without running a workload.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import supkit
from supkit import choice

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(monkeypatch):
    for info in pkgutil.iter_modules(supkit.__path__):
        importlib.import_module(f"supkit.{info.name}")
    # ``stop`` sets each wrapped method back on its class, also where it was
    # inherited; teardown then takes it off the subclass again
    for cls in (choice.BoundedModelOracle, choice.TruthTableOracle):
        monkeypatch.setattr(cls, "equivalent", cls.equivalent)
    layers = _layers()
    tracer = layers.Tracer(supkit)
    try:
        tracer._install_wrappers()
    finally:
        tracer.stop()
    assert tracer.missing == set()
    unresolved = [name for name, (module, funcs, _) in layers.PROFILE_METRICS.items()
                  if not any(tracer._profile_key(module, f) for f in funcs)]
    assert unresolved == []
