"""Every function the benchmark's traced run wraps must exist in the package.

certbench/layers.py names program functions by dotted path; a refactor that
renames or drops one would otherwise break only ``run.py --trace 1``.  The
paths are resolved the way ``certbench/tracer.py`` installs its wrappers: a
module attribute, or a method in a class's own namespace.
"""

import importlib
import importlib.util
from pathlib import Path

CERTBENCH = Path(__file__).resolve().parent.parent / "certbench"


def test_traced_paths_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(CERTBENCH))  # layers.py imports its sibling tracer.py
    spec = importlib.util.spec_from_file_location("certbench_layers", CERTBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)

    paths = [path for path, _ in layers.targets(layers.Tracer())]
    assert paths
    missing = []
    for path in paths:
        assert path.startswith("paretocert."), path
        module_name, _, attr = path.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            namespace = vars(owner)
        except ModuleNotFoundError:
            module_name, _, cls_name = module_name.rpartition(".")
            owner = getattr(importlib.import_module(module_name), cls_name, None)
            namespace = vars(owner) if isinstance(owner, type) else {}
        if not callable(namespace.get(attr)):
            missing.append(path)
    assert missing == []
