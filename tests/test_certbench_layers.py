"""Every function the benchmark's traced run wraps must exist in the package,
and its hooks must read the arguments the program passes.

certbench/layers.py names program functions by dotted path; a refactor that
renames or drops one, or moves an argument a hook reads, would otherwise
break only ``run.py --trace 1``.  The paths are resolved the way
``certbench/tracer.py`` installs its wrappers: a module attribute, or a
method in a class's own namespace.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

CERTBENCH = Path(__file__).resolve().parent.parent / "certbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(CERTBENCH))  # layers.py imports its sibling tracer.py
    spec = importlib.util.spec_from_file_location("certbench_layers", CERTBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_paths_resolve(layers):
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


def test_traced_requests_feed_every_hook(layers, capsys, tmp_path):
    from paretocert import cli

    findim_doc = tmp_path / "convex_pair.json"
    findim_doc.write_text(json.dumps({"nz": 2, "m": 2,
                                      "f": ["z1^2 + z2^2", "(z1 - 1)^2 + z2^2"],
                                      "G": ["z1 + z2 - 1"]}))
    requests = [
        ["check-kkt", "builtin:example_6_1", "--lambda", "0.5,0.5", "--grid", "40"],
        ["check-socn", "builtin:example_6_1", "--grid", "40", "--probes", "3",
         "--lambda-grid", "3"],
        ["check-socs", "builtin:example_6_1", "--lambda", "0.5,0.5", "--gamma0", "1",
         "--grid", "40", "--probes", "2", "--max-iters", "5"],
        ["findim", str(findim_doc), "--zbar", "0,0", "--steps", "4", "--dir", "0,1"],
    ]
    tracer = layers.Tracer()
    tracer.install(layers.targets(tracer))
    try:
        codes = [cli.main(argv) for argv in requests]
    finally:
        tracer.uninstall()
    err = capsys.readouterr().err
    assert codes == [0, 0, 0, 0], err
    values = layers.per_layer_values(tracer, len(requests), 0.0)
    assert values["kkt.solve.calls"] > 0
    assert values["second_order.random_directions.accept_ratio"] > 0
    assert values["findim.oracle.points"] > 0
    assert values["findim.multiplier_sample.kept_ratio"] > 0
    assert tracer.calls["findim.necessary_check"] > 0
