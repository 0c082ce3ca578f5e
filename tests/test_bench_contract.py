"""The benchmark's bindings to the package still resolve.

``bench/tracer.py`` wraps the functions its ``TARGETS`` name and
``bench/workloads.py`` calls the package as ``mg.<name>`` and ``cli.<name>``.
Both files are only parsed here, so removing a name they use fails this
suite instead of a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import marketgames
from marketgames import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(name):
    return ast.parse((BENCH / name).read_text(), filename=name)


def test_tracer_targets_resolve():
    (targets,) = [node.value for node in ast.walk(_tree("tracer.py"))
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    homes = [(entry.elts[1].value, entry.elts[2].value) for entry in targets.elts]
    assert homes
    missing = [f"{home}.{attr}" for home, attr in homes
               if not hasattr(importlib.import_module("marketgames." + home), attr)]
    assert not missing


def test_workload_calls_resolve():
    modules = {"mg": marketgames, "cli": cli}
    used = {(node.value.id, node.attr) for node in ast.walk(_tree("workloads.py"))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert ("mg", "gen_random") in used and ("cli", "main") in used
    missing = sorted(f"{mod}.{attr}" for mod, attr in used
                     if not hasattr(modules[mod], attr))
    assert not missing
