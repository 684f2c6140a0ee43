import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs in a fresh process, since install() rebinds library names for good.
# PYTHONDONTWRITEBYTECODE keeps the import of perfbench/ read-only.
_TRACED_SWEEP = """
import functools, json, sys
import tracing
import anisofem.cli  # loads every module that TARGETS names
from anisofem.studies import StudyConfig, run_study

unresolved = []
for module, attr, _ in tracing.TARGETS:
    try:
        functools.reduce(getattr, attr.split("."), sys.modules[module])
    except (KeyError, AttributeError):
        unresolved.append(f"{module}.{attr}")
if unresolved:
    sys.exit("TARGETS not found: " + ", ".join(unresolved))
tracer = tracing.Tracer()
tracing.install(tracer)
records = run_study(StudyConfig("eps_sweep", family="q1", n=[4]))
spans = {}
for span in tracer.spans:
    layer = tracing.LAYER_OF.get(span[0], span[0])
    spans[layer] = spans.get(layer, 0) + 1
print(json.dumps({"records": len(records), "spans": spans,
                  "layers": tracer.layer_metrics()}))
"""


def test_perfbench_tracer_sees_the_library_layers():
    # perfbench/tracing.py finds the layers by rebinding library names; a
    # refactor that moves one off the call path leaves its span empty
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _TRACED_SWEEP], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["records"] == 22
    for layer in ("fields.eval", "fem.assemble_rhs", "schemes.build_system"):
        assert out["spans"].get(layer, 0) > 0, layer
    for layer in ("fields.eval", "fem.assemble_rhs"):
        assert out["layers"][f"{layer}.self_s"] > 0.0, layer
