"""The benchmark's tracing shim still finds every function it wraps.

perfbench/shim.py resolves its (module, attribute) pairs with getattr and
binds its counters by argument name, so a rename in src/ would break traced
benchmark runs without failing any other test.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import macpoly.cli  # noqa: F401  (imports every layer, as the shim does)

ROOT = Path(__file__).resolve().parent.parent
SHIM = ROOT / "perfbench" / "shim.py"


def shim_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_shim", SHIM)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_every_wrapped_function_resolves():
    for module_name, attribute, _, _ in shim_wraps():
        owner = sys.modules[module_name]
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attribute)


def test_a_traced_verify_job_writes_its_spans(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(SHIM), str(spans), "verify", "llt", "--n-max", "2", "--samples", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    names = {span[0] for span in json.loads(spans.read_text(encoding="utf-8"))["spans"]}
    assert {"cli.main", "verify.llt", "macdonald.descent_classes"} <= names
