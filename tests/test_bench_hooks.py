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


def traced(tmp_path, name, *argv):
    """Run one CLI job under the shim, assert it exits 0, return its spans."""
    spans = tmp_path / f"{name}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(SHIM), str(spans), *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text(encoding="utf-8"))["spans"]


# every span whose counter binds arguments or reads the result in a verify job
COUNTED = {
    "involutions.cancellation",
    "llt.binary_inversion_poly",
    "macdonald.descent_classes",
    "macdonald.signed",
    "special.integral_form_direct",
    "special.jack",
    "symfunc.to_m_basis",
} | {f"verify.{suite}" for suite in ("axioms", "involutions", "llt", "cocharge", "jack", "crystal")}


def test_a_traced_verify_job_writes_its_spans(tmp_path):
    spans = traced(tmp_path, "verify", "verify", "all", "--n-max", "2", "--samples", "1")
    assert "cli.main" in {span[0] for span in spans}
    assert COUNTED <= {span[0] for span in spans if span[4]}


def test_a_traced_table_job_reads_a_miss_then_a_hit(tmp_path):
    cache = tmp_path / "cache"
    for run, outcome in (("cold", {"cache_hits": 0, "cache_misses": 1}),
                         ("warm", {"cache_hits": 1, "cache_misses": 0})):
        spans = traced(tmp_path, run, "kostka-table", "--n", "3", "--cache-dir", str(cache))
        assert [span[4] for span in spans if span[0] == "cli.cache_load"] == [outcome], run
