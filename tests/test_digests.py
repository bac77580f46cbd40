"""Every job the benchmark runs still prints the stdout it has a digest for.

perfbench/digests.json maps each command line the benchmark can run to the
sha256 of its stdout. Each is run here in-process through cli.main, with no
cache directory from the environment; the kostka-table jobs are run once
more through a fresh cache directory, cold and then warm. The file is only
read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from macpoly.cli import CACHE_ENV, main

DIGESTS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "digests.json").read_text(encoding="utf-8")
)


def stdout_digest(capsys, argv: list[str]) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_stdout_matches_its_digest(capsys, monkeypatch, tmp_path, key):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    argv = key.split()
    assert stdout_digest(capsys, argv) == DIGESTS[key]
    if argv[0] == "kostka-table":
        for _ in ("cold", "warm"):
            assert stdout_digest(capsys, [*argv, "--cache-dir", str(tmp_path)]) == DIGESTS[key]
