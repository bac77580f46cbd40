"""Record the reference stdout digest of every job variant the benchmark runs.

Usage:  python3 perfbench/record_digests.py

Runs each variant in-process through macpoly.cli.main on the checkout's src/
and writes perfbench/digests.json ({variant key: sha256 of stdout}). The
committed file holds the outputs of the commit that defined the benchmark;
re-record only when an output is meant to change.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import run

sys.path.insert(0, str(run.SRC))
os.environ.pop("MACPOLY_CACHE_DIR", None)

from macpoly.cli import main  # noqa: E402


def stdout_of(key: str) -> bytes:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(key.split())
    if status != 0:
        raise SystemExit(f"{key!r} exited with status {status}")
    return buffer.getvalue().encode("utf-8")


if __name__ == "__main__":
    keys = run.all_variant_keys(smoke=False) + run.all_variant_keys(smoke=True)
    digests = {key: hashlib.sha256(stdout_of(key)).hexdigest() for key in keys}
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {run.DIGESTS}")
