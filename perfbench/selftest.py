"""Self-test of the benchmark on the smoke workloads (shapes of size <= 3).

Usage:  python3 perfbench/selftest.py

Checks, in well under a minute:
- every end-to-end and per-layer metric of BENCHMARK.json prints with its unit,
  and every smoke job passes its output checks;
- word, call, hit and miss counts are identical for two workload seeds, and
  the hit and miss counts equal the warm and cold jobs of table-cache;
- the spans account for the traced wall time;
- a corrupted reference digest makes jobs fail (ok_frac < 1);
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
Exits 0 when all pass; prints one line per failed check.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT = (".calls", ".words", ".checks", ".failed", "cache_hits", "cache_misses", ".terms")


def bench(workload: str, seed: int, trace: int, cwd: Path = run.ROOT) -> tuple[int, dict | None, dict | None]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return done.returncode, None, None
    return done.returncode, json.loads(lines[-2])["run_record"], json.loads(lines[-1])


def main() -> int:
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)
            print(f"FAIL {message}", flush=True)

    for workload in run.WORKLOADS:
        for trace, spec in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            seeds = (1, 2) if trace else (1,)
            results = {}
            for seed in seeds:
                status, record, result = bench(workload, seed, trace)
                expect(status == 0 and result is not None, f"{workload} trace={trace} seed={seed}: exit {status}")
                if result is None:
                    continue
                results[seed] = (record, result)
                expect(result["correct"] and result["failed"] == 0,
                       f"{workload} trace={trace}: failures {record['failures']}")
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                wanted = {m["name"]: m["unit"] for m in spec}
                expect(printed == wanted, f"{workload} trace={trace}: metrics {printed} != {wanted}")
            if trace and len(results) == 2:
                counts = [
                    {k: v["value"] for k, v in res["metrics"].items() if k.endswith(EXACT) or k == "fillings.words"}
                    for _, res in results.values()
                ]
                expect(counts[0] == counts[1], f"{workload}: counts differ between seeds: {counts}")
                record, result = results[1]
                acc = record["trace_accounting"]
                overhead = abs(result["metrics"]["trace.overhead_frac"]["value"])
                gap = abs(acc["self_plus_startup_s"] - acc["traced_wall_s"]) / acc["traced_wall_s"]
                expect(gap <= max(overhead, 0.01), f"{workload}: spans leave {gap:.2%} of traced wall unaccounted")
                if workload == "table-cache":
                    n, rounds, warm = run.TABLE_SIZES[True]
                    expect(counts[0]["cli.cache_misses"] == rounds, f"misses {counts[0]['cli.cache_misses']} != {rounds}")
                    expect(counts[0]["cli.cache_hits"] == rounds * warm,
                           f"hits {counts[0]['cli.cache_hits']} != {rounds * warm}")

    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    corrupted = dict(digests, **{key: "0" * 64 for key in run.all_variant_keys(smoke=True)[:1]})
    result, _ = run.run("hmu", 1, 1, False, True, corrupted)
    ok_frac = result["metrics"]["ok_frac"]["value"]
    expect(result["failed"] > 0 and ok_frac < 1 and not result["correct"],
           f"corrupted digest went unnoticed (failed={result['failed']}, ok_frac={ok_frac})")

    run.SCRATCH.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.SCRATCH, prefix="bare-"))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        status, _, result = bench("table-cache", 1, 0, cwd=bare)
        expect(status != 0 and result is None, f"benchmark without src/ exited {status} with result {result}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.SCRATCH.rmdir()
        except OSError:
            pass

    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
