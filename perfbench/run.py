"""macpoly benchmark: closed-loop CLI workloads with exact output checks.

Usage:
  python3 perfbench/run.py --workload {hmu,verify,table-cache} --seed N
                           --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a source checkout; jobs run `macpoly` CLI processes
on the checkout's src/. One client issues one job at a time (closed loop); the
only concurrency is `--workers 2` on half of the cold table jobs. The seed
only permutes job order and picks among equal-cost variants.

--trace 0 prints the end-to-end metrics. A run measures whole passes over
the workload's jobs: at least MIN_PASSES, and more while another fits in
--seconds; times are medians over passes. --trace 1 runs one pass in which
every job runs untraced and then through perfbench/shim.py (order
alternating), and prints the per-layer metrics. --smoke shrinks every
workload to shapes of size <= 3. The last stdout line is the result object;
the line before it is the run record (machine, load, steal ticks). See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIM = HERE / "shim.py"
DIGESTS = HERE / "digests.json"
SCRATCH = ROOT / ".perfbench_tmp"

# setup_s is the median of five set-ups, three before the timed phase and two
# after it, so that it does not hinge on the machine's state at one moment.
SETUPS_BEFORE, SETUPS_AFTER = 3, 2
CLI = ["-c", "import sys; from macpoly.cli import main; sys.exit(main())"]
SETUP_SNIPPET = (
    "import compileall, sys\n"
    "ok = compileall.compile_dir(sys.argv[1], quiet=1, force=True)\n"
    "import macpoly\n"
    "print(macpoly.__file__)\n"
    "sys.exit(0 if ok else 1)\n"
)

VERIFY_JOBS = {
    False: [
        ["axioms", "--n-max", "5"],
        ["jack", "--n-max", "4"],
        ["involutions", "--n-max", "5"],
        ["llt", "--n-max", "4", "--samples", "200"],
        ["crystal", "--n-max", "5"],
        ["cocharge", "--n-max", "5", "--samples", "1000"],
    ],
    True: [
        ["axioms", "--n-max", "3"],
        ["jack", "--n-max", "3"],
        ["involutions", "--n-max", "3"],
        ["llt", "--n-max", "3", "--samples", "20"],
        ["crystal", "--n-max", "3"],
        ["cocharge", "--n-max", "3", "--samples", "50"],
    ],
}
# (n, rounds, warm reads per round) of the table-cache workload
TABLE_SIZES = {False: (6, 6, 10), True: (3, 2, 4)}
HMU_SIZE = {False: 7, True: 3}
# Whole passes a timed phase runs at least, whatever --seconds says. A verify
# pass is one `axioms --n-max 5` job (its slowest, ~8 s) and ~5 s of lighter
# jobs; three passes make its job_s.max a median that one disturbed job
# cannot move.
MIN_PASSES = {"hmu": 1, "verify": 3, "table-cache": 2}

END_TO_END = {
    "wall_s": "s",
    "job_s.p50": "s",
    "job_s.max": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.startup_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.pool_wait_s": "s",
    "cli.cache_hits": "count",
    "cli.cache_misses": "count",
    "cli.child_cpu_s": "s",
    "macdonald.macdonald.calls": "count",
    "macdonald.macdonald.s": "s",
    "macdonald.macdonald_in_x.calls": "count",
    "macdonald.macdonald_in_x.s": "s",
    "macdonald.macdonald_in_x.words": "count",
    "macdonald.signed.calls": "count",
    "macdonald.signed.s": "s",
    "macdonald.signed.words": "count",
    "macdonald.descent_classes.s": "s",
    "fillings.words": "count",
    "fillings.words_per_s": "1/s",
    "symfunc.to_m_basis.calls": "count",
    "symfunc.to_m_basis.s": "s",
    "symfunc.m_to_schur.s": "s",
    "symfunc.is_symmetric.calls": "count",
    "symfunc.is_symmetric.s": "s",
    "symfunc.terms": "count",
    "special.integral_form_signed.s": "s",
    "special.integral_form_signed.words": "count",
    "special.integral_form_direct.s": "s",
    "special.jack.s": "s",
    "special.hall_littlewood.s": "s",
    "llt.llt_poly.calls": "count",
    "llt.llt_poly.s": "s",
    "llt.ribbon_checks.s": "s",
    "llt.transpose_checks.s": "s",
    "llt.binary_inversion_poly.s": "s",
    "involutions.involution.calls": "count",
    "involutions.involution.s": "s",
    "involutions.cancellation.s": "s",
    "crystal.checks.s": "s",
    "crystal.two_column_kostka.calls": "count",
    "crystal.two_column_kostka.s": "s",
    **{f"verify.{suite}.s": "s" for suite in checks.VERIFY_LINES},
    "verify.checks": "count",
    "verify.failed": "count",
    "trace.overhead_frac": "frac",
}


class SetupError(RuntimeError):
    pass


@dataclass
class Job:
    """One CLI invocation. `{cache}` in args is replaced by a fresh directory
    per pass; `key` names the stdout (its digest) and omits cache and pool."""

    kind: str  # hmu | verify | cold | warm
    args: list[str]
    key: str
    fmt: str = "text"
    round: int = -1


@dataclass
class Result:
    job: Job
    wall: float
    cpu: float
    rss_kb: int
    stdout: bytes
    error: str | None = None
    spans: dict | None = None


@dataclass
class Setup:
    directory: Path
    env: dict
    jobs: list[Job]
    seconds: float = 0.0


# ---------------------------------------------------------------------------
# workloads


def _key(args: list[str]) -> str:
    kept, skip = [], False
    for a in args:
        if skip:
            skip = False
        elif a in ("--cache-dir", "--workers"):
            skip = True
        else:
            kept.append(a)
    return " ".join(kept)


def _job(kind: str, args: list[str], **extra) -> Job:
    return Job(kind, args, _key(args), **extra)


def hmu_jobs(rng: random.Random, smoke: bool) -> list[Job]:
    jobs = []
    for mu in checks.partitions(HMU_SIZE[smoke]):
        basis, fmt = rng.choice(("schur", "m")), rng.choice(("text", "json"))
        args = ["hmu", "--mu", checks.label(mu), "--basis", basis, "--format", fmt]
        jobs.append(_job("hmu", args, fmt=fmt))
    rng.shuffle(jobs)
    return jobs


def verify_jobs(rng: random.Random, smoke: bool) -> list[Job]:
    # The suites keep their default --seed: the llt suite's cost varies more
    # than tenfold between seeds, so the workload seed must not reach it.
    jobs = [_job("verify", ["verify", *args]) for args in VERIFY_JOBS[smoke]]
    rng.shuffle(jobs)
    return jobs


def table_jobs(rng: random.Random, smoke: bool) -> list[Job]:
    n, rounds, warm = TABLE_SIZES[smoke]
    pooled = set(rng.sample(range(rounds), rounds // 2))
    cold_formats = ["text", "json"] * (rounds // 2) + ["text"] * (rounds % 2)
    rng.shuffle(cold_formats)
    jobs = []
    for r in range(rounds):
        cache = ["--cache-dir", f"{{cache}}/round{r}"]
        fmt = cold_formats[r]
        workers = ["--workers", "2"] if r in pooled else []
        jobs.append(_job("cold", ["kostka-table", "--n", str(n), *cache, *workers, "--format", fmt], fmt=fmt, round=r))
        warm_formats = ["text", "json"] * (warm // 2) + ["text"] * (warm % 2)
        rng.shuffle(warm_formats)
        for wfmt in warm_formats:
            jobs.append(_job("warm", ["kostka-table", "--n", str(n), *cache, "--format", wfmt], fmt=wfmt, round=r))
    return jobs


WORKLOADS = {"hmu": hmu_jobs, "verify": verify_jobs, "table-cache": table_jobs}


def all_variant_keys(smoke: bool) -> list[str]:
    """Every stdout any seed can ask for: the keys digests.json must hold."""
    keys = [
        f"hmu --mu {checks.label(mu)} --basis {basis} --format {fmt}"
        for mu in checks.partitions(HMU_SIZE[smoke])
        for basis in ("schur", "m")
        for fmt in ("text", "json")
    ]
    keys += [" ".join(["verify", *args]) for args in VERIFY_JOBS[smoke]]
    keys += [f"kostka-table --n {TABLE_SIZES[smoke][0]} --format {fmt}" for fmt in ("text", "json")]
    return keys


# ---------------------------------------------------------------------------
# running jobs


def job_env(pycache: Path) -> dict:
    env = dict(os.environ)
    for name in ("MACPOLY_CACHE_DIR", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def run_process(cmd: list[str], env: dict, scratch: Path) -> tuple[int, float, float, int, bytes, bytes]:
    """Run one process; return (status, wall, cpu incl. reaped children, maxrss KB, stdout, stderr)."""
    with tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, out, stderr


def run_job(job: Job, setup: Setup, cache: Path, spans_path: Path | None = None) -> Result:
    args = [a.replace("{cache}", str(cache)) for a in job.args]
    prefix = [sys.executable, *CLI]
    if spans_path:
        spans_path.unlink(missing_ok=True)
        prefix = [sys.executable, str(SHIM), str(spans_path)]
    status, wall, cpu, rss, out, err = run_process(prefix + args, setup.env, setup.directory)
    result = Result(job, wall, cpu, rss, out)
    if status != 0:
        result.error = f"exit status {status}: {err.decode(errors='replace').strip()[-300:]}"
    elif spans_path:
        result.spans = json.loads(spans_path.read_text(encoding="utf-8"))
    return result


def set_up(workload: str, seed: int, smoke: bool, run_dir: Path) -> Setup:
    start = time.perf_counter()
    directory = Path(tempfile.mkdtemp(dir=run_dir))
    env = job_env(directory / "pycache")
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC / "macpoly")],
        env=env, cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SetupError(f"cannot compile and import macpoly from {SRC}: {done.stderr.strip()[-300:]}")
    module = Path(done.stdout.strip()).resolve()
    if SRC.resolve() not in module.parents:
        raise SetupError(f"macpoly resolves to {module}, outside {SRC}")
    setup = Setup(directory, env, WORKLOADS[workload](random.Random(seed), smoke))
    status, _, _, _, out, _ = run_process([sys.executable, *CLI, "--version"], env, directory)
    if status != 0 or not out.startswith(b"macpoly "):
        raise SetupError("warm-up job `macpoly --version` failed")
    setup.seconds = time.perf_counter() - start
    return setup


# ---------------------------------------------------------------------------
# output checks


def check_results(results: list[Result], digests: dict) -> None:
    """Fill in Result.error for every wrong output (digest or invariant)."""
    cold = {res.job.round: res for res in results if res.job.kind == "cold"}
    for res in results:
        if res.error:
            continue
        job, text = res.job, res.stdout.decode("utf-8", errors="replace")
        if digests.get(job.key) != hashlib.sha256(res.stdout).hexdigest():
            res.error = "stdout digest differs from the reference"
            continue
        try:
            if job.kind == "hmu":
                res.error = checks.check_hmu(sum(map(int, job.args[2].split(","))), job.args[4], job.fmt, text)
            elif job.kind == "verify":
                res.error = checks.check_verify(job.args[1], text)
            else:
                res.error = checks.check_table(int(job.args[2]), job.fmt, text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            res.error = f"unparsable output: {exc!r}"
        source = cold.get(job.round)
        if not res.error and job.kind == "warm" and source and source.job.fmt == job.fmt:
            if res.stdout != source.stdout:
                res.error = f"warm read differs from round {job.round}'s cold output"


def run_pass(setup: Setup, cache: Path, digests: dict) -> list[Result]:
    results = [run_job(job, setup, cache) for job in setup.jobs]
    check_results(results, digests)
    return results


def traced_pass(setup: Setup, digests: dict) -> tuple[list[Result], list[Result]]:
    """Each job untraced and traced, in alternating order; each side keeps
    its own cache so both see the same cold/warm sequence."""
    plain, traced = [], []
    spans = setup.directory / "spans.json"
    for i, job in enumerate(setup.jobs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            if side:
                traced.append(run_job(job, setup, setup.directory / "cache-traced", spans))
            else:
                plain.append(run_job(job, setup, setup.directory / "cache-plain"))
    check_results(plain, digests)
    check_results(traced, digests)
    return plain, traced


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes: list[list[Result]], pass_walls: list[float], setup_samples: list[float]) -> dict:
    jobs = [r for results in passes for r in results]
    ok = sum(1 for r in jobs if not r.error)
    return {
        "wall_s": statistics.median(pass_walls),
        "job_s.p50": statistics.median(statistics.median(r.wall for r in results) for results in passes),
        "job_s.max": statistics.median(max(r.wall for r in results) for results in passes),
        "cpu_s": statistics.median(sum(r.cpu for r in results) for results in passes),
        "peak_rss_mb": max(r.rss_kb for r in jobs) / 1024,
        "ok_frac": ok / len(jobs),
        "setup_s": statistics.median(setup_samples),
    }


def span_totals(spans: list) -> dict:
    """Calls, self seconds and counters per span name of one traced job."""
    self_time = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    totals = defaultdict(int)
    for (name, _, _, _, counts), own in zip(spans, self_time):
        totals[f"{name}.calls"] += 1
        totals[f"{name}.s"] += own
        for counter, value in (counts or {}).items():
            totals[f"{name}.{counter}"] += value
        if counts and "words" in counts:
            totals["fillings.words"] += counts["words"]
            totals["fillings.enumerating_self_s"] += own
    return totals


def per_layer(plain: list[Result], traced: list[Result]) -> tuple[dict, dict]:
    """Per-layer metrics summed over the traced jobs, and the time accounting."""
    t = defaultdict(int)
    startup = 0.0
    for res in traced:
        if res.spans is None:
            continue
        spans = res.spans["spans"]
        startup += res.wall - sum(end - start for _, start, end, parent, _ in spans if parent < 0)
        t["child_cpu_s"] += res.spans["child_cpu_s"]
        for k, v in span_totals(spans).items():
            t[k] += v
    enumerating = t["fillings.enumerating_self_s"]
    layer = {
        "cli.startup_s": startup,
        "cli.import_s": t["cli.import.s"],
        "cli.self_s": t["cli.main.s"] + t["cli.cache_load.s"] + t["cli.cache_store.s"],
        "cli.pool_wait_s": t["cli.compute_table.s"],
        "cli.cache_hits": t["cli.cache_load.cache_hits"],
        "cli.cache_misses": t["cli.cache_load.cache_misses"],
        "cli.child_cpu_s": t["child_cpu_s"],
        "fillings.words_per_s": t["fillings.words"] / enumerating if enumerating else 0.0,
        "symfunc.terms": t["symfunc.to_m_basis.terms"],
        "verify.checks": sum(t[f"verify.{s}.checks"] for s in checks.VERIFY_LINES),
        "verify.failed": sum(t[f"verify.{s}.failed"] for s in checks.VERIFY_LINES),
        "trace.overhead_frac": sum(r.wall for r in traced) / sum(r.wall for r in plain) - 1,
    }
    for name in PER_LAYER:
        layer.setdefault(name, t[name])
    wall = sum(r.wall for r in traced)
    accounting = {
        "traced_wall_s": wall,
        "self_plus_startup_s": startup + sum(v for k, v in t.items() if k.endswith(".s")),
        "in_x_share_of_wall": t["macdonald.macdonald_in_x.s"] / wall,
    }
    return layer, accounting


# ---------------------------------------------------------------------------
# run record


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_state() -> dict:
    cpu = _read("/proc/stat").split("\n", 1)[0].split()
    return {
        "loadavg": _read("/proc/loadavg").split()[:3],
        "steal_ticks": int(cpu[8]) if len(cpu) > 8 else None,
    }


def machine_info() -> dict:
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        None,
    )
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "macpoly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": model,
    }


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool, digests: dict) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, run record)."""
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke}
    record.update(machine_info())
    record["before"] = machine_state()
    SCRATCH.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=SCRATCH, prefix="run-"))
    try:
        setups = [set_up(workload, seed, smoke, run_dir) for _ in range(1 if trace else SETUPS_BEFORE)]
        setup = setups[-1]
        if trace:
            plain, traced = traced_pass(setup, digests)
            metrics, record["trace_accounting"] = per_layer(plain, traced)
            units = PER_LAYER
            attempted = plain + traced
            record["trace.overhead_frac"] = metrics["trace.overhead_frac"]
        else:
            passes, walls = [], []
            start = time.perf_counter()
            while True:
                pass_start = time.perf_counter()
                passes.append(run_pass(setup, setup.directory / f"cache{len(passes)}", digests))
                walls.append(time.perf_counter() - pass_start)
                elapsed = time.perf_counter() - start
                if len(passes) >= MIN_PASSES[workload] and elapsed + statistics.median(walls) > seconds:
                    break
            setups += [set_up(workload, seed, smoke, run_dir) for _ in range(SETUPS_AFTER)]
            metrics = end_to_end(passes, walls, [s.seconds for s in setups])
            units = END_TO_END
            attempted = [r for results in passes for r in results]
            record["passes"] = len(passes)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    record["after"] = machine_state()
    record["setup_samples_s"] = [s.seconds for s in setups]
    record["jobs"] = [[r.job.key, round(r.wall, 4), round(r.cpu, 4)] for r in attempted]
    failures = [r for r in attempted if r.error]
    record["failures"] = [f"{r.job.key}: {r.error}" for r in failures[:10]]
    result = {
        "correct": not failures,
        "attempted": len(attempted),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="shapes of size <= 3 only")
    args = parser.parse_args(argv)
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, digests)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
