"""End-to-end CLI behavior: output formats, guards, caching, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from macpoly import cli
from macpoly.cli import main
from macpoly.macdonald import descent_class_poly, descent_class_weight, macdonald
from macpoly.symfunc import from_m_basis

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hmu_schur_text(capsys):
    code, out, _ = run_cli(capsys, "hmu", "--mu", "2")
    assert code == 0
    assert out.strip() == "s[2] + q*s[1,1]"


def test_hmu_bigger_shape(capsys):
    code, out, _ = run_cli(capsys, "hmu", "--mu", "2,1")
    assert code == 0
    assert out.strip() == "s[3] + (t + q)*s[2,1] + q*t*s[1,1,1]"


def test_hmu_monomial_text(capsys):
    code, out, _ = run_cli(capsys, "hmu", "--mu", "2", "--basis", "m")
    assert code == 0
    assert out.strip() == "m[2] + (1 + q)*m[1,1]"


def test_hmu_x_basis_with_vars(capsys):
    code, out, _ = run_cli(capsys, "hmu", "--mu", "1,1", "--basis", "x", "--vars", "2")
    assert code == 0
    assert out.strip() == "x1^2 + (1 + t)*x1*x2 + x2^2"


@pytest.mark.parametrize("command", ["hmu", "llt", "jack"])
@pytest.mark.parametrize("nvars", ["-1", "0"])
def test_vars_below_one_is_a_usage_error(capsys, command, nvars):
    extra = {"hmu": ["--basis", "x"], "jack": ["--alpha", "1"]}.get(command, [])
    with pytest.raises(SystemExit) as exc:
        main([command, "--mu", "2,1", "--vars", nvars, *extra])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--vars: must be at least 1" in out.err


# each basis but x prints a vector that no number of variables changes
@pytest.mark.parametrize(
    "basis",
    [
        ["hmu"],
        ["hmu", "--basis", "m"],
        ["llt", "--basis", "schur"],
        ["jack", "--alpha", "1", "--basis", "m"],
    ],
)
def test_hmu_vars_needs_the_x_basis(capsys, basis):
    command, *rest = basis
    with pytest.raises(SystemExit) as exc:
        main([command, "--mu", "2", "--vars", "1", *rest])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--vars: only --basis x" in out.err


@pytest.mark.parametrize("nvars", ["-1", "0", "3"])
def test_jmu_takes_no_vars(capsys, nvars):
    # jmu prints only the m-vector, which no number of variables changes
    with pytest.raises(SystemExit) as exc:
        main(["jmu", "--mu", "2,1", "--vars", nvars])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --vars" in out.err


def test_x_basis_json_is_unindented_and_under_twice_the_text(capsys):
    argv = ["hmu", "--mu", "3,2,1", "--basis", "x", "--vars", "6"]
    _, text, _ = run_cli(capsys, *argv)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "mu": [3, 2, 1],
        "basis": "x",
        "polynomial": from_m_basis(macdonald((3, 2, 1)).m_vec, 6).to_json(),
    }
    assert out.count("\n") == 1
    assert len(out) < 2 * len(text)


def test_hmu_json(capsys):
    code, out, _ = run_cli(capsys, "hmu", "--mu", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["mu"] == [2]
    assert payload["basis"] == "schur"
    assert payload["terms"] == [[[2], [[0, 0, "1"]]], [[1, 1], [[1, 0, "1"]]]]


def test_guards_exit_with_usage_error(capsys):
    # one guard per cost class: the content DP for one shape (10 cells, also
    # llt --basis schur) and for a table (n = 9), n^n word sums and llt
    # --basis x (7 cells), verify (n = 6)
    for argv in (
        ["hmu", "--mu", "11"],
        ["hmu", "--mu", "8", "--basis", "x"],
        ["llt", "--mu", "8"],
        ["llt", "--mu", "11", "--basis", "schur"],
        ["kostka-table", "--n", "10"],
        ["verify", "axioms", "--n-max", "7"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["hmu", "--basis", "x"], ["llt", "--basis", "x"], ["jack", "--alpha", "1", "--basis", "x"]],
)
def test_writing_out_many_monomials_is_guarded(capsys, argv):
    # degree 3 in v variables has up to C(v + 2, 3) monomials: 9880 at 38
    # variables, 10660 at 39, against the cap of 10000
    assert cli.TERM_GUARD == 10_000
    argv = [*argv, "--mu", "3"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--vars", "39"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "above the guard of 10000; pass --force-guard" in out.err
    code, out, _ = run_cli(capsys, *argv, "--vars", "39", "--force-guard")
    assert code == 0
    assert len(re.findall(r"x\d+(?:\^\d+)?(?:\*x\d+(?:\^\d+)?)*", out)) == 10660
    assert run_cli(capsys, *argv, "--vars", "38")[0] == 0


def test_llt_schur_of_eight_cells_passes_the_guard(capsys):
    # the Schur vector comes from the content DP, so it shares the single-shape
    # guard; a one-row shape has no descent cells, so H~ is its one LLT term
    code, out, err = run_cli(capsys, "llt", "--mu", "8", "--basis", "schur")
    assert code == 0
    assert err == ""
    assert run_cli(capsys, "hmu", "--mu", "8") == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        # (word, operator) pairs past 2,000,000
        ["crystal", "--alphabet", "4", "--word-len", "10"],
        ["crystal", "--alphabet", "300", "--word-len", "1"],
        ["all", "--alphabet", "5", "--word-len", "9"],
        # (2 * alphabet)^n signed words per shape past 50,000
        ["involutions", "--alphabet", "4", "--n-max", "6"],
        ["all", "--alphabet", "4", "--n-max", "6"],
        # 2^len words per beta sequence past 2^18
        ["llt", "--beta-len", "19"],
    ],
)
def test_exponential_verify_bounds_are_guarded(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "[PASS]" not in out.out
    assert "pass --force-guard" in out.err


@pytest.mark.parametrize("suite", ["llt", "all"])
def test_a_beta_length_the_sampler_cannot_meet_is_refused_even_when_forced(capsys, suite):
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--beta-len", "186", "--force-guard"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "[PASS]" not in out.out
    assert "185 distinct values" in out.err


def test_forced_hall_littlewood_of_nine_cells(capsys):
    # the CLI guard is the only one: macdonald() itself takes any size
    code, out, err = run_cli(capsys, "hall-littlewood", "--mu", "5,4", "--force-guard")
    assert code == 0
    assert out.strip() == "s[9] + t*s[8,1] + t^2*s[7,2] + t^3*s[6,3] + t^4*s[5,4]"
    assert err == ""


def test_bad_partition_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hmu", "--mu", "1,2"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("text, part", [("2,,1", ""), ("1e3", "1e3")])
def test_a_part_that_is_not_an_integer_is_named(capsys, text, part):
    with pytest.raises(SystemExit) as exc:
        main(["hmu", "--mu", text])
    assert exc.value.code == 2
    assert f"part {part!r} of partition {text!r} is not an integer" in capsys.readouterr().err


def test_kostka_table_text(capsys):
    code, out, _ = run_cli(capsys, "kostka-table", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["lambda", "\\", "mu", "2", "1,1"]
    assert lines[1].split() == ["2", "1", "1"]
    assert lines[2].split() == ["1,1", "q", "t"]


def test_kostka_table_json(capsys):
    code, out, _ = run_cli(capsys, "kostka-table", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["n"] == 3
    assert payload["partitions"] == [[3], [2, 1], [1, 1, 1]]
    # column of the single row: 1, q + q^2, q^3
    assert payload["table"][0][0] == [[0, 0, "1"]]
    assert payload["table"][1][0] == [[1, 0, "1"], [2, 0, "1"]]
    assert payload["table"][2][0] == [[3, 0, "1"]]


def test_kostka_table_cache_round_trip(tmp_path, capsys):
    code, first, _ = run_cli(
        capsys, "kostka-table", "--n", "2", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    cache_file = tmp_path / "kostka_2.json"
    assert cache_file.exists()
    code, second, _ = run_cli(
        capsys, "kostka-table", "--n", "2", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert second == first


def test_kostka_table_cache_schema_mismatch_recomputes(tmp_path, capsys):
    cache_file = tmp_path / "kostka_2.json"
    cache_file.write_text(json.dumps({"schema": 0, "n": 2, "junk": True}))
    code, out, _ = run_cli(
        capsys, "kostka-table", "--n", "2", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert "q" in out
    payload = json.loads(cache_file.read_text())
    assert payload["schema"] == 1 and payload["n"] == 2


def test_kostka_table_corrupt_cache_recomputes(tmp_path, capsys):
    cache_file = tmp_path / "kostka_2.json"
    cache_file.write_text("{not json")
    code, out, _ = run_cli(
        capsys, "kostka-table", "--n", "2", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert json.loads(cache_file.read_text())["schema"] == 1


def test_kostka_table_cache_of_the_wrong_shape_recomputes(tmp_path, capsys):
    cache_file = tmp_path / "kostka_2.json"
    cache_file.write_text("[1, 2]")
    code, out, _ = run_cli(capsys, "kostka-table", "--n", "2", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out.strip().splitlines()[2].split() == ["1,1", "q", "t"]
    assert json.loads(cache_file.read_text())["schema"] == 1


def test_kostka_table_cache_with_a_malformed_entry_recomputes(tmp_path, capsys):
    code, fresh, _ = run_cli(capsys, "kostka-table", "--n", "2", "--cache-dir", str(tmp_path))
    cache_file = tmp_path / "kostka_2.json"
    payload = json.loads(cache_file.read_text())
    payload["table"][1][0] = "x"
    cache_file.write_text(json.dumps(payload))
    assert cli._load_cached_table(str(cache_file), 2) is None
    code, out, _ = run_cli(capsys, "kostka-table", "--n", "2", "--cache-dir", str(tmp_path))
    assert code == 0
    assert out == fresh
    assert cli._load_cached_table(str(cache_file), 2) is not None


def test_kostka_table_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _, _ = run_cli(capsys, "kostka-table", "--n", "2")
    assert code == 0
    assert (tmp_path / "kostka_2.json").exists()


@pytest.mark.parametrize("case", ["file", "below a file", "directory at the cache file", "env var"])
def test_an_unusable_cache_directory_is_a_usage_error(tmp_path, capsys, monkeypatch, case):
    # a regular file is in the way even for root, whom permission bits do not stop
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cache_dir = {"file": blocker, "below a file": blocker / "sub"}.get(case, tmp_path / "cache")
    if case == "directory at the cache file":
        (cache_dir / "kostka_3.json").mkdir(parents=True)
    if case == "env var":
        cache_dir = blocker
        monkeypatch.setenv(cli.CACHE_ENV, str(cache_dir))
        argv = ["kostka-table", "--n", "3"]
    else:
        argv = ["kostka-table", "--n", "3", "--cache-dir", str(cache_dir)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"cannot cache the table at {cache_dir / 'kostka_3.json'}" in out.err
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize(
    "argv",
    [
        ["hmu", "--mu", "2,,1"],                          # _parse_mu
        ["llt", "--mu", "8"],                             # _guard
        ["kostka-table", "--n", "3", "--cache-dir", "{blocker}"],  # _cache_step
        ["verify", "crystal", "--alphabet", "1"],         # a verify bound check
    ],
    ids=["parse", "guard", "cache", "verify-bound"],
)
def test_a_usage_error_shows_the_subcommand_usage(tmp_path, capsys, argv):
    # a regular file is in the way of the cache directory
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    with pytest.raises(SystemExit) as exc:
        main([a.format(blocker=blocker) for a in argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"usage: macpoly {argv[0]} ")


def test_kostka_table_workers_match_serial(capsys, monkeypatch):
    # two CPUs on any host, so the columns and their QT values go through a
    # real two-process pool
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, parallel, _ = run_cli(
        capsys, "kostka-table", "--n", "5", "--format", "json", "--workers", "2"
    )
    assert code == 0
    code, serial, _ = run_cli(capsys, "kostka-table", "--n", "5", "--format", "json")
    assert code == 0
    assert parallel == serial


class RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, maps serially."""

    sizes: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(x) for x in items]


@pytest.mark.parametrize(
    "workers, n, cpus, size",
    [("64", "2", 8, 2), ("64", "4", 3, 3), ("3", "4", 8, 3), ("64", "4", None, None)],
)
def test_kostka_table_workers_are_capped(capsys, monkeypatch, workers, n, cpus, size):
    # at most one process per column (len(partitions(n))) and per CPU
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "Pool", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, out, _ = run_cli(capsys, "kostka-table", "--n", n, "--workers", workers)
    assert code == 0
    assert RecordingPool.sizes == ([] if size is None else [size])
    assert out == run_cli(capsys, "kostka-table", "--n", n)[1]


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_kostka_table_workers_below_one_are_a_usage_error(capsys, workers):
    with pytest.raises(SystemExit) as exc:
        main(["kostka-table", "--n", "2", "--workers", workers])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "--workers: must be at least 1" in out.err


def test_llt_x_basis(capsys):
    code, out, _ = run_cli(
        capsys, "llt", "--mu", "1,1", "--descents", "2,1", "--basis", "x", "--vars", "2"
    )
    assert code == 0
    assert out.strip() == "x1*x2"


@pytest.mark.parametrize("argv", [["llt", "--mu", "1"], ["hmu", "--mu", "1", "--basis", "x"]])
def test_one_cell_in_twelve_variables(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--vars", "12")
    assert code == 0
    assert out.strip() == " + ".join(f"x{k}" for k in range(1, 13))


def test_llt_rejects_bad_descents(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["llt", "--mu", "2,1", "--descents", "1;2"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["llt", "--mu", "2,1", "--descents", "1,1"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("cell", [(1, 1), (3, 1), (2, 2)], ids=["first-row", "above", "right"])
def test_llt_and_the_descent_classes_reject_a_bad_cell_alike(capsys, cell):
    # one checker guards ribbon_tuple, descent_class_poly and descent_class_weight
    with pytest.raises(ValueError) as weight_exc:
        descent_class_weight((2, 1), [cell])
    with pytest.raises(ValueError) as class_exc:
        descent_class_poly((2, 1), [cell], 3)
    assert str(weight_exc.value) == str(class_exc.value)
    with pytest.raises(SystemExit) as exc:
        main(["llt", "--mu", "2,1", "--descents", f"{cell[0]},{cell[1]}"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.rstrip().endswith(f"error: {weight_exc.value}")


def test_jack_monomial_text(capsys):
    code, out, _ = run_cli(capsys, "jack", "--mu", "2", "--alpha", "1")
    assert code == 0
    assert out.strip() == "2*m[2] + 2*m[1,1]"


def test_jack_checks_the_variable_count_before_computing(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("jack_alpha_m_vec ran before the usage check")

    monkeypatch.setattr(cli, "jack_alpha_m_vec", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["jack", "--mu", "2,1", "--alpha", "1", "--vars", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_jack_at_a_large_alpha(capsys):
    code, out, _ = run_cli(capsys, "jack", "--mu", "3,2", "--alpha", "1000000")
    assert code == 0
    assert out.strip().startswith("2000008000010000004*m[3,2] + ")


def test_jack_rejects_nonpositive_alpha(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["jack", "--mu", "2", "--alpha", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_jmu_monomial_text(capsys):
    code, out, _ = run_cli(capsys, "jmu", "--mu", "2")
    assert code == 0
    assert out.strip() == (
        "(1 - t - q*t + q*t^2)*m[2] + (1 - 2*t + t^2 + q - 2*q*t + q*t^2)*m[1,1]"
    )


def test_hall_littlewood_text(capsys):
    code, out, _ = run_cli(capsys, "hall-littlewood", "--mu", "1,1")
    assert code == 0
    assert out.strip() == "s[2] + t*s[1,1]"


def test_two_column_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "two-column", "--lam", "2,1", "--mu", "2,1")
    assert code == 0
    assert out.strip() == "t + q"
    code, out, _ = run_cli(
        capsys, "two-column", "--lam", "2,1", "--mu", "2,1", "--format", "json"
    )
    payload = json.loads(out)
    assert payload == {
        "lambda": [2, 1],
        "mu": [2, 1],
        "coefficient": [[0, 1, "1"], [1, 0, "1"]],
    }


def test_two_column_rejects_wide_or_mismatched_shapes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["two-column", "--lam", "3", "--mu", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["two-column", "--lam", "2", "--mu", "2,1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "axioms", "--n-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines
    assert all(line.startswith("[PASS] axioms: ") for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "axioms", "--n-max", "0"],
        ["verify", "llt", "--samples", "-1"],
        ["verify", "llt", "--beta-len", "1"],
        ["verify", "involutions", "--alphabet", "0"],
        ["verify", "crystal", "--word-len", "0"],
        # below two cells no signed word has a pivot under either involution
        ["verify", "involutions", "--n-max", "1"],
        ["verify", "all", "--n-max", "1"],
    ],
)
def test_verify_refuses_empty_ranges(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "[PASS]" not in out.out
    assert "must be at least" in out.err


@pytest.mark.parametrize(
    "argv, accepted",
    [
        (["jack", "--samples", "3"], "--n-max"),
        (["axioms", "--seed", "5"], "--n-max"),
        (["crystal", "--n-max", "2", "--beta-len", "4"], "--n-max, --alphabet, --word-len"),
        (["cocharge", "--alphabet", "2"], "--n-max, --samples, --seed"),
    ],
)
def test_a_suite_refuses_a_bound_it_does_not_take(capsys, argv, accepted):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "[PASS]" not in out.out
    assert f"verify {argv[0]} takes only {accepted}" in out.err


def test_verify_all_takes_a_bound_that_some_suite_takes(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run_suite", lambda name, **kw: calls.append((name, kw)) or [])
    code, _, _ = run_cli(capsys, "verify", "all", "--samples", "3")
    assert code == 0
    assert [name for name, _ in calls] == sorted(cli.SUITES)
    assert all(kw["samples"] == 3 for _, kw in calls)


@pytest.mark.parametrize("suite", ["crystal", "all"])
def test_crystal_checks_refuse_a_one_letter_alphabet(capsys, suite):
    # raising and lowering act on letters i, i + 1: one letter leaves nothing to check
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--alphabet", "1", "--n-max", "2", "--word-len", "2"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert "[PASS]" not in out.out
    assert "--alphabet" in out.err


def test_involutions_accept_a_one_letter_alphabet(capsys):
    code, out, _ = run_cli(capsys, "verify", "involutions", "--alphabet", "1", "--n-max", "2")
    assert code == 0
    assert "alphabet 1" in out


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", lambda name, **kw: [("broken", False)])
    code, out, err = run_cli(capsys, "verify", "axioms")
    assert code == 1
    assert "[FAIL] axioms: broken" in out
    assert "1 check(s) failed" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.strip().startswith("macpoly ")


def child_env() -> dict[str, str]:
    """The inherited environment with src/ first on PYTHONPATH, so that a
    child interpreter imports this checkout's macpoly, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "macpoly.cli", "hmu", "--mu", "2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "s[2] + q*s[1,1]"


def test_closed_stdout_exits_one_without_a_traceback():
    # like `| head -c 1`: the output (~240 kB, one line) overflows the 64 kB
    # pipe buffer, and the reader closes its end after the first byte
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "macpoly.cli",
            "hmu", "--mu", "3,2,1", "--basis", "x", "--vars", "7", "--format", "json",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err
