"""The named verification suites and their registry."""

import functools

import pytest

from macpoly import verify
from macpoly.qtring import QT
from macpoly.verify import SUITES, run_suite, suite_axioms, suite_llt


def test_registry_names():
    assert sorted(SUITES) == [
        "axioms",
        "cocharge",
        "crystal",
        "involutions",
        "jack",
        "llt",
    ]


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes_at_small_bounds(name):
    results = run_suite(
        name,
        n_max=3,
        samples=10,
        seed=7,
        alphabet=2,
        word_len=4,
        beta_len=5,
    )
    assert results
    for label, ok in results:
        assert ok, f"{name}: {label}"


def test_run_suite_drops_irrelevant_bounds():
    # the jack suite accepts only n_max; the rest must be filtered out
    results = run_suite("jack", n_max=2, samples=5, seed=1, word_len=9)
    assert all(ok for _, ok in results)


def traced(suite):
    # what the benchmark's tracing shim puts in SUITES in place of a suite
    @functools.wraps(suite)
    def call(*args, **kwargs):
        return suite(*args, **kwargs)

    return call


def test_bounds_see_through_a_wrapped_suite(monkeypatch):
    bounds = dict(n_max=2, samples=3, seed=5, alphabet=2, word_len=3, beta_len=4)
    plain = {name: (verify.suite_bounds(name), run_suite(name, **bounds)) for name in SUITES}
    for name, suite in list(SUITES.items()):
        monkeypatch.setitem(SUITES, name, traced(suite))
    assert all(hasattr(suite, "__wrapped__") for suite in SUITES.values())
    wrapped = {name: (verify.suite_bounds(name), run_suite(name, **bounds)) for name in SUITES}
    assert wrapped == plain


def test_run_suite_rejects_unknown_names():
    with pytest.raises(KeyError):
        run_suite("nonsense")


def test_axioms_symmetry_runs_every_composition(monkeypatch):
    # (1, 2, 1) is neither a partition nor one reversed: only a sweep over
    # every composition reaches it
    real = verify.content_filling_sum

    def skewed(sd, content, *args):
        c = real(sd, content, *args)
        return c + QT.q() if tuple(content) == (1, 2, 1) else c

    monkeypatch.setattr(verify, "content_filling_sum", skewed)
    results = dict(suite_axioms(4))
    assert not results["filling sums are symmetric polynomials (n <= 4)"]
    assert all(ok for label, ok in results.items() if "symmetric" not in label)


def test_llt_reassembly_catches_a_dropped_class(monkeypatch):
    # the ribbon check reads llt's binding and still passes; the reassembly
    # is short of the class with no descents
    real = verify.descent_class_polys
    monkeypatch.setattr(
        verify, "descent_class_polys",
        lambda mu, nvars: {d: v for d, v in real(mu, nvars).items() if d},
    )
    results = dict(suite_llt(3, samples=1))
    assert not results["descent classes reassemble the filling sum (n <= 3)"]
    assert all(ok for label, ok in results.items() if "reassemble" not in label)
