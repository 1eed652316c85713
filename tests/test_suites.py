import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from dillab import suites
from dillab.cli import main
from dillab.suites import SUITES, parallel_map, random_irreducible_rows, run_suite, shared_pool
from dillab.intmatrix import IntMatrix, is_irreducible


def test_registry_names():
    assert sorted(SUITES) == [
        "congruence-index",
        "diag-power",
        "local-index",
        "multitwist",
        "path-growth",
        "quartic-root",
        "root-bound",
        "sandwich",
        "subdivision",
        "torus-family",
    ]
    for spec in SUITES.values():
        assert spec.default_cases >= 1


def test_unknown_suite_raises_with_listing():
    with pytest.raises(KeyError) as exc:
        run_suite("no-such-suite")
    assert "diag-power" in str(exc.value)
    with pytest.raises(ValueError):
        run_suite("diag-power", cases=0)


def test_random_irreducible_rows_always_irreducible():
    for seed in range(30):
        rng = random.Random(seed)
        k = rng.randint(2, 9)
        rows = random_irreducible_rows(rng, k, 3)
        assert is_irreducible(IntMatrix.from_rows(rows))


def test_random_irreducible_rows_forced_diagonal():
    rng = random.Random(5)
    rows = random_irreducible_rows(rng, 6, 4, force_diagonal=True)
    assert any(rows[i][i] > 0 for i in range(6))


def test_report_shape_and_pass():
    rep = run_suite("diag-power", seed=7, cases=10)
    assert rep["suite"] == "diag-power"
    assert rep["seed"] == 7
    assert rep["cases"] == 10
    assert rep["passed"] is True
    assert rep["failure_count"] == 0
    assert rep["failures"] == []


def test_same_seed_same_report():
    a = run_suite("multitwist", seed=3, cases=25)
    b = run_suite("multitwist", seed=3, cases=25)
    assert a == b
    c = run_suite("multitwist", seed=4, cases=25)
    assert c["seed"] == 4


def test_jobs_do_not_change_report():
    for name, cases in (("diag-power", 12), ("path-growth", 4), ("subdivision", 6)):
        a = run_suite(name, seed=7, cases=cases, jobs=1)
        b = run_suite(name, seed=7, cases=cases, jobs=2)
        assert a == b, name


def test_quartic_root_suite_fields():
    rep = run_suite("quartic-root", seed=7)
    assert rep["passed"] is True
    assert rep["cases"] == 1
    # the enclosure and oracle endpoints ride along for inspection
    assert "enclosure_lo" in rep and "oracle_lo" in rep


def test_congruence_index_suite():
    rep = run_suite("congruence-index", seed=7)
    assert rep["passed"] is True


def test_torus_family_suite_small():
    rep = run_suite("torus-family", seed=7, cases=12)
    assert rep["passed"] is True
    assert rep["n_lo"] == 5 and rep["n_hi"] == 12


def test_diag_power_and_torus_family_certify_from_the_lemmas(monkeypatch):
    # diag-power reads M^(2k) 1 and a bitset zero pattern, and the torus cap
    # 9 comes from the contract's column sums: neither builds a dense power,
    # a transpose or a hi_target enclosure
    from dillab import intmatrix

    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append((name, "hi_target" in kwargs))
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(intmatrix, "mat_power", spy("mat_power", intmatrix.mat_power))
    monkeypatch.setattr(IntMatrix, "__matmul__", spy("@", IntMatrix.__matmul__))
    monkeypatch.setattr(IntMatrix, "transpose", spy("transpose", IntMatrix.transpose))
    pf_enclosure = spy("pf_enclosure", intmatrix.pf_enclosure)
    for module in (intmatrix, suites):
        monkeypatch.setattr(module, "pf_enclosure", pf_enclosure)
    for i in range(20):
        assert suites._diag_power_case(("diag-power", 7, i)) is None
    assert calls == []
    for n in (5, 40, 41, 80):
        assert suites._torus_family_case((n,))[0] == []
    assert calls == [("pf_enclosure", False)] * 3  # the direct route at n = 5, 40, 80


def test_root_bound_suite_small():
    rep = run_suite("root-bound", seed=7, cases=12)
    assert rep["passed"] is True
    assert rep["m_lo"] == 5 and rep["m_hi"] == 12


def test_subdivision_suite_reports_shift_law_failure():
    rep = run_suite("subdivision", seed=7, cases=8)
    # the interval inequalities hold; the literal path-shift law does not
    assert rep["interval_failure_count"] == 0
    assert rep["shift_law_holds"] is False
    assert rep["shift_failure_count"] > 0
    assert rep["passed"] is False
    assert rep["shift_counterexample"] is not None


def test_path_growth_suite_small():
    rep = run_suite("path-growth", seed=7, cases=6)
    assert rep["passed"] is True
    assert rep["d"] == 200
    assert rep["tolerance"] == "1/20"


def test_local_index_suite_small():
    rep = run_suite("local-index", seed=7, cases=6)
    assert rep["passed"] is True


def test_sandwich_suite_small():
    rep = run_suite("sandwich", seed=7, cases=8)
    assert rep["passed"] is True
    assert rep["g"] == 2
    assert rep["rows"] >= 8


def _square(x):
    return x * x


@pytest.fixture
def built(monkeypatch):
    """The max_workers of every pool constructed, on a host of two CPUs."""
    sizes = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(suites, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return sizes


def test_run_suite_outside_a_block_opens_one_pool_and_closes_it(built):
    assert run_suite("diag-power", seed=7, cases=12, jobs=2)["passed"] is True
    assert built == [2]
    assert multiprocessing.active_children() == []


def test_run_suites_inside_a_block_share_its_pool(built):
    with shared_pool(2):
        run_suite("diag-power", seed=7, cases=12, jobs=2)
        run_suite("multitwist", seed=7, cases=12, jobs=2)
    assert built == [2]
    assert multiprocessing.active_children() == []


def test_parallel_map_without_a_block_maps_in_process(built):
    assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
    assert built == []


def test_worker_count_is_capped_at_the_cpu_count(monkeypatch, capsys):
    # a fake pool that maps in-process, so no worker is ever started
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def map(self, fn, args, chunksize=1):
            return map(fn, args)

        def shutdown(self):
            pass

    monkeypatch.setattr(suites, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with shared_pool(100_000):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
    assert sizes == [2]
    assert main(["verify", "--suite", "diag-power", "--cases", "12", "--jobs", "100000"]) == 0
    capsys.readouterr()
    assert sizes == [2, 2]
    for cpus in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        with shared_pool(100_000):
            assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]
    assert sizes == [2, 2]
