"""The benchmark in perfbench/ drives dillab through its public names, and its
tracer wraps functions by module and name. This pins that surface: the first
instance of the perron and roots workloads, and every instance of the oracle
pass, must run and pass its own independent check, with every traced name
resolved and wrapped. The oracle pass checks each mu_compare against
disjoint Perron enclosures, so the exact oracle is checked at every graph
size the benchmark uses."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_workloads_and_tracer_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        oracle = workloads.oracle_pass(0)
        for inst in [workloads.perron_pass(0)[0], workloads.roots_pass(0)[0], *oracle]:
            results: dict = {}
            for key, call in inst.calls:
                results[key] = call(results)
            assert inst.check(results) == [], inst.label
    finally:
        tracer.uninstall()
    # every oracle instance reached the graph layer through the wrappers
    assert len(oracle) == 36
    assert tracer.calls["transgraph.subdivide_out_edge"] == 36
    assert tracer.calls["transgraph.path_count"] > 0


def test_benchmark_suite_names_match_registry(monkeypatch):
    # perfbench/run.py checks every verify report against its own copy of
    # the suite list; a renamed, dropped or reordered suite must fail here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    from dillab.suites import SUITES

    assert tuple(SUITES) == run.SUITE_NAMES
