"""The benchmark in perfbench/ drives dillab through its public names, and its
tracer wraps functions by module and name. This pins that surface: the first
instance of each library workload must run and pass its own independent
check, with every traced name resolved and wrapped."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_workloads_and_tracer_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for make_pass in (workloads.perron_pass, workloads.roots_pass, workloads.oracle_pass):
            inst = make_pass(0)[0]
            results: dict = {}
            for key, call in inst.calls:
                results[key] = call(results)
            assert inst.check(results) == [], inst.label
    finally:
        tracer.uninstall()
    # the oracle instance reached the graph layer through the wrappers
    assert tracer.calls["transgraph.subdivide_out_edge"] == 1
    assert tracer.calls["transgraph.path_count"] > 0
