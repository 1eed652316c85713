"""dillab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload perron --seed 1 --seconds 10 --trace 0

Workloads (see README.md for why each exists):
  perron  torus and random Perron enclosures (intmatrix iteration)
  roots   T_m root certificates, cover bounds and one sandwich table per pass
  oracle  spliced small graphs: subdivision, path counts, exact mu_compare
  verify  `python -m dillab verify --all --seed S --jobs 2` in a fresh process

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a separate traced pass. Lines
before it print every metric with its unit, plus informational fingerprints.
The program is used from source: `src/` of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

PROBE_STEPS = 7_000
REFERENCE_PROBE_S = 0.0004  # host_probe() on the reference machine at full host speed
SETUP_REPEATS = 5  # fresh interpreters at the start of a run, and again at its end
MIN_CERTIFICATES = 200  # so that at least ten lie beyond the 95th percentile
MIN_PASSES = 2
VERIFY_JOBS = 2
TICK_S = 0.25  # host probes while verify runs: about 0.5% of one processor
VERIFY_TIMEOUT_S = 80  # per invocation; a traced run must still end within 180 s
DELIBERATE_RED = "subdivision"

SETUP_CODE = """
before = host_probe()
t = time.perf_counter()
import dillab
dillab.log_enclosure(3)  # fills the cached log 2 enclosure
elapsed = time.perf_counter() - t
print(elapsed, before, host_probe())
"""

END_TO_END = (
    ("wall_s", "s"),
    ("cert_p50_ms", "ms"),
    ("cert_p95_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

SUITE_NAMES = (
    "diag-power",
    "path-growth",
    "multitwist",
    "root-bound",
    "quartic-root",
    "torus-family",
    "congruence-index",
    "subdivision",
    "local-index",
    "sandwich",
)

PER_LAYER = (
    ("intmatrix.pf_enclosure.calls", "count"),
    ("intmatrix.pf_enclosure.busy_s", "s"),
    ("intmatrix.pf_enclosure.iterations", "count"),
    ("intmatrix.pf_enclosure.width_met_frac", "ratio"),
    ("intmatrix.from_rows.busy_s", "s"),
    ("intmatrix.transpose.busy_s", "s"),
    ("intmatrix.is_irreducible.busy_s", "s"),
    ("transgraph.from_matrix.busy_s", "s"),
    ("transgraph.to_matrix.busy_s", "s"),
    ("transgraph.subdivide_out_edge.busy_s", "s"),
    ("transgraph.path_count.calls", "count"),
    ("transgraph.path_count.busy_s", "s"),
    ("families.torus_matrix.busy_s", "s"),
    ("families.verify_torus_bounds.busy_s", "s"),
    ("families.cover_upper_bound.calls", "count"),
    ("families.cover_upper_bound.busy_s", "s"),
    ("dilpoly.largest_root.calls", "count"),
    ("dilpoly.largest_root.busy_s", "s"),
    ("dilpoly.sign_at.calls", "count"),
    ("dilpoly.m_cubed_root_enclosure.busy_s", "s"),
    ("dilpoly.mu_compare.calls", "count"),
    ("dilpoly.mu_compare.busy_s", "s"),
    ("dilpoly.char_poly.busy_s", "s"),
    ("dilpoly.count_real_roots_above.calls", "count"),
    ("dilpoly.count_real_roots_above.busy_s", "s"),
    ("enclosures.nth_root_enclosure.busy_s", "s"),
    ("enclosures.inth_root.max_bits", "bits"),
    ("enclosures.log_enclosure.calls", "count"),
    ("enclosures.log_enclosure.busy_s", "s"),
    ("bounds.sandwich_table.busy_s", "s"),
    ("bounds.kappa_upper_constant.busy_s", "s"),
    ("bounds.thm34_lower.busy_s", "s"),
    ("lefschetz.multitwist_action.busy_s", "s"),
    ("lefschetz.local_index.busy_s", "s"),
    *((f"suites.{name}.busy_s", "s") for name in SUITE_NAMES),
    ("suites.parallel_map.wait_s", "s"),
    ("cli.main.self_s", "s"),
    ("bench.trace_overhead_s", "s"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("DILLAB_JOBS", None)
    return env


def children_cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def run_child(argv: list, timeout: float, tick=None) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group
    (pool workers included) and wait for it before raising. While the child
    runs, `tick`, if given, is called every TICK_S seconds."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    deadline = time.perf_counter() + timeout
    while True:
        try:
            out, err = proc.communicate(timeout=TICK_S if tick else timeout)
            break
        except subprocess.TimeoutExpired:
            if tick is None or time.perf_counter() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
            tick()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def measure_setup() -> list[tuple[float, float]]:
    """SETUP_REPEATS fresh interpreters, each timing `import dillab` plus the
    first call, with the host probe on either side. Returns each one's
    seconds and its host-scaled seconds. A run samples at its start and at
    its end and reports the median of the scaled ones."""
    # the child gets the probe's own source, not an import of this file,
    # which would load modules that `import dillab` must pay for itself
    code = f"import time\nPROBE_STEPS = {PROBE_STEPS}\n{inspect.getsource(host_probe)}{SETUP_CODE}"
    out = []
    for _ in range(SETUP_REPEATS):
        done = run_child([sys.executable, "-c", code], timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
        elapsed, before, after = map(float, done.stdout.split())
        out.append((elapsed, elapsed * 2 * REFERENCE_PROBE_S / (before + after)))
    return out


def host_probe(clock=time.perf_counter) -> float:
    """Best of three timings of a fixed pure-Python loop: how long the host
    takes right now for a fixed amount of work."""
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        acc = 0
        for i in range(PROBE_STEPS):
            acc += i * i % 7
        best = min(best, clock() - t0)
    return best


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------


class Tally:
    """Certificates attempted, failed (refused or wrong) and wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []


def run_pass(instances) -> tuple[list, list, list, list]:
    """Run every certificate in order. Returns, per instance, its results and
    the error that ended it (or None); and per certificate its wall and CPU
    seconds and its host scale. A certificate that raises is refused and
    ends its instance.

    The host probe runs before the first certificate and after each one. A
    certificate's host scale is REFERENCE_PROBE_S over the mean of the probes
    on either side of it: about 1 while the host runs at full speed, and 0.5
    while a neighbour on the machine halves it."""
    done, walls, cpus, scales = [], [], [], []
    before = host_probe()
    for inst in instances:
        results: dict = {}
        error = None
        for key, call in inst.calls:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                results[key] = call(results)
            except Exception as exc:  # one refused certificate must not end the run
                error = (key, f"{type(exc).__name__}: {exc}")
                break
            finally:
                walls.append(time.perf_counter() - t0)
                cpus.append(time.process_time() - c0)
                after = host_probe()
                scales.append(2 * REFERENCE_PROBE_S / (before + after))
                before = after
        done.append((inst, results, error))
    return done, walls, cpus, scales


def fingerprint(done) -> str:
    digest = hashlib.sha256()
    for inst, results, _ in done:
        for key in sorted(results):
            digest.update(f"{inst.label}|{key}|{results[key]!r}\n".encode())
    return digest.hexdigest()


def check_pass(done, tally: Tally) -> None:
    """Independent checks; a refused certificate is failed, a wrong one is
    failed and wrong."""
    for inst, results, error in done:
        tally.attempted += len(results) + (error is not None)
        bad = {}
        if error is None:
            for key, msg in inst.check(results):
                bad.setdefault(key, f"{inst.label}: {key}: {msg}")
        else:
            bad[error[0]] = f"{inst.label}: {error[0]} raised {error[1]}"
        tally.failed += len(bad)
        tally.wrong += len(bad) - (error is not None)
        tally.problems.extend(bad.values())


def library_untraced(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    """Repeat the workload's pass for `seconds`, at least MIN_PASSES times.

    A certificate's latency is the median over the passes of its wall time
    times its host scale, so it reads in seconds of the reference host at
    full speed. The host on a shared machine runs at half speed for seconds
    at a time, and both the certificates and the probe slow down."""
    from workloads import PASSES

    instances = PASSES[workload](seed)
    tally = Tally()
    passes: list[tuple[list, list]] = []  # scaled walls and CPU times of each pass
    raw_walls, scale_ranges = [], []
    sha = None
    t_end = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < t_end:
        done, walls, cpus, scales = run_pass(instances)
        if sha is None:
            check_pass(done, tally)
            sha = fingerprint(done)
        elif fingerprint(done) != sha or len(walls) != len(passes[0][0]):
            tally.wrong += 1
            tally.problems.append(f"pass {len(passes)} certified something else than pass 0")
            break
        passes.append(([w * k for w, k in zip(walls, scales)], [c * k for c, k in zip(cpus, scales)]))
        raw_walls.append(sum(walls))
        scale_ranges.append([min(scales), max(scales)])
    wall = [statistics.median(v) for v in zip(*(p[0] for p in passes))]
    cpu = [statistics.median(v) for v in zip(*(p[1] for p in passes))]
    if len(wall) < MIN_CERTIFICATES:
        raise RuntimeError(f"{len(wall)} certificates a pass; the 95th percentile needs {MIN_CERTIFICATES}")
    metrics = {
        "wall_s": sum(wall),
        "cert_p50_ms": 1000 * statistics.median(wall),
        "cert_p95_ms": 1000 * statistics.quantiles(wall, n=20)[18],
        "cpu_s": sum(cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # unscaled pass walls: a first pass much slower than the others would
    # show a cache that only repeated identical calls can hit
    info = {
        "pass_walls_s": raw_walls,
        "pass_scaled_walls_s": [sum(p[0]) for p in passes],
        "pass_host_scales": scale_ranges,
        "certificates": len(wall),
        "results_sha256": sha,
    }
    return metrics, tally, info


def library_traced(workload: str, seed: int) -> tuple[dict, Tally, dict]:
    """The pass untraced, then again traced: same certificates, and the
    difference of the two walls is the tracing overhead."""
    from tracing import Tracer
    from workloads import PASSES

    instances = PASSES[workload](seed)
    tally = Tally()
    t0 = time.perf_counter()
    plain, *_ = run_pass(instances)
    wall_plain = time.perf_counter() - t0
    check_pass(plain, tally)
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced, *_ = run_pass(instances)
        wall_traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    if fingerprint(plain) != fingerprint(traced):
        tally.wrong += 1
        tally.problems.append("traced certificates differ from untraced ones")
    info = {
        "results_sha256": fingerprint(plain),
        "untraced_wall_s": wall_plain,
        "traced_wall_s": wall_traced,
        "spans": write_spans(tracer, workload, seed),
    }
    return layer_metrics(tracer, tracer, wall_traced - wall_plain), tally, info


# ---------------------------------------------------------------------------
# verify workload
# ---------------------------------------------------------------------------


def check_report(text: str, code: int, seed: int, tally: Tally) -> bool:
    """Count the report's cases and failures; False when the report itself
    is wrong (malformed, inconsistent with the exit code, or the deliberate
    red not as documented). Failures of other suites are failed cases."""
    report = json.loads(text)
    suites = {s["suite"]: s for s in report["suites"]}
    ok = (
        report["seed"] == seed
        and tuple(suites) == SUITE_NAMES
        and report["all_passed"] == all(s["passed"] for s in suites.values())
        and code == (0 if report["all_passed"] else 1)
        and text.endswith("\n")
    )
    for name, suite in suites.items():
        tally.attempted += suite["cases"]
        ok = ok and suite["passed"] == (suite["failure_count"] == 0)
        if name == DELIBERATE_RED:
            # the path-shift law is false by design; its failures are expected
            ok = ok and suite["shift_law_holds"] is False
            failed = suite["interval_failure_count"]
        else:
            failed = suite["failure_count"]
        if failed:
            tally.failed += failed
            tally.problems.append(f"suite {name}: {failed} failures, first: {suite['failures'][:1]}")
    if not ok:
        tally.problems.append("verify report is inconsistent or the deliberate red changed shape")
    return ok


def verify_argv(seed: int, jobs: int, out: Path) -> list:
    return ["verify", "--all", "--seed", str(seed), "--jobs", str(jobs), "--out", str(out)]


def verify_subprocess(seed: int) -> tuple[float, float, float, int, str]:
    """One invocation. Returns its wall and CPU seconds, its host scale, its
    exit code and its report.

    The host scale is REFERENCE_PROBE_S over the mean of host probes taken
    every TICK_S while verify runs. They count this process's own CPU time,
    so that waiting for a processor that the pool workers hold does not
    count as a slow host."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"verify-seed{seed}.json"
    probes: list[float] = []
    cpu0 = children_cpu()
    t0 = time.perf_counter()
    done = run_child(
        [sys.executable, "-m", "dillab", *verify_argv(seed, VERIFY_JOBS, out)], VERIFY_TIMEOUT_S,
        tick=lambda: probes.append(host_probe(time.thread_time)),
    )
    wall = time.perf_counter() - t0
    cpu = children_cpu() - cpu0
    if done.returncode not in (0, 1):
        raise RuntimeError(f"verify exited {done.returncode}: {done.stderr.strip()}")
    scale = REFERENCE_PROBE_S / statistics.fmean(probes) if probes else 1.0
    return wall, cpu, scale, done.returncode, out.read_text()


def verify_untraced(seed: int) -> tuple[dict, Tally, dict, bool]:
    """One invocation in a fresh process: the run's one certificate is the
    report itself. Wall and CPU time are host-scaled."""
    wall, cpu, scale, code, text = verify_subprocess(seed)
    tally = Tally()
    ok = check_report(text, code, seed, tally)
    metrics = {
        "wall_s": wall * scale,
        "cert_p50_ms": 1000 * wall * scale,
        "cert_p95_ms": 1000 * wall * scale,
        "cpu_s": cpu * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    info = {
        "exit_code": code,
        "verify_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "unscaled_wall_s": wall,
        "host_scale": scale,
    }
    return metrics, tally, info, ok


def verify_in_process(seed: int, jobs: int, tracer) -> tuple[float, int, str]:
    from dillab import cli

    OUT.mkdir(exist_ok=True)
    out = OUT / f"verify-seed{seed}-traced-jobs{jobs}.json"
    tracer.install()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(verify_argv(seed, jobs, out))
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return wall, code, out.read_text()


def verify_traced(seed: int) -> tuple[dict, Tally, dict, bool]:
    """Untraced at --jobs 2 in a fresh process, then traced in-process at
    --jobs 2 (parent-side spans: suites, pool wait, cli) and at --jobs 1
    (kernel spans, which pool workers would otherwise keep to themselves)."""
    from tracing import Tracer

    wall_plain, _, _, code, text = verify_subprocess(seed)
    tally = Tally()
    ok = check_report(text, code, seed, tally)
    parent, kernels = Tracer(), Tracer()
    wall_j2, code_j2, text_j2 = verify_in_process(seed, VERIFY_JOBS, parent)
    _, code_j1, text_j1 = verify_in_process(seed, 1, kernels)
    if not (text == text_j2 == text_j1 and code == code_j2 == code_j1):
        ok = False
        tally.problems.append("traced or --jobs 1 report differs from the untraced --jobs 2 report")
    info = {
        "exit_code": code,
        "verify_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "untraced_wall_s": wall_plain,
        "traced_wall_s": wall_j2,
        "spans": write_spans(parent, "verify-jobs2", seed) + write_spans(kernels, "verify-jobs1", seed),
    }
    return layer_metrics(kernels, parent, wall_j2 - wall_plain), tally, info, ok


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def write_spans(tracer, tag: str, seed: int) -> int:
    OUT.mkdir(exist_ok=True)
    return tracer.write_spans(OUT / f"spans-{tag}-seed{seed}.tsv.gz")


def layer_metrics(kernels, parent, overhead: float) -> dict:
    """Values for PER_LAYER; suite, pool and cli spans come from `parent`."""
    out = {}
    for name, _ in PER_LAYER:
        prefix, stat = name.rsplit(".", 1)
        src = parent if prefix.startswith(("suites.", "cli.")) else kernels
        if name == "bench.trace_overhead_s":
            value = overhead
        elif name == "intmatrix.pf_enclosure.iterations":
            value = src.pf_iterations
        elif name == "intmatrix.pf_enclosure.width_met_frac":
            calls = src.calls.get(prefix, 0)
            value = src.pf_width_met / calls if calls else 0.0
        elif name == "enclosures.inth_root.max_bits":
            value = src.inth_max_bits
        elif stat == "calls":
            value = src.calls.get(prefix, 0)
        elif stat == "self_s":
            value = src.self_time.get(prefix, 0.0)
        else:  # busy_s, and wait_s: the parent's time inside parallel_map
            value = src.busy.get(prefix, 0.0)
        out[name] = value
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("perron", "roots", "oracle", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dillab" / "__init__.py").is_file():
        print(f"error: no dillab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start, probe_start = os.getloadavg(), host_probe()

    setup_times = [] if args.trace else measure_setup()
    import dillab

    dillab.log_enclosure(3)  # let lazy caches fill before anything is timed

    ok = True
    if args.workload == "verify":
        run = verify_traced if args.trace else verify_untraced
        metrics, tally, info, ok = run(args.seed)
    elif args.trace:
        metrics, tally, info = library_traced(args.workload, args.seed)
    else:
        metrics, tally, info = library_untraced(args.workload, args.seed, args.seconds)
    ok = ok and tally.wrong == 0
    if not args.trace:
        setup_times += measure_setup()
        metrics["setup_s"] = statistics.median(scaled for _, scaled in setup_times)
        info["setup_times_s"] = [raw for raw, _ in setup_times]

    units = dict(PER_LAYER if args.trace else END_TO_END)
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_frac {tally.failed / max(tally.attempted, 1):.6g} ratio ({tally.failed}/{tally.attempted})")
    info.update(
        workload=args.workload,
        seed=args.seed,
        src_lines=src_lines(),
        python=platform.python_version(),
        nproc=os.cpu_count(),
        loadavg_start=load_start,
        loadavg_end=os.getloadavg(),
        host_probe_s=[probe_start, host_probe()],
    )
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": ok,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
