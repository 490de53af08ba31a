"""Benchmark of subchan: Monte Carlo, the estimate-to-capacity pipeline and the transition matrix.

Usage (from the root of a checkout; the program is imported from ``src/``):

    python3 bench/run.py --workload mc_gf2 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Workloads (inputs derive from --seed; every call in a run repeats one input):

    mc_gf2          run_mc, q=2 T=4 h=2, rank_def (0.5, 0.3, 0.2), 10,000 draws
                    for each of the 35 inputs
    pipeline_gf4    empirical_capacity_pipeline, q=4 T=5 h=3, uniform
                    rank_def, 400,000 draws
    dmc_gf2         build_dmc, q=2 T=6 h=3, rank_def <from seed>, in a fresh
                    process per call (dmc_child.py), checked by the mutual
                    information of the uniform input against the closed form
    cli_verify_gf2  `python -m subchan.cli capacity --q 2 --T 6 --h 3
                    --rank-def <from seed> --verify --format json`, a fresh
                    process per call; not in BENCHMARK.json, because the
                    program fails its output check on many seeds (see
                    workloads.py)

The run is single-process apart from one child at a time (set-up probes, child
calls).  It calls the workload for --seconds (at least three calls), checks
every output, prints a detail line with the environment stamp, then as its
last line one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, measured without tracing:

    call_s        median wall time per call (for a fresh-process workload,
                  spawn to exit)
    uses_per_s    channel uses per second at the median call time; for a
                  fresh-process workload, calls per second
    setup_s       median over fresh processes of the time to get ready for the
                  first call: importing subchan, field tables, Grassmannian
                  enumeration and a small warm-up call (interpreter and numpy
                  start-up excluded)
    peak_rss_mb   peak resident memory of the process that ran the calls (for
                  a fresh-process workload, the median over the children)

Failed calls (an exception, a non-zero exit or a failed output check) are
counted in "failed"; a run with a failure is not "correct".

--trace 1 alternates untraced and traced calls and reports per-layer metrics
of one traced call (times are medians over the traced calls; counts must
repeat exactly from call to call), plus ``traced_call_s`` and
``tracing_overhead_s`` (the median over pairs of an untraced call and the
traced call after it of the traced minus the untraced time).  It
also checks that a traced call returns exactly what an untraced call returns,
that every wrapped attribute is restored, and that the rejection sampler's
acceptance for each matrix shape is within 6 sigma of the analytic value.
Spans are written to .bench_out/ when the run ends.  See tracing.py for the
layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
MIN_CALLS = 3
PROBE_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"call_s": "s", "uses_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "B-computed"
    if "acceptance" in name:
        return "ratio"
    return "count"


def load_program() -> None:
    """Import subchan from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import subchan
    except ImportError as exc:
        sys.exit(f"cannot import subchan from {SRC}: {exc}")
    if Path(subchan.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"subchan was imported from {subchan.__file__}, not from {SRC}")


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    from subchan import _kernels

    return {
        "backend": _kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


def probe_setup(name: str, seed: int, size: str) -> float:
    """Set-up time of the workload in a fresh process (see ``_setup_probe``)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--size", size, "--setup-probe"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout)


def _setup_probe(name: str, seed: int, size: str) -> float:
    """Seconds from a process with only the interpreter and numpy loaded to
    its being ready for the first call: importing subchan, field tables,
    Grassmannian enumeration and the workload's warm-up.  Interpreter and
    numpy start-up are left out: no change to the program moves them, and on
    a shared host they are the noisiest part of a fresh process."""
    import numpy  # noqa: F401

    start = time.perf_counter()
    load_program()
    _make(name, seed, size).setup()
    return time.perf_counter() - start


def _make(name: str, seed: int, size: str):
    import workloads

    sizes = {"full": workloads.FULL, "smoke": workloads.SMOKE}[size]
    return workloads.WORKLOADS[name](seed, sizes[name])


def _attempt(fn, failures: list[str]):
    """Call fn() -> (wall, output, problems) and record its problems.

    Returns (wall, output, ok), or None when the call raised.  A call whose
    output fails a check still completed, so its time is kept."""
    try:
        wall, out, problems = fn()
    except Exception as exc:  # a failed call is counted, and the run goes on
        traceback.print_exc()
        failures.append(f"{type(exc).__name__}: {exc}")
        return None
    failures.extend(problems)
    return wall, out, not problems


def _plain_call(wl):
    wall, out = wl.timed_call()
    return wall, out, wl.check(out)


def measure_untraced(wl, name: str, seed: int, seconds: float, size: str):
    setups = [probe_setup(name, seed, size) for _ in range(SETUP_REPEATS)]
    wl.setup()
    walls, failures = [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < MIN_CALLS or time.perf_counter() < deadline:
        attempted += 1
        done = _attempt(lambda: _plain_call(wl), failures)
        failed += done is None or not done[2]
        if done is not None:
            walls.append(done[0])
    if not walls:
        raise RuntimeError(f"every call raised: {failures[:3]}")
    call_s = statistics.median(walls)
    metrics = {
        "call_s": call_s,
        "uses_per_s": wl.uses_per_call / call_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    samples = {"call_s": walls, "setup_s": setups}
    return metrics, attempted, failed, failures, samples


def measure_traced(wl, name: str, seed: int, seconds: float):
    import tracing

    tracer = tracing.Tracer()
    with tracer.root("setup") as root:
        replaced = tracing.install(tracer)
        try:
            wl.setup()
        finally:
            tracing.uninstall(replaced)
    setup_layers = tracing.layer_metrics(tracer.trace_spans(root))
    failures = [f"not restored after tracing: {n}" for n in tracing.unrestored(replaced)]

    untraced, traced, overheads, per_call = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while attempted < 2 * MIN_CALLS or time.perf_counter() < deadline:
        attempted += 1
        plain = _attempt(lambda: _plain_call(wl), failures)
        failed += plain is None or not plain[2]
        if plain is None:
            continue
        untraced.append(plain[0])

        def traced_call():
            wall, out, spans, problems = wl.traced_call(tracer)
            problems = [f"traced call: {p}" for p in problems]
            layers = tracing.layer_metrics(spans)
            problems += wl.check(out) + tracing.rejection_outliers(layers)
            if wl.key(out) != wl.key(plain[1]):
                problems.append("traced call's output differs from the untraced call's")
            per_call.append(layers)
            return wall, out, problems

        attempted += 1
        done = _attempt(traced_call, failures)
        failed += done is None or not done[2]
        if done is not None:
            traced.append(done[0])
            overheads.append(done[0] - plain[0])
    if not traced:
        raise RuntimeError(f"every traced call raised: {failures[:3]}")
    metrics = {}
    for key in per_call[0]:
        values = [m[key] for m in per_call]
        if layer_unit(key) == "s":
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = values[0]
            if any(v != values[0] for v in values):
                failures.append(f"{key} differs between calls: {values}")
    metrics["grassmann.enumerate_grassmannian.setup_s"] = setup_layers["grassmann.enumerate_grassmannian.s"]
    metrics["grassmann.enumerate_grassmannian.setup_subspaces"] = setup_layers["grassmann.enumerate_grassmannian.subspaces"]
    metrics["traced_call_s"] = statistics.median(traced)
    # Each traced call runs right after an untraced one, so the median of the
    # pairwise differences cancels the slow drift of a shared machine's speed.
    metrics["tracing_overhead_s"] = statistics.median(overheads)
    samples = {"call_s": untraced, "traced_call_s": traced}
    spans_file = ROOT / ".bench_out" / f"{name}-seed{seed}.spans.json"
    spans_file.parent.mkdir(exist_ok=True)
    with open(spans_file, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(), "spans": tracer.spans}, fh)
    return metrics, attempted, failed, failures, samples


def run(name: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, dict]:
    """One benchmark run: (detail, result) as printed."""
    wl = _make(name, seed, size)
    if trace:
        metrics, attempted, failed, failures, samples = measure_traced(wl, name, seed, seconds)
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics, attempted, failed, failures, samples = measure_untraced(wl, name, seed, seconds, size)
        units = END_TO_END_UNITS
    detail = {
        "workload": name, "seed": seed, "trace": int(trace), "size": size,
        "environment": environment(), "samples": samples, "failures": list(dict.fromkeys(failures))[:20],
    }
    result = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return detail, result


def _detail_and_result(argv: list[str]) -> tuple[dict, dict]:
    proc = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT, timeout=170, check=True)
    detail, result = proc.stdout.decode().strip().splitlines()[-2:]
    return json.loads(detail), json.loads(result)


def smoke() -> int:
    """Run every workload at smoke size, untraced once and traced twice, in
    fresh processes.  Checks each result line's shape, that every metric
    BENCHMARK.json names is emitted with its unit, and that every per-layer
    count repeats exactly between the two traced runs of one seed."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    for workload in spec["workloads"]:
        name = workload["name"]
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", "1", "--seconds", "0", "--size", "smoke", "--trace"]
        traced = []
        for trace in (0, 1, 1):
            detail, result = _detail_and_result(argv + [str(trace)])
            tag = f"{name} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(
                    f"{tag}: correct={result['correct']}, {result['failed']} of "
                    f"{result['attempted']} calls failed: {detail['failures'][:1]}"
                )
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            if units != expected[trace]:
                diff = set(units.items()) ^ set(expected[trace].items())
                errors.append(f"{tag}: metrics differ from BENCHMARK.json: {sorted(diff)}")
            if trace:
                traced.append(result["metrics"])
        for key, metric in traced[0].items():
            if metric["unit"] != "s" and traced[1].get(key) != metric:
                errors.append(f"{name}: {key} = {metric} then {traced[1].get(key)}")
    for e in errors:
        print(e, file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} problem(s)")
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload at smoke size and check the output")
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if args.setup_probe:
        print(repr(_setup_probe(args.workload, args.seed, args.size)))
        return 0
    load_program()
    if args.smoke:
        return smoke()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
