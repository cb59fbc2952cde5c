"""qglnm benchmark: run one workload, check every verdict, print metrics.

    python3 perfbench/run.py --workload dyson-exact --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's task list runs in passes until the time
budget is used, untraced, and the end-to-end metrics are printed:
``wall_s`` (first task to last verdict of a typical pass), ``setup_s``
(median over fresh processes that import qglnm and build the task list)
and ``peak_rss_mb``.  Times are corrected for host speed (see
``hostspeed.py``); the raw pass times are printed too.  With ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are
printed instead; the spans are written to ``.bench_trace/`` at the
checkout root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
tasks that raised or disagreed with their known answer; the error rate
is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import bootstrap
import hostspeed

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60


def run_pass(tasks, workloads, rec=None):
    """Run every task once; returns (raw seconds per task, host-corrected
    seconds per task, outcomes).  With a recorder each task is a root span."""
    raw, fixed, outcomes = [], [], []
    ref = hostspeed.loop_seconds()
    for task in tasks:
        start = perf_counter()
        if rec is None:
            outcomes.append(workloads.run_task(task))
        else:
            with rec.root(f"task:{task.name}"):
                outcomes.append(workloads.run_task(task))
        raw.append(perf_counter() - start)
        ref_after = hostspeed.loop_seconds()
        fixed.append(hostspeed.corrected(raw[-1], ref, ref_after))
        ref = ref_after
    return raw, fixed, outcomes


def pass_seconds(passes: list) -> float:
    """Wall time of a typical pass: each task's median time over the
    passes, summed.  A host slowdown that hits a task in fewer than half
    of the passes drops out."""
    return sum(statistics.median(ts) for ts in zip(*passes))


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes, after one unmeasured start
    that fills the bytecode cache."""
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           "--workload", workload, "--seed", str(seed)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S, cwd=bootstrap.ROOT)
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def untraced_run(tasks, workloads, seconds: float):
    """Start passes until the budget is spent (the last one may overrun it);
    returns the raw and the host-corrected task times of every pass."""
    raw, fixed, outcomes = [], [], []
    start = perf_counter()
    while not raw or perf_counter() - start < seconds:
        r, f, outs = run_pass(tasks, workloads)
        raw.append(r)
        fixed.append(f)
        outcomes += outs
    return raw, fixed, outcomes


def traced_run(tasks, workloads, tracing, seconds: float):
    """Alternate untraced and traced passes; returns the host-corrected
    task times of the untraced and of the traced passes, the raw traced
    pass times, the recorder of each traced pass and all outcomes."""
    plain, traced, traced_raw, recorders, outcomes = [], [], [], [], []
    start = perf_counter()
    while True:
        _, f, outs = run_pass(tasks, workloads)
        plain.append(f)
        outcomes += outs
        rec = tracing.Recorder()
        with tracing.instrument(rec):
            r, f, outs = run_pass(tasks, workloads, rec)
        traced.append(f)
        traced_raw.append(sum(r))
        recorders.append(rec)
        outcomes += outs
        # Start another pair only if one of typical length still fits.
        if perf_counter() - start + pass_seconds(plain) + pass_seconds(traced) > seconds:
            return plain, traced, traced_raw, recorders, outcomes


def counts_of(rec) -> dict:
    """Everything a traced pass counts, as opposed to times."""
    return {"calls": dict(rec.calls), "counters": dict(rec.counters)}


def layer_metrics(rec, traced_wall: float) -> dict:
    """Per-layer values of one traced pass (name -> (value, unit))."""
    calls, sec, self_s, ctr = rec.calls, rec.seconds, rec.self_seconds, rec.counters
    word_calls = calls["weyl.apply_word"]
    out = {}
    for name in ("coeff.exact_ops", "coeff.exact_eq", "coeff.scalar_build", "weyl.compile",
                 "verify.substitute", "analyze.linalg", "fock.enumerate_up_to"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (sec[name], "s")
    for name in ("coeff.laurent_mul", "coeff.bracket_value", "weyl.apply_word",
                 "weyl.apply_atom", "weyl.eval_diag", "weyl.apply_compiled",
                 "analyze.materialize", "cli.run"):
        out[f"{name}.calls"] = (calls[name], "count")
    for name in ("weyl.apply_compiled", "verify.verify_all", "analyze.materialize", "cli.run"):
        out[f"{name}.self_s"] = (self_s[name], "s")
    for name in ("presentation.build_relations", "realize.realization"):
        out[f"{name}.s"] = (sec[name], "s")
    out["coeff.laurent_terms_max"] = (ctr["coeff.laurent_terms_max"], "count")
    out["weyl.apply_word.nonzero_ratio"] = (
        ctr["weyl.apply_word.nonzero"] / word_calls if word_calls else 0.0, "ratio")
    out["verify.substitute.terms"] = (ctr["verify.substitute.terms"], "count")
    out["analyze.matrix_entries"] = (ctr["analyze.matrix_entries"], "count")
    out["fock.states"] = (ctr["fock.states"], "count")
    layers = rec.layer_self_seconds()
    for layer, s in layers.items():
        out[f"share.{layer}"] = (s / traced_wall, "ratio")
    out["share.untraced"] = (1.0 - sum(layers.values()) / traced_wall, "ratio")
    out["share.coeff.exact_eq"] = (self_s["coeff.exact_eq"] / traced_wall, "ratio")
    out["share.analyze.linalg"] = (self_s["analyze.linalg"] / traced_wall, "ratio")
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((bootstrap.SRC / "qglnm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (bootstrap.ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                          cwd=bootstrap.ROOT, timeout=30)
    return proc.stdout.strip() or None


def write_trace(args, recorders, plain, traced) -> Path:
    import numpy

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": bootstrap.BLAS_THREADS,
        "untraced_task_s": plain,
        "traced_task_s": traced,
    }
    passes = [{
        "calls": dict(rec.calls),
        "seconds": dict(rec.seconds),
        "self_seconds": dict(rec.self_seconds),
        "counters": dict(rec.counters),
        "spans": {"fields": ["id", "parent", "name", "start", "end"], "records": rec.records},
    } for rec in recorders]
    out_dir = bootstrap.ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"meta": meta, "passes": passes}))
    return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dyson-exact", "hp-numeric", "module-analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingSources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    tasks = workloads.build_tasks(args.workload, args.seed)
    metrics = {}
    if args.trace:
        plain, traced, traced_raw, recorders, outcomes = traced_run(
            tasks, workloads, tracing, args.seconds)
        # Counts must repeat exactly from pass to pass; a difference is
        # nondeterminism in the library and makes the run incorrect.
        deterministic = all(counts_of(r) == counts_of(recorders[0]) for r in recorders)
        # Span times are raw, so shares are taken of the raw pass time.
        per_pass = [layer_metrics(r, t) for r, t in zip(recorders, traced_raw)]
        for name, (_, unit) in per_pass[0].items():
            metrics[name] = (statistics.median(p[name][0] for p in per_pass), unit)
        metrics["trace.wall_s"] = (pass_seconds(traced), "s")
        metrics["trace.overhead_ratio"] = (pass_seconds(traced) / pass_seconds(plain), "ratio")
        path = write_trace(args, recorders, plain, traced)
        print(f"spans written to {path.relative_to(bootstrap.ROOT)}")
    else:
        setup = measure_setup(args.workload, args.seed)
        raw, fixed, outcomes = untraced_run(tasks, workloads, args.seconds)
        deterministic = True
        metrics["wall_s"] = (pass_seconds(fixed), "s")
        metrics["setup_s"] = (setup, "s")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
        print(f"passes: {len(raw)}; raw pass times (s): {[round(sum(t), 3) for t in raw]}; "
              f"raw wall_s {pass_seconds(raw):.4f}")

    failed = [o for o in outcomes if not o.ok]
    for o in failed:
        print(f"ERROR {o.task}: {o.error}", file=sys.stderr)
    if not deterministic:
        print("ERROR per-layer counts differ between traced passes", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {len(failed)}/{len(outcomes)} = {len(failed) / len(outcomes):.6g}")
    print(json.dumps({
        "correct": not failed and deterministic,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
