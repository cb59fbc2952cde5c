"""Tests of the benchmark itself (not collected by the library's suite):

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import bootstrap

bootstrap.prepare()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent

# Cheap tasks that together reach every traced layer.
SAMPLE = [
    (workloads.DYSON_EXACT, "cli verify mutation"),
    (workloads.MODULE_ANALYSIS, "invariance"),
    (workloads.MODULE_ANALYSIS, "unitarity (3,2) p=3"),
    (workloads.MODULE_ANALYSIS, "cyclicity (3,2) p=3"),
    (workloads.MODULE_ANALYSIS, "highest weight (3,2) p=3"),
    (workloads.MODULE_ANALYSIS, "quotient"),
    (workloads.MODULE_ANALYSIS, "deformed"),
]

_COUNT_SNIPPET = """
import json
import bootstrap
bootstrap.prepare()
import test_bench, tracing, run
rec = tracing.Recorder()
with tracing.instrument(rec):
    run.run_pass(test_bench.sample_tasks(), test_bench.workloads, rec)
print(json.dumps(run.counts_of(rec), sort_keys=True))
"""


def sample_tasks(seed=1):
    tasks = []
    for workload, prefix in SAMPLE:
        tasks += [t for t in workloads.build_tasks(workload, seed) if t.name.startswith(prefix)]
    return tasks


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS:
        names = [t.name for t in workloads.build_tasks(w, 7)]
        assert names == [t.name for t in workloads.build_tasks(w, 7)]
    hp = {t.name for t in workloads.build_tasks(workloads.HP_NUMERIC, 7)}
    assert hp != {t.name for t in workloads.build_tasks(workloads.HP_NUMERIC, 8)}


def test_traced_and_untraced_verdicts_identical():
    tasks = sample_tasks()
    *_, plain = run.run_pass(tasks, workloads)
    rec = tracing.Recorder()
    with tracing.instrument(rec):
        *_, traced = run.run_pass(tasks, workloads, rec)
    assert all(o.ok for o in plain), [o.error for o in plain if not o.ok]
    assert [(o.task, o.verdict) for o in plain] == [(o.task, o.verdict) for o in traced]
    for layer in ("presentation", "realize", "fock", "verify", "weyl", "coeff", "analyze", "cli"):
        assert any(name.startswith(layer + ".") for name in rec.calls), layer


def test_counts_repeat_across_traced_runs():
    """Two fresh processes with different string hashing count the same."""
    outs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run([sys.executable, "-c", _COUNT_SNIPPET], cwd=HERE, env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        outs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert outs[0] == outs[1]
    assert outs[0]["calls"]["coeff.laurent_mul"] > 0


def test_instrument_restores_every_function():
    def snapshot():
        owners = list(tracing.MODULES) + [tracing.numpy.linalg, tracing.weyl.Engine,
                                          tracing.coeff.CoeffExact, tracing.coeff.LaurentPoly]
        return [{k: id(v) for k, v in vars(o).items()} for o in owners]

    before = snapshot()
    rec = tracing.Recorder()
    try:
        with tracing.instrument(rec):
            assert snapshot() != before
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    assert snapshot() == before


def _fake(task, result):
    return workloads.Task(task.name, lambda: result, task.verdict, task.expected)


def test_wrong_answer_raises_error_rate():
    mutation = next(t for t in workloads.build_tasks(workloads.DYSON_EXACT, 1)
                    if t.name.startswith("cli verify mutation"))
    caught = "S6e[i=1]          fail          0                        state=(0,1,0,0) coeff=1*q^0"
    right = _fake(mutation, (1, caught))
    passing = _fake(mutation, (0, "all relations pass"))
    no_witness = _fake(mutation, (1, "S6e[i=1]          fail          0                        -"))

    def boom():
        raise ValueError("library raised")

    raising = workloads.Task("raises", boom, lambda r: r, None)
    *_, outcomes = run.run_pass([right, passing, no_witness, raising], workloads)
    assert [o.ok for o in outcomes] == [True, False, False, False]

    weight = next(t for t in workloads.build_tasks(workloads.MODULE_ANALYSIS, 1)
                  if t.name.startswith("highest weight"))
    assert not workloads.run_task(_fake(weight, (0,) * 5)).ok
