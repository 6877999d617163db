"""Smoke test of the benchmark's use of the package.

``perfbench/workloads.py`` binds package functions by name and builds
each workload's plan from package classes.  Loading it here, building the
three plans and running the first check of each kind makes a rename or
removal of anything the benchmark calls fail the test suite, not only a
benchmark run.  One whole boson-grid pass is also run and its digest
compared with the one the benchmark records, so a change to any result
on that route fails here too.  The benchmark files are loaded read-only,
without writing bytecode next to them.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

from supercrystal import cli, combicrystal, limitcrystal, qboson, qfield, superpbw

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


MODS = SimpleNamespace(
    qfield=qfield, superpbw=superpbw, qboson=qboson,
    combicrystal=combicrystal, limitcrystal=limitcrystal, cli=cli,
)


def _benchmark(monkeypatch):
    """The benchmark's tracing and workloads modules and its bound functions."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = _load(monkeypatch, "tracing")
    workloads = _load(monkeypatch, "workloads")
    tracer = tracing.NullTracer()
    return workloads, tracer, workloads.bind(MODS, tracer)


def test_benchmark_plans_build_and_first_checks_pass(monkeypatch, tmp_path):
    workloads, tracer, F = _benchmark(monkeypatch)
    plans = {
        "pbw-crosscheck": workloads.plan_pbw(MODS, random.Random(1)),
        "boson-grid": workloads.plan_boson(MODS, random.Random(1)),
        "crystal-sweep": workloads.plan_sweep(MODS, random.Random(1), tmp_path),
    }
    for name, plan in plans.items():
        ctx = plan.start_pass(F, tracer)
        first = {}
        for kind, key, fn, args in plan.checks:
            first.setdefault(kind, (key, fn, args))
        for kind, (key, fn, args) in first.items():
            ok, out = fn(ctx, *args)
            assert ok, (name, kind, key, out)


def test_boson_grid_pass_matches_its_digest(monkeypatch):
    workloads, tracer, F = _benchmark(monkeypatch)
    plan = workloads.plan_boson(MODS, random.Random(1))
    ctx = plan.start_pass(F, tracer)
    items = []
    for kind, key, fn, args in plan.checks:
        ok, out = fn(ctx, *args)
        assert ok, (kind, key, out)
        if key is not None:
            items.append((key, out))
    assert workloads.digest(items) == workloads.DIGESTS["boson-grid"]
