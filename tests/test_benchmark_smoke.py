"""Smoke test of the benchmark's use of the package.

``perfbench/workloads.py`` binds package functions by name and builds
each workload's plan from package classes.  Loading it here, building the
three plans and running the first check of each kind makes a rename or
removal of anything the benchmark calls fail the test suite, not only a
benchmark run.  The benchmark files are loaded read-only, without writing
bytecode next to them.
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


def test_benchmark_plans_build_and_first_checks_pass(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = _load(monkeypatch, "tracing")
    workloads = _load(monkeypatch, "workloads")
    mods = SimpleNamespace(
        qfield=qfield, superpbw=superpbw, qboson=qboson,
        combicrystal=combicrystal, limitcrystal=limitcrystal, cli=cli,
    )
    tracer = tracing.NullTracer()
    F = workloads.bind(mods, tracer)
    plans = {
        "pbw-crosscheck": workloads.plan_pbw(mods, random.Random(1)),
        "boson-grid": workloads.plan_boson(mods, random.Random(1)),
        "crystal-sweep": workloads.plan_sweep(mods, random.Random(1), tmp_path),
    }
    for name, plan in plans.items():
        ctx = plan.start_pass(F, tracer)
        first = {}
        for kind, key, fn, args in plan.checks:
            first.setdefault(kind, (key, fn, args))
        for kind, (key, fn, args) in first.items():
            ok, out = fn(ctx, *args)
            assert ok, (name, kind, key, out)
