"""Checks for the command line entry point.

Everything goes through main() with an argv list, asserting on captured
stdout/stderr and exit codes.  Graph exports are pinned at sizes small
enough to count by hand (the two-element rank (1,1) crystal, the sixteen
node finite quotient at rank (2,2)), output determinism is checked by
running twice, and the verify command is driven through every suite plus
a forced failure to cover the nonzero exit path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from supercrystal import cli
from supercrystal.cli import cmd_components, cmd_graph, cmd_verify, main
from supercrystal.combicrystal import OddSet
from supercrystal.combicrystal import from_json as combi_from_json
from supercrystal.limitcrystal import enumerate_binf, enumerate_x
from supercrystal.superpbw import Weight


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_graph_oddset_rank_1_1(capsys):
    rc, out, err = run(capsys, ["graph", "--m", "1", "--n", "1", "--target", "oddset"])
    assert rc == 0 and err == ""
    graph = json.loads(out)
    assert graph["count"] == 2
    assert len(graph["edges"]) == 1
    assert graph["edges"][0]["i"] == 1
    ids = {node["id"] for node in graph["nodes"]}
    assert ids == {0, 1}
    assert graph["edges"][0]["source"] in ids


def test_graph_kac_rank_2_2_zero_weight(capsys):
    rc, out, _ = run(capsys, ["graph", "--m", "2", "--n", "2", "--target", "kac"])
    assert rc == 0
    graph = json.loads(out)
    assert graph["count"] == 16
    assert graph["lambda"] == [0, 0, 0, 0]
    # edge endpoints always name listed nodes
    for edge in graph["edges"]:
        assert 0 <= edge["source"] < 16 and 0 <= edge["target"] < 16
    # nodes come in canonical order, each with its own element and label
    keys = [cli._node_key(node["element"]) for node in graph["nodes"]]
    assert keys == sorted(keys)
    for node in graph["nodes"]:
        elt = combi_from_json(node["element"])
        assert cli._short(elt) == node["label"]
        assert list(elt.weight().coords) == node["weight"]


def test_graph_counts_match_enumerators(capsys):
    rc, out, _ = run(capsys, ["graph", "--m", "1", "--n", "2", "--target", "binf", "--cap", "3"])
    assert rc == 0
    assert json.loads(out)["count"] == len(enumerate_binf(1, 2, 3))
    lam = Weight((1, 1, 0))
    rc, out, _ = run(
        capsys,
        ["graph", "--m", "1", "--n", "2", "--target", "xlambda", "--cap", "3", "--lambda", "1,1,0"],
    )
    assert rc == 0
    assert json.loads(out)["count"] == len(enumerate_x(1, 2, lam, 3))


def test_graph_dot_output(capsys):
    rc, out, _ = run(
        capsys, ["graph", "--m", "1", "--n", "2", "--target", "oddset", "--format", "dot"]
    )
    assert rc == 0
    assert out.startswith('digraph "oddset_1_2" {')
    assert out.rstrip().endswith("}")
    # the odd index stands out, the even one comes from the palette
    assert 'color="#e41a1c", penwidth=2.0' in out
    assert 'color="#d95f02"' in out
    assert out.count(" -> ") == 3


def test_graph_is_deterministic(capsys):
    argv = ["graph", "--m", "2", "--n", "2", "--target", "kac"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_graph_out_file(tmp_path, capsys):
    path = tmp_path / "graph.json"
    rc, out, _ = run(
        capsys,
        ["graph", "--m", "1", "--n", "1", "--target", "oddset", "--out", str(path)],
    )
    assert rc == 0 and out == ""
    assert json.loads(path.read_text())["count"] == 2


def test_graph_cap_filters_oddset(capsys):
    rc, out, _ = run(
        capsys, ["graph", "--m", "2", "--n", "2", "--target", "oddset", "--cap", "1"]
    )
    assert rc == 0
    graph = json.loads(out)
    # the empty set plus the single degree-one box (2, 3)
    assert graph["count"] == 2


def test_components_text_and_json(capsys):
    rc, out, _ = run(capsys, ["components", "--m", "2", "--n", "2", "--cap", "3"])
    assert rc == 0
    assert "4 components (expected 4)" in out
    assert "isomorphism checked: true" in out
    rc, out, _ = run(capsys, ["components", "--m", "2", "--n", "1", "--format", "json"])
    assert rc == 0
    report = json.loads(out)
    assert report["count"] == report["expected"] == 1
    rc, out, _ = run(capsys, ["components", "--m", "1", "--n", "2", "--format", "json"])
    assert json.loads(out)["count"] == 2


def test_verify_single_suites_pass(capsys):
    for suite in ("qfield", "pbw", "components", "examples"):
        rc, out, _ = run(capsys, ["verify", "--suite", suite])
        assert rc == 0, suite
        assert "FAIL" not in out
        assert "checks passed" in out


def test_verify_all_json_report(capsys):
    rc, out, _ = run(capsys, ["verify", "--format", "json"])
    assert rc == 0
    report = json.loads(out)
    assert set(report["suites"]) == set(cli.VERIFY_SUITES)
    assert report["ok"] is True
    assert report["failures"] == 0
    assert report["checks"] == sum(len(v) for v in report["suites"].values())
    grid = report["suites"]["boson"][0]["grid"]
    assert len(grid) == 308
    assert all(entry["ok"] for entry in grid)


def test_verify_failure_exits_nonzero(capsys, monkeypatch):
    monkeypatch.setitem(
        cli._SUITE_RUNNERS, "qfield", lambda cfg: [{"name": "forced", "ok": False}]
    )
    rc, out, _ = run(capsys, ["verify", "--suite", "qfield"])
    assert rc == 1
    assert "FAIL [qfield] forced" in out
    assert "1 of 1 checks failed" in out


def test_verify_assertion_error_is_a_failure(capsys, monkeypatch):
    def broken(cfg):
        raise AssertionError("label round trip failed")

    monkeypatch.setitem(cli._SUITE_RUNNERS, "components", broken)
    rc, out, err = run(capsys, ["verify", "--suite", "components"])
    assert rc == 1 and err == ""
    assert "FAIL [components] raised AssertionError: label round trip failed" in out
    assert "1 of 1 checks failed" in out


def test_verify_names_the_first_broken_axiom(capsys, monkeypatch):
    real, empty = cli.oddset_op, OddSet.empty(1, 2)

    def broken(i, dir, S):
        # f_1 leaves the empty subset alone instead of adding the odd box
        return S if (i, dir, S) == (1, "f", empty) else real(i, dir, S)

    monkeypatch.setattr(cli, "oddset_op", broken)
    argv = ["verify", "--suite", "crystal-axioms", "--m", "1", "--n", "2"]
    want = "element {}, index 1, f: e(f(b)) = b fails"
    rc, out, _ = run(capsys, argv)
    assert rc == 1
    assert f"FAIL [crystal-axioms] odd subset axioms on all 4 subsets: {want}\n" in out
    assert out.count("PASS [crystal-axioms]") == 2
    rc, out, _ = run(capsys, argv + ["--format", "json"])
    items = json.loads(out)["suites"]["crystal-axioms"]
    assert rc == 1 and items[0]["ok"] is False
    assert items[0]["counterexample"] == want
    assert [sorted(item) for item in items[1:]] == [["name", "ok"]] * 2


def test_graph_kac_refuses_huge_weight(capsys):
    argv = ["graph", "--m", "2", "--n", "2", "--target", "kac", "--lambda", "100000,0,0,0"]
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ")


def test_graph_oddset_cap_counts_by_degree(capsys):
    # 2^20 subsets at rank (4,5), but only four of degree at most 2
    rc, out, err = run(
        capsys, ["graph", "--m", "4", "--n", "5", "--target", "oddset", "--cap", "2"]
    )
    assert rc == 0 and err == ""
    assert json.loads(out)["count"] == 4


def test_graph_oddset_refusal_names_the_limit(capsys):
    rc, out, err = run(capsys, ["graph", "--m", "4", "--n", "5", "--target", "oddset"])
    assert rc == 2 and out == ""
    assert err == "error: odd subsets exceed the enumeration limit\n"


def test_python_dash_m_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "supercrystal", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: supercrystal")


def test_usage_errors_exit_2(capsys):
    cases = [
        ["graph", "--m", "2", "--n", "2", "--target", "kac", "--lambda", "0,1,0,0"],
        ["graph", "--m", "2", "--n", "2", "--target", "kac", "--lambda", "1,0"],
        ["graph", "--m", "2", "--n", "2", "--target", "kac", "--lambda", "a,b,c,d"],
        ["graph", "--m", "2", "--n", "2", "--target", "binf"],
        ["graph", "--m", "1", "--n", "1", "--target", "oddset", "--format", "text"],
        ["components", "--format", "dot"],
        ["components", "--cap", "-1"],
        ["components", "--m", "0"],
        ["verify", "--format", "dot"],
    ]
    for argv in cases:
        rc, _, err = run(capsys, argv)
        assert rc == 2, argv
        assert err.startswith("error: "), argv


def test_argparse_rejections(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--m", "1", "--n", "1", "--target", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_cmd_functions_return_reports():
    cfg = cli.RunConfig(
        m=1, n=1, cap=None, lam=None, target="oddset", suite=None, fmt="json", out=None
    )
    graph = cmd_graph(cfg)
    assert graph["count"] == 2
    cfg = cli.RunConfig(
        m=2, n=2, cap=3, lam=None, target=None, suite="components", fmt="text", out=None
    )
    report = cmd_verify(cfg)
    assert report["ok"] and set(report["suites"]) == {"components"}
    census = cmd_components(cfg)
    assert census["count"] == 4
