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
import time
from hashlib import sha256
from pathlib import Path

import pytest

from supercrystal import cli
from supercrystal.cli import cmd_components, cmd_graph, cmd_verify, main
from supercrystal.combicrystal import ZERO, OddSet
from supercrystal.combicrystal import from_json as combi_from_json
from supercrystal.limitcrystal import enumerate_binf, enumerate_x, kac_elements
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


# sha256 of the stdout of ``graph`` for five invocations, pinned so that any
# change in the export encoding or in the crystals themselves shows here
GRAPH_DIGESTS = (
    (
        "--m 2 --n 2 --target binf --cap 4",
        "234c3aae1c88c40da4ae9156b727dd3b8de12547431dc16765664cad2c837bed",
    ),
    (
        "--m 2 --n 2 --target xlambda --cap 3 --lambda 2,1,0,0",
        "03bd05209df6a6bbe65320df161b6dd074f5d2bfe8e4f720478734444f568fc6",
    ),
    (
        "--m 2 --n 2 --target kac --lambda 1,0,1,0 --format dot",
        "57cc6c006763e2b5e04dd6bec0a7d08c8a97dd22481d932dd36e200ac5413de5",
    ),
    (
        "--m 2 --n 2 --target kac --lambda 1,0,1,0",
        "6718b8d966c8a186458218856ee369f2e6d0cda9bf939a2bf60fff91e2bbfabc",
    ),
    (
        "--m 2 --n 3 --target oddset --cap 3",
        "b1e5c4e0a34ceb1249c018163cbc99b2cf64073a1a4b7e0f8c1564886347801b",
    ),
)


@pytest.mark.parametrize("args,digest", GRAPH_DIGESTS)
def test_graph_output_bytes_are_pinned(capsys, args, digest):
    rc, out, err = run(capsys, ["graph", *args.split()])
    assert rc == 0 and err == ""
    assert sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of ``verify`` and ``components``, pinned in the same
# way: the report encodings, the check names and the census labels
REPORT_DIGESTS = (
    (
        "verify --suite examples --format json",
        "d8216618198e45e143adec9a06ed4ea3c192ab2c591343312e64de2163927f43",
    ),
    (
        "verify --suite kappa",
        "40bd21a22f1a980a3dbb3d8ab4deb78eba452c0e4a5ba0039eaefa94e129ac97",
    ),
    (
        "components --m 2 --n 2 --cap 3",
        "fb7bf600ae95ba3e2941971d2e879292f3adb63a95de82a53d0a952ce73e7de2",
    ),
    (
        "components --m 2 --n 2 --cap 3 --format json",
        "87671f6c71d29dbd68c7256b9a017b424ca4865487077e36d8e5b1a67f0b1cdd",
    ),
)


@pytest.mark.parametrize("args,digest", REPORT_DIGESTS)
def test_report_output_bytes_are_pinned(capsys, args, digest):
    rc, out, err = run(capsys, args.split())
    assert rc == 0 and err == ""
    assert sha256(out.encode()).hexdigest() == digest


def test_indented_writer_matches_json_dumps():
    def config(**kw):
        base = dict(m=2, n=2, cap=None, lam=None, target=None, suite=None, fmt="json", out=None)
        return cli.RunConfig(**{**base, **kw})

    values = [
        cmd_graph(config(target="binf", cap=3)),
        cmd_graph(config(target="xlambda", cap=3, lam=Weight((2, 1, 0, 0)))),
        cmd_graph(config(target="kac", lam=Weight((1, 0, 1, 0)))),
        cmd_graph(config(target="oddset", n=3, cap=3)),
        cmd_verify(config(suite="all", fmt="text")),
        cmd_components(config(cap=3)),
        {"a": [], "b": {}, "c": [[], {}, [{}]], "d": None, "e": True, "f": False,
         "g": "caf\u00e9 \u2203\"\\\n", "h": (1, -2, 10**30), "\u00e9": {"x": [None]}},
        [], {}, "", 0, None,
    ]
    for value in values:
        assert cli._dumps_indented(value) == json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        cli._dumps_indented({1: 2})
    with pytest.raises(TypeError):
        cli._dumps_indented([1.5])


def test_graph_out_file(tmp_path, capsys):
    path = tmp_path / "graph.json"
    rc, out, _ = run(
        capsys,
        ["graph", "--m", "1", "--n", "1", "--target", "oddset", "--out", str(path)],
    )
    assert rc == 0 and out == ""
    assert json.loads(path.read_text())["count"] == 2


@pytest.mark.parametrize("where", ["missing/graph.json", "."])
def test_unwritable_out_file_is_a_usage_error(tmp_path, capsys, where):
    path = tmp_path / where
    argv = ["graph", "--m", "1", "--n", "1", "--target", "oddset", "--out", str(path)]
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == ""
    assert err.startswith(f"error: cannot write --out {path}: ") and err.count("\n") == 1


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


def test_verify_boson_names_the_failing_cell_and_valuation(capsys, monkeypatch):
    real_grid, real_c = cli.congruence_grid, cli.C_sk

    def broken_grid(max_l, max_s):
        grid = real_grid(max_l, max_s)
        for entry in grid:
            if (entry["l"], entry["t"], entry["s"]) == (2, 1, 3):
                entry["ok"] = False
        return grid

    def broken_c(l, t, s, k):
        c = real_c(l, t, s, k)
        return c * cli._QP(1) if (l, t, s, k) == (1, 0, 2, 1) else c

    monkeypatch.setattr(cli, "congruence_grid", broken_grid)
    monkeypatch.setattr(cli, "C_sk", broken_c)
    rc, out, _ = run(capsys, ["verify", "--suite", "boson", "--format", "json"])
    items = json.loads(out)["suites"]["boson"]
    assert rc == 1 and [item["ok"] for item in items] == [False, True, False, False, True]
    assert items[0]["counterexample"] == (
        "cell (l, t, s) = (2, 1, 3): f^(s) E_t is not the case 2 monomial"
        " modulo q times the lattice"
    )
    assert items[2]["counterexample"] == "(l, t, s, k) = (1, 0, 2, 1): expected degree 2, found 3"
    assert items[3]["counterexample"] == (
        "(l, t, s, k) = (1, 0, 2, 1): f^(s) E_t has q^2, C(s, k) q^3"
    )

    # a vanishing coefficient has no degree, and is reported rather than raised
    monkeypatch.setattr(cli, "C_sk", lambda l, t, s, k: cli.QRat.zero())

    def broken_check(l, depth):
        raise AssertionError((2, 3, 1, 2, "f"))

    real_raise, survivor = cli.act_eprime, cli.E_t(3, 2)

    def broken_raise(v):
        return cli.E_t(v.l, 0) if v == survivor else real_raise(v)

    monkeypatch.setattr(cli, "boson_crystal_check", broken_check)
    monkeypatch.setattr(cli, "act_eprime", broken_raise)
    rc, out, err = run(capsys, ["verify", "--suite", "boson"])
    assert rc == 1 and err == ""
    assert (
        "FAIL [boson] kernel vectors die under the coupled raising action:"
        " (l, t) = (3, 2): the raising action does not kill E_t\n"
    ) in out
    assert (
        "FAIL [boson] coefficient family valuations (l <= 4): (l, t, s, k) = (0, 0, 1, 0):"
        " expected degree 0, found none (the coefficient is zero)\n"
    ) in out
    assert (
        "FAIL [boson] f^(s) E_t expands over C(s, k) (l <= 4): (l, t, s, k) = (0, 0, 1, 0):"
        " f^(s) E_t has 1, C(s, k) 0\n"
    ) in out
    assert (
        "FAIL [boson] string decomposition induces the signature rule (l=2, depth 6):"
        " first failed assertion: (2, 3, 1, 2, 'f')\n"
    ) in out


def test_verify_kappa_names_the_element_and_law(capsys, monkeypatch):
    members = kac_elements(2, 2, Weight((1, 0, 1, 0)))
    lost = members[3]
    lowered = next(k for k in members if cli.kac_op(1, "f", k) is not ZERO)
    real_inv, real_binf = cli.kappa_inv, cli.binf_op
    lost_b, lowered_b = cli.kappa(lost), cli.kappa(lowered)

    def broken_inv(b, lam):
        return members[0] if b == lost_b else real_inv(b, lam)

    def broken_binf(i, dir, b):
        return ZERO if (i, dir, b) == (1, "f", lowered_b) else real_binf(i, dir, b)

    monkeypatch.setattr(cli, "kappa_inv", broken_inv)
    monkeypatch.setattr(cli, "binf_op", broken_binf)
    rc, out, _ = run(capsys, ["verify", "--suite", "kappa", "--format", "json"])
    items = json.loads(out)["suites"]["kappa"]
    assert rc == 1 and [item["ok"] for item in items] == [False, True, True, False]
    assert items[0]["counterexample"] == (
        f"element {cli._short(lost)}: kappa_inv(kappa(b)) = b fails"
    )
    assert items[3]["counterexample"] == (
        f"element {cli._short(lowered)}, index 1, f: kappa(f_i b) = f_i kappa(b) fails"
    )


def test_verify_qfield_checks_arithmetic_against_full_products(capsys, monkeypatch):
    rc, out, _ = run(capsys, ["verify", "--suite", "qfield"])
    assert rc == 0
    assert "PASS [qfield] + - * / on 120 seeded cyclotomic-shaped pairs" in out
    real = cli.full_product_reference

    def off_by_one(op, x, y):
        want = real(op, x, y)
        return want + 1 if op == "*" else want

    monkeypatch.setattr(cli, "full_product_reference", off_by_one)
    rc, out, _ = run(capsys, ["verify", "--suite", "qfield", "--format", "json"])
    item = json.loads(out)["suites"]["qfield"][2]
    assert rc == 1 and item["ok"] is False
    assert " * (" in item["counterexample"] and ": expected " in item["counterexample"]


def test_verify_qfield_covers_long_and_accidental_factor_pairs(capsys, monkeypatch):
    rc, out, _ = run(capsys, ["verify", "--suite", "qfield", "--format", "json"])
    items = json.loads(out)["suites"]["qfield"]
    assert rc == 0 and [item["ok"] for item in items] == [True] * 5
    assert "long cyclotomic-shaped pairs (16-80 coefficients)" in items[3]["name"]
    assert "1 + q^2 + ... + q^8, q^12 - 1" in items[4]["name"]
    for x, y in cli._cyclotomic_pairs(cli.LONG_PAIRS, 20261020, long=True):
        assert all(16 <= len(side) <= 80 for side in (x.num, x.den, y.num, y.den))

    # a reference that disagrees on quotients of longer values fails both
    # items and names the quotient
    real = cli.full_product_reference

    def off_by_q(op, x, y):
        want = real(op, x, y)
        return want * cli._QP(1) if op == "/" and len(x.num) + len(x.den) > 12 else want

    monkeypatch.setattr(cli, "full_product_reference", off_by_q)
    rc, out, _ = run(capsys, ["verify", "--suite", "qfield", "--format", "json"])
    items = json.loads(out)["suites"]["qfield"]
    assert rc == 1 and items[3]["ok"] is False and items[4]["ok"] is False
    for item in items[3:]:
        assert " / (" in item["counterexample"] and ": expected " in item["counterexample"]


def test_verify_pbw_names_each_counterexample(capsys, monkeypatch):
    real_nf, real_sigma = cli.normal_form, cli.sigma_0n
    real_f, real_to_json = cli.crystal_f, cli.pbw_to_json
    disagreed = []

    def broken_nf(rd, word, coefficient=1, strategy="latest"):
        # rightmost straightening loses every word of length two at rank (2,1)
        u = real_nf(rd, word, coefficient, strategy)
        if strategy == "rightmost" and (rd.m, rd.n) == (2, 1) and len(word) == 2:
            disagreed.append(list(word))
            return cli.PBWVector.unit(rd)
        return u

    def broken_sigma(rd, u):
        # the swap is right, but applying it twice does not give u back
        v = real_sigma(rd, u)
        return v if v != real_nf(rd, [2, 3]) else cli.PBWVector.unit(rd)

    def broken_f(rd, i, u):
        if (rd.m, rd.n, i) == (2, 1, 1) and u == cli.f_divided(rd, 1, 2):
            return cli.PBWVector.unit(rd)
        return real_f(rd, i, u)

    def broken_to_json(u):
        data = real_to_json(u)
        if (u.rd.m, u.rd.n) == (2, 1) and u == real_nf(u.rd, [1, 2]):
            data[0]["coeff"] = str(cli.QRat.parse(data[0]["coeff"]) + 1)
        return data

    monkeypatch.setattr(cli, "normal_form", broken_nf)
    monkeypatch.setattr(cli, "sigma_0n", broken_sigma)
    monkeypatch.setattr(cli, "crystal_f", broken_f)
    monkeypatch.setattr(cli, "pbw_to_json", broken_to_json)
    rc, out, _ = run(capsys, ["verify", "--suite", "pbw", "--format", "json"])
    items = json.loads(out)["suites"]["pbw"]
    assert rc == 1 and [item["ok"] for item in items] == [False] * 4 + [True]
    assert items[0]["counterexample"] == (
        f"rank (2,1), word {disagreed[0]}: strategies latest and rightmost give"
        " different normal forms"
    )
    assert items[1]["counterexample"] == (
        "rank (1,3), word [2, 3]: sigma_0n(sigma_0n(u)) = u fails"
    )
    assert items[2]["counterexample"] == "rank (2,1), index 1: f_i(f_i^(2)) = f_i^(3) fails"
    u = real_nf(cli.RootData(2, 1), [1, 2])
    assert items[3]["counterexample"] == (
        f"rank (2,1), word [1, 2]: {u} does not survive the JSON round trip"
    )

    # a swap that forgets its sign breaks the first law
    monkeypatch.setattr(cli, "sigma_0n", lambda rd, u: u)
    rc, out, _ = run(capsys, ["verify", "--suite", "pbw"])
    assert rc == 1
    assert (
        "FAIL [pbw] odd block involution: swap picks up -q and squares to one:"
        " rank (1,3), word [2, 3]: sigma_0n(f_2 f_3) = -q f_3 f_2 fails\n"
    ) in out


def test_verify_pbw_names_the_first_operator_off_the_string_recursion(capsys, monkeypatch):
    real_e = cli.crystal_e

    def broken_e(rd, i, u):
        # raising along the last index at rank (1,3) doubles its result
        v = real_e(rd, i, u)
        return v.scale(2) if (rd.m, rd.n, i) == (1, 3, 3) else v

    monkeypatch.setattr(cli, "crystal_e", broken_e)
    rc, out, _ = run(capsys, ["verify", "--suite", "pbw", "--format", "json"])
    items = json.loads(out)["suites"]["pbw"]
    assert rc == 1 and [item["ok"] for item in items] == [True] * 4 + [False]
    assert items[4]["name"].startswith("crystal operators match the string recursion")
    # the first monomial of the ball that raises along index 3 is f_3
    assert items[4]["counterexample"] == (
        "rank (1,3), label (0, 0, 0, 0, 0, 1), index 3, e: off the recursion"
    )


def test_verify_pbw_checks_same_weight_sums(capsys, monkeypatch):
    real_f = cli.crystal_f

    def broken_f(rd, i, u):
        # lowering forgets the second term of every two-term vector
        if len(u.terms) == 2:
            first = min(u.terms)
            u = cli.PBWVector(rd, {first: u.terms[first]})
        return real_f(rd, i, u)

    monkeypatch.setattr(cli, "crystal_f", broken_f)
    rc, out, _ = run(capsys, ["verify", "--suite", "pbw", "--format", "json"])
    items = json.loads(out)["suites"]["pbw"]
    assert rc == 1 and [item["ok"] for item in items] == [True] * 4 + [False]
    found = items[4]["counterexample"]
    assert found.startswith("rank (2,2), sum (") and found.endswith(": off the recursion")
    assert f" + ({cli.QRat.q_power(1) - cli.QRat.q_power(-2)}) (" in found


def test_verify_crosscheck_passes(capsys):
    rc, out, _ = run(capsys, ["verify", "--suite", "crosscheck"])
    assert rc == 0
    assert out == (
        "PASS [crosscheck] lattice residues of crystal_e/crystal_f match binf_op on (2,2)"
        " cap 4\nall 1 checks passed\n"
    )
    argv = ["verify", "--suite", "crosscheck", "--m", "1", "--n", "3", "--cap", "3"]
    rc, out, _ = run(capsys, argv + ["--format", "json"])
    items = json.loads(out)["suites"]["crosscheck"]
    assert rc == 0 and items == [
        {
            "name": "lattice residues of crystal_e/crystal_f match binf_op on (1,3) cap 3",
            "ok": True,
        }
    ]


@pytest.mark.parametrize(
    "m,n,cap",
    [(2, 1, 22), (2, 3, 10), (40, 40, 4), (1000000, 1, 3), (1, 1, 10**9), (6, 6, 1), (7, 7, 1)],
)
def test_verify_crosscheck_refuses_oversized_work_at_once(capsys, monkeypatch, m, n, cap):
    def unbuilt(*args):
        raise AssertionError("a lattice vector was built before the refusal")

    monkeypatch.setattr(cli, "lattice_vector", unbuilt)
    monkeypatch.setattr(cli, "enumerate_binf", unbuilt)
    argv = ["verify", "--suite", "crosscheck", "--m", str(m), "--n", str(n), "--cap", str(cap)]
    start = time.perf_counter()
    rc, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 0.5
    assert rc == 2 and out == ""
    assert err.startswith(f"error: crosscheck at ({m},{n}) cap {cap} weighs ")
    assert err.endswith(f"checks times cap squared, over the limit {cli.CROSSCHECK_LIMIT}\n")


def test_verify_crosscheck_names_the_first_failure(capsys, monkeypatch):
    real_f, real_e = cli.crystal_f, cli.crystal_e
    rd = cli.RootData(2, 2)
    ball = enumerate_binf(2, 2, 4)
    unit, f1 = ball[0], cli.binf_op(1, "f", ball[0])

    def broken_f(rd, i, u):
        # lowering the unit along index 1 lands in q times the lattice
        v = real_f(rd, i, u)
        return v.scale(cli.QRat.q_power(1)) if i == 1 and u == cli.PBWVector.unit(rd) else v

    monkeypatch.setattr(cli, "crystal_f", broken_f)
    rc, out, _ = run(capsys, ["verify", "--suite", "crosscheck", "--format", "json"])
    item = json.loads(out)["suites"]["crosscheck"][0]
    assert rc == 1 and item["ok"] is False
    assert item["counterexample"] == (
        f"element {cli._short(unit)}, index 1, f: expected +-1 times "
        f"{cli.pbw_label(rd, f1)}, found {{}}"
    )

    def broken_e(rd, i, u):
        # raising f_1 along index 1 picks up a pole at q = 0
        v = real_e(rd, i, u)
        if i == 1 and u == cli.PBWVector.generator(rd, 1):
            return v.scale(cli.QRat.q_power(-1))
        return v

    monkeypatch.setattr(cli, "crystal_f", real_f)
    monkeypatch.setattr(cli, "crystal_e", broken_e)
    rc, out, _ = run(capsys, ["verify", "--suite", "crosscheck"])
    assert rc == 1
    assert out.startswith(
        "FAIL [crosscheck] lattice residues of crystal_e/crystal_f match binf_op on (2,2) cap 4:"
        f" element {cli._short(f1)}, index 1, e: expected +-1 times {cli.pbw_label(rd, unit)},"
        " found a coefficient with a pole at q = 0\n"
    )


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


def test_components_refuses_an_oversized_census_at_once(capsys):
    # 2^(m(n-1)) = 2^18 component labels at rank (3,7), over the limit
    start = time.perf_counter()
    rc, out, err = run(capsys, ["components", "--m", "3", "--n", "7", "--cap", "0"])
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert err.startswith("error: ")


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
