"""Checks for the rank-one boson tensor machinery.

The kernel vectors get their stated coefficients pinned and are verified
to die under the coupled raising action, with the kernel dimension per
degree confirmed against an independent rational specialization.  The
divided-power expansion is checked through the composition law and the
full congruence grid, the coefficient family against the expansion, its
closed form, valuation pattern, and recursion, and the crystal check
against a hand-solved two-by-two decomposition.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from supercrystal import qboson
from supercrystal.qboson import (
    BosonTensorVec,
    C_sk,
    E_t,
    _decompose,
    act_eprime,
    act_f_pow,
    boson_crystal_check,
    congruence_grid,
    min_degree,
)
from supercrystal.qfield import QRat, add_into, q_binom, q_int, row_reduce
from supercrystal.superpbw import PBWVector, RootData, f_divided, eprime

QP = QRat.q_power
Q1 = QRat.one()


def val(r: QRat, x: Fraction) -> Fraction:
    num = sum(c * x**k for k, c in enumerate(r.num))
    den = sum(c * x**k for k, c in enumerate(r.den))
    return Fraction(num, den)


def unit_residue(v: BosonTensorVec, target: tuple[int, int]) -> bool:
    if any(min_degree(c) < 0 for c in v.terms.values()):
        return False
    lead = v.terms.get(target, QRat.zero()) - Q1
    if lead and min_degree(lead) < 1:
        return False
    return all(min_degree(c) >= 1 for m, c in v.terms.items() if m != target)


def test_e_t_values():
    for l in range(7):
        assert E_t(l, 0) == BosonTensorVec.monomial(l, 0, 0)
    e11 = E_t(1, 1)
    assert e11.terms == {(0, 1): Q1, (1, 0): QP(1) / (QP(2) - Q1)}
    e22 = E_t(2, 2)
    assert e22.terms[(1, 1)] == QP(1) / (QP(4) - Q1)
    assert e22.terms[(2, 0)] == QP(1) / (QP(4) - Q1) * QP(1) / (QP(2) - Q1)
    for l in range(7):
        for t in range(l + 1):
            et = E_t(l, t)
            # a(t, i) = prod over j < i of q^(l-t+1) / (q^(2(l-j)) - 1)
            a = Q1
            for i in range(t + 1):
                if i:
                    a = a * QP(l - t + 1) / (QP(2 * (l - i + 1)) - Q1)
                assert et.terms[(i, t - i)] == a, (l, t, i)
            assert len(et.terms) == t + 1
            assert et.terms[(0, t)] == Q1
            assert all(min_degree(c) >= 1 for m, c in et.terms.items() if m != (0, t))
    with pytest.raises(ValueError):
        E_t(2, 3)
    with pytest.raises(ValueError):
        E_t(2, -1)
    with pytest.raises(ValueError):
        E_t(-1, 0)


def test_e_t_spans_kernel():
    for l in range(7):
        for t in range(l + 1):
            assert act_eprime(E_t(l, t)).is_zero(), (l, t)
    # kernel dimension per degree, confirmed at the specialization q = 7/5:
    # specializing can only enlarge the kernel, so dimension 1 there plus
    # one generic kernel vector pins the generic dimension
    x = Fraction(7, 5)
    for l in (0, 2, 5):
        for d in range(l + 3):
            monos = [(i, d - i) for i in range(min(l, d) + 1)]
            below = [(i, d - 1 - i) for i in range(min(l, d - 1) + 1)]
            rows = []
            for i, j in monos:
                img = act_eprime(BosonTensorVec.monomial(l, i, j))
                rows.append([val(img.terms[m], x) if m in img.terms else Fraction(0) for m in below])
            rank = 0
            for col in range(len(below)):
                piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
                if piv is None:
                    continue
                rows[rank], rows[piv] = rows[piv], rows[rank]
                for r in range(len(rows)):
                    if r != rank and rows[r][col]:
                        f = rows[r][col] / rows[rank][col]
                        rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
                rank += 1
            assert len(monos) - rank == (1 if d <= l else 0), (l, d)


def test_eprime_matches_pbw_derivation():
    # the right factor is the rank-one negative half, so the coupled
    # raising action at cutoff zero must reproduce the twisted derivation
    rd = RootData(2, 1)
    for b in range(1, 6):
        got = act_eprime(BosonTensorVec.monomial(0, 0, b))
        assert got == BosonTensorVec.monomial(0, 0, b - 1).scale(QP(1 - b))
        assert eprime(rd, 1, f_divided(rd, 1, b)) == f_divided(rd, 1, b - 1).scale(QP(1 - b))


def test_act_f_pow_small_values():
    assert act_f_pow(0, E_t(3, 2)) == E_t(3, 2)
    v = act_f_pow(1, BosonTensorVec.monomial(1, 0, 0))
    assert v.terms == {(1, 0): Q1, (0, 1): QP(1)}
    # saturated left factor: only the right-moving term survives
    for l in range(4):
        w = act_f_pow(1, BosonTensorVec.monomial(l, l, 0))
        assert w.terms == {(l, 1): QP(-l)}
    with pytest.raises(ValueError):
        act_f_pow(-1, E_t(1, 0))


def per_term_act_f_pow(s: int, v: BosonTensorVec) -> BosonTensorVec:
    """f^(s) v summed term by term, each term and partial sum reduced."""
    out: dict = {}
    for (a, b), c in v.terms.items():
        for i in range(s + 1):
            na, nb = a + s - i, b + i
            if na <= v.l:
                term = QP(i * (v.l - 2 * a) - i * (s - i)) * q_binom(na, a) * q_binom(nb, b)
                add_into(out, (na, nb), c * term)
    return BosonTensorVec(v.l, out)


def pairs(v: BosonTensorVec) -> dict:
    return {m: (c.num, c.den) for m, c in v.terms.items()}


def test_act_f_pow_over_one_denominator_matches_the_per_term_sum():
    # E_t's denominators form the divisor chain D_0 | D_1 | ... | D_t
    for l in range(7):
        for t in range(l + 1):
            e = E_t(l, t)
            for s in range(13):
                assert pairs(act_f_pow(s, e)) == pairs(per_term_act_f_pow(s, e)), (l, t, s)
    # denominators that are no divisor chain, so the common one grows
    rng = random.Random(20261019)
    scalars = [Q1 / q_int(3), QP(1) / (QP(4) - Q1), QRat.from_int(2) / (QP(2) + Q1), QP(-2)]
    for _ in range(40):
        l = rng.randint(0, 4)
        v = BosonTensorVec.zero(l)
        for c in rng.sample(scalars, 3):
            v = v + BosonTensorVec.monomial(l, rng.randint(0, l), rng.randint(0, 3)).scale(c)
        s = rng.randint(0, 5)
        assert pairs(act_f_pow(s, v)) == pairs(per_term_act_f_pow(s, v)), (l, s)
    # q r f v1 (x) v2 - r v1 (x) f v2 lowers to nothing at (1, 1)
    r = Q1 / q_int(3)
    v = BosonTensorVec(1, {(1, 0): QP(1) * r, (0, 1): -r})
    got = act_f_pow(1, v)
    assert got == per_term_act_f_pow(1, v) and set(got.terms) == {(0, 2)}


def test_act_f_pow_composition_law():
    rng = random.Random(20240821)
    for _ in range(40):
        l = rng.randint(0, 4)
        v = BosonTensorVec.zero(l)
        for _ in range(2):
            i = rng.randint(0, l)
            j = rng.randint(0, 3)
            v = v + BosonTensorVec.monomial(l, i, j).scale(QP(rng.randint(-3, 3)))
        s = rng.randint(0, 4)
        lhs = act_f_pow(1, act_f_pow(s, v))
        rhs = act_f_pow(s + 1, v).scale(q_int(s + 1))
        assert lhs == rhs, (l, s)


def test_lowering_congruences():
    for l in range(7):
        for t in range(l + 1):
            for s in range(11):
                v = act_f_pow(s, E_t(l, t))
                target = (s, t) if s <= l - t else (l - t, 2 * t + s - l)
                assert unit_residue(v, target), (l, t, s)
    grid = congruence_grid(6, 10)
    assert len(grid) == 308
    assert all(g["ok"] for g in grid)
    cases = {g["case"] for g in grid}
    assert cases == {1, 2}


def test_c_sk_expansion_and_valuations():
    rng = random.Random(20240821)
    for _ in range(25):
        l = rng.randint(0, 5)
        t = rng.randint(0, l)
        s = rng.randint(l - t + 1, l - t + 6)
        lhs = act_f_pow(s, E_t(l, t))
        rhs = BosonTensorVec.zero(l)
        for k in range(l + 1):
            rhs = rhs + BosonTensorVec.monomial(l, l - k, t + s - l + k).scale(C_sk(l, t, s, k))
        assert lhs == rhs, (l, t, s)
        # closed form of the bottom coefficient
        closed = QP(t * (s + t - l + 1))
        for r in range(1, t + 1):
            closed = closed / (QP(2 * r) - Q1)
        assert C_sk(l, t, s, 0) == closed
        for k in range(l + 1):
            want = 0 if k == t else (s + k - l) * (k - t) if k > t else (s + t + 1 - l) * (t - k)
            assert min_degree(C_sk(l, t, s, k)) == want, (l, t, s, k)


def per_term_c_sk(l: int, t: int, s: int, k: int) -> QRat:
    """C(s, k) summed term by term, each term and partial sum reduced."""
    out = QRat.zero()
    for i in range(max(0, l - s - k), min(t, l - k) + 1):
        a = Q1
        for j in range(i):
            a = a * QP(l - t + 1) / (QP(2 * (l - j)) - Q1)
        out = out + a * QP((k - i) * (i - l + s + k)) * q_binom(l - k, i) * q_binom(
            t - l + s + k, t - i
        )
    return out


def test_c_sk_over_one_denominator_matches_the_per_term_sum():
    for l in range(7):
        for t in range(l + 1):
            for s in range(11):
                for k in range(l + 1):
                    got, want = C_sk(l, t, s, k), per_term_c_sk(l, t, s, k)
                    assert (got.num, got.den) == (want.num, want.den), (l, t, s, k)


def test_c_sk_recursion():
    rng = random.Random(20240821)
    for _ in range(25):
        l = rng.randint(1, 5)
        t = rng.randint(0, l)
        s = rng.randint(l - t + 1, l - t + 5)
        for k in range(l):
            lhs = C_sk(l, t, s + 1, k) * q_int(s + 1)
            rhs = QP(2 * k - l) * q_int(t + s - l + k + 1) * C_sk(l, t, s, k) + q_int(l - k) * C_sk(
                l, t, s, k + 1
            )
            assert lhs == rhs, (l, t, s, k)
    with pytest.raises(ValueError):
        C_sk(2, 1, 3, 5)
    with pytest.raises(ValueError):
        C_sk(2, 3, 1, 0)


def test_decompose_refuses_a_dependent_family():
    # E_1 twice spans a line, and E_1 alone does not span the degree slice
    e, monos = E_t(2, 1), [(0, 1), (1, 0)]
    for family in ([e, e], [e]):
        with pytest.raises(AssertionError, match="not a basis"):
            _decompose(family, family, monos)


def test_checks_survive_python_dash_O():
    # python -O strips assert statements; the crystal check and the basis
    # refusal must still fail
    script = (
        "import sys\n"
        "from supercrystal import qboson\n"
        "assert False, 'asserts are live'\n"
        "qboson._rule_target = lambda l, i, j, d: (i, j)\n"
        "for call in (lambda: qboson.boson_crystal_check(2, 6),\n"
        "             lambda: qboson._decompose([qboson.E_t(2, 1)], [qboson.E_t(2, 1)],\n"
        "                                       [(0, 1), (1, 0)])):\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
        "    else:\n"
        "        print('passed')\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["(2, 0, 0, 0, 'f')", "kernel family is not a basis"]


def test_decompose_solves_each_degree_as_one_solve_per_monomial():
    for l in range(5):
        for d in range(7):
            monos = [(i, d - i) for i in range(min(l, d) + 1)]
            family = [act_f_pow(d - t, E_t(l, t)) for t in range(len(monos))]
            moved = [
                act_f_pow(d - t + 1, E_t(l, t))
                + (act_f_pow(d - t - 1, E_t(l, t)) if d > t else BosonTensorVec.zero(l))
                for t in range(len(monos))
            ]
            got = _decompose(family, moved, monos)
            for mono, image in zip(monos, got):
                rows = [
                    [member.terms.get(m, QRat.zero()) for member in family]
                    + [Q1 if m == mono else QRat.zero()]
                    for m in monos
                ]
                assert row_reduce(rows) == len(family)
                want = BosonTensorVec.zero(l)
                for row, v in zip(rows, moved):
                    want = want + v.scale(row[-1])
                assert image == want.terms, (l, d, mono)


def test_crystal_check_tests_the_e_side(monkeypatch):
    # a wrong e target alone must fail the check: the f and e images come
    # out of one elimination, and the e side must still be tested
    rule = qboson._rule_target
    monkeypatch.setattr(
        qboson, "_rule_target", lambda l, i, j, d: rule(l, i, j, d) if d == "f" else (i, j)
    )
    with pytest.raises(AssertionError) as exc:
        boson_crystal_check(2, 6)
    assert exc.value.args == ((2, 0, 0, 0, "e"),)


def test_boson_vectors_refuse_mixed_cutoffs_and_outside_monomials():
    with pytest.raises(ValueError):
        E_t(2, 1) + E_t(3, 1)
    for bad in ({(3, 0): Q1}, {(0, -1): Q1}, {(-1, 0): Q1}):
        with pytest.raises(ValueError):
            BosonTensorVec(2, bad)


def _pbw_case():
    rd = RootData(2, 2)
    u = PBWVector.generator(rd, 1) * PBWVector.generator(rd, 3)
    return PBWVector, rd, u + PBWVector.generator(rd, 2).scale(QP(-1))


def _boson_case():
    return BosonTensorVec, 2, E_t(2, 1) + BosonTensorVec.monomial(2, 2, 3)


@pytest.mark.parametrize("case", [_pbw_case, _boson_case], ids=["pbw", "boson"])
def test_vector_laws(case):
    cls, space, v = case()
    assert len(v.terms) > 1
    assert not (v - v) and (v - v).is_zero() and v - v == cls.zero(space)
    assert not v.scale(0) and v.scale(0) == cls.zero(space)
    assert v.scale(3) == v.scale(QRat.from_int(3)) == v + v + v
    assert -v == v.scale(-1) and v + (-v) == v - v
    w = cls(space, dict(reversed(list(v.terms.items()))))
    assert w is not v and w == v and hash(w) == hash(v)
    other = (_boson_case if cls is PBWVector else _pbw_case)()[2]
    assert v != other and other != v
    with pytest.raises(ValueError):
        v + other
    for number in (0, Q1):
        with pytest.raises(TypeError):
            v + number
        with pytest.raises(TypeError):
            v - number
        with pytest.raises(TypeError):
            number + v


def test_boson_crystal_check_reports():
    rep = boson_crystal_check(0, 5)
    assert rep["nodes"] == 6 and rep["rule_matched"] and rep["lattice_closed"]
    rep = boson_crystal_check(1, 4)
    assert rep["nodes"] == 9 and rep["edges"] == 18 and rep["kernel_basis_checked"]
    rep = boson_crystal_check(3, 6)
    assert rep["rule_matched"]
    with pytest.raises(ValueError):
        boson_crystal_check(7, 4)
    with pytest.raises(ValueError):
        boson_crystal_check(2, 11)
    with pytest.raises(ValueError):
        boson_crystal_check(-1, 4)


def test_string_decomposition_by_hand():
    # degree-one slice at cutoff one: solve the two-by-two system for
    # f v1 (x) v2 against the lowered kernel basis and push the strings
    w0 = act_f_pow(1, E_t(1, 0))
    w1 = E_t(1, 1)
    c0 = Q1 - QP(2)
    c1 = QP(3) - QP(1)
    assert w0.scale(c0) + w1.scale(c1) == BosonTensorVec.monomial(1, 1, 0)
    fvec = act_f_pow(2, E_t(1, 0)).scale(c0) + act_f_pow(1, E_t(1, 1)).scale(c1)
    assert unit_residue(fvec, (1, 1))
    evec = E_t(1, 0).scale(c0)
    assert unit_residue(evec, (0, 0))
