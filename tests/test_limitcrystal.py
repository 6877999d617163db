"""Checks for the limit crystal and the parabolic crystal.

The rank-(3,4) pins continue the worked element from the block-level tests:
the free triple, its parabolic variant, and the same data regarded over a
fixed dominant weight all get their operator values pinned, including the
routing disagreements between the three structures.  Exhaustive sweeps at
rank (2,2) cover the abstract crystal axioms, factorization round trips,
embedding coherence, the component census, and the two projections.  The
vanishing locus of the cut-down map is checked against an independent
oracle built from starred string lengths, and the algebra bridge transports
a small ball of triples through the triangular-basis residue map.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from supercrystal import limitcrystal
from supercrystal.cli import main
from supercrystal.combicrystal import (
    ZERO,
    HWElt,
    KacElt,
    LusztigMinus,
    LusztigPlus,
    OddSet,
    Triple,
    cartan,
    epsilon_star,
    from_json,
    hw_op,
    kac_highest,
    kac_op,
    lam_minus,
    lam_plus,
    lusztig_op,
    minus_roots,
    odd_subsets,
    oddset_eps,
    oddset_op,
    pair_op,
    plus_roots,
    to_json,
    triple_op,
)
from supercrystal.limitcrystal import (
    ENUMERATION_LIMIT,
    _block_vectors,
    _component_labeller,
    _count_upto,
    BInfElt,
    ProductElt,
    XElt,
    ample_weight,
    binf_eps,
    binf_highest,
    binf_op,
    binf_phi,
    binf_source,
    component_census,
    component_label,
    components,
    embed_dual,
    enumerate_binf,
    enumerate_x,
    hw_factorize,
    is_dominant,
    kac_elements,
    kac_size,
    kappa,
    kappa_inv,
    pbw_label,
    product_highest,
    product_op,
    project_plus,
    split_map,
    split_op,
    theta,
    x_highest,
    x_op,
)
from supercrystal.superpbw import (
    Root,
    RootData,
    Weight,
    crystal_e,
    crystal_f,
    lattice_residue,
    lattice_vector,
)

WS = OddSet.of(3, 4, [(3, 5), (3, 7), (2, 4), (2, 5), (2, 6), (1, 6)])
WPLUS = LusztigPlus.of(3, {(2, 3): 2, (1, 3): 1, (1, 2): 2})
WMINUS = LusztigMinus.of(
    3, 4, {(4, 5): 2, (4, 6): 1, (4, 7): 1, (5, 6): 1, (5, 7): 2, (6, 7): 1}
)
WLAM = Weight((6, 4, 1, 3, 2, 0, -4))
WB = BInfElt(WS, WPLUS, WMINUS)

LAM22 = Weight((1, 0, 1, 0))


def alpha(i: int, ell: int) -> Weight:
    c = [0] * ell
    c[i - 1], c[i] = 1, -1
    return Weight(tuple(c))


def raise_fully(op, ell: int, b):
    while True:
        for i in range(1, ell):
            up = op(i, "e", b)
            if up is not ZERO:
                b = up
                break
        else:
            return b


def test_binf_worked_example():
    assert WB.degree() == 39
    assert WB.weight() == WS.weight() + Weight(WPLUS.weight().coords + (0,) * 4) + WMINUS.weight()

    f3 = binf_op(3, "f", WB)
    assert f3 is not ZERO and f3.S.bits == WS.bits | {(3, 4)}
    assert f3.bplus == WPLUS and f3.bminus == WMINUS
    assert binf_op(3, "e", WB) is ZERO
    assert binf_op(3, "e", f3) == WB

    f1 = binf_op(1, "f", WB)
    assert f1.S.bits == (WS.bits - {(2, 4)}) | {(1, 4)}
    assert f1.bplus == WPLUS
    f11 = binf_op(1, "f", f1)
    assert f11.S == f1.S and f11.bplus.entry(1, 2) == 3

    f5 = binf_op(5, "f", WB)
    assert f5.S == WS and f5.bplus == WPLUS
    assert f5.bminus.entry(4, 5) == 1 and f5.bminus.entry(4, 6) == 2

    hi = binf_highest(3, 4)
    assert all(binf_op(i, "e", hi) is ZERO for i in range(1, 7))
    assert raise_fully(binf_op, 7, f3).degree() == binf_source(f3).degree()


def test_binf_axioms():
    m, n = 2, 2
    ell = m + n
    for b in enumerate_binf(m, n, 5):
        wt = b.weight()
        for i in range(1, ell):
            e, f = binf_op(i, "e", b), binf_op(i, "f", b)
            eps, phi = binf_eps(i, b), binf_phi(i, b)
            if i != m:
                assert phi == eps + cartan(wt, i, m)
            else:
                assert phi + eps in (0, 1)
            if e is not ZERO:
                assert e.weight() == wt + alpha(i, ell)
                assert binf_op(i, "f", e) == b
            if f is not ZERO:
                assert f.weight() == wt - alpha(i, ell)
                assert binf_op(i, "e", f) == b


def test_x_worked_example():
    bprime = XElt(WS, WPLUS, HWElt(WMINUS, lam_minus(WLAM, 3)), lam_plus(WLAM, 3))
    assert bprime.weight() == WB.weight() + WLAM

    # the minus block is truncated: at index 5 the routing tie sends the
    # operator to the odd subset instead of the free minus move
    f5 = x_op(5, "f", bprime)
    assert f5 is not ZERO
    assert f5.S.bits == (WS.bits - {(3, 5)}) | {(3, 6)}
    assert f5.bminus.base == WMINUS
    assert embed_dual(f5) != binf_op(5, "f", WB)

    # the plus block runs free: the second lowering steps into the block
    # exactly as in the limit crystal, with no truncation kill
    f1 = x_op(1, "f", bprime)
    assert f1.S.bits == (WS.bits - {(2, 4)}) | {(1, 4)}
    f11 = x_op(1, "f", f1)
    assert f11 is not ZERO and f11.bplus.entry(1, 2) == 3
    assert embed_dual(f11) == binf_op(1, "f", binf_op(1, "f", WB))

    # the same data regarded over WLAM: the plus block is truncated there
    bsecond = project_plus(bprime)
    assert bsecond == KacElt(
        WS, HWElt(WPLUS, lam_plus(WLAM, 3)), HWElt(WMINUS, lam_minus(WLAM, 3))
    )
    assert kac_op(1, "f", bsecond) is not ZERO
    assert kac_op(1, "f", kac_op(1, "f", bsecond)) is ZERO
    assert embed_dual(bprime) == WB


def test_x_connected():
    # with a trivial minus truncation every node raises to the highest; a
    # nontrivial one leaves raising-dead nodes below it, so connectedness
    # there needs mixed walks and is not checked by pure raising
    m, n = 2, 2
    ell = m + n
    for lam in (Weight((1, 0, 0, 0)), Weight((2, 1, 0, 0))):
        hi = x_highest(m, n, lam)
        for b in enumerate_x(m, n, lam, 4):
            assert raise_fully(x_op, ell, b) == hi

    stuck = XElt(
        OddSet.of(m, n, [(2, 4)]),
        LusztigPlus.zero(m),
        HWElt(LusztigMinus.zero(m, n), lam_minus(LAM22, m)),
        lam_plus(LAM22, m),
    )
    assert all(x_op(i, "e", stuck) is ZERO for i in range(1, ell))
    for b in enumerate_x(m, n, LAM22, 4):
        dead = raise_fully(x_op, ell, b)
        assert dead.bminus.base == LusztigMinus.zero(m, n)


def test_iota_embedding_respects_lowering():
    m, n = 2, 2
    ell = m + n

    def iota(k: KacElt) -> XElt:
        return XElt(k.S, k.bplus.base, k.bminus, k.bplus.shift)

    for k in kac_elements(m, n, LAM22):
        for i in range(1, ell):
            moved = kac_op(i, "f", k)
            if moved is not ZERO:
                assert x_op(i, "f", iota(k)) == iota(moved)


def test_kac_size_matches_enumeration():
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)):
        ell = m + n
        weights = [
            (0,) * ell,
            tuple(range(ell, 0, -1)),
            (2,) + (0,) * (ell - 1),
            (0,) * (ell - 1) + (-2,),
        ]
        for coords in weights:
            lam = Weight(coords)
            assert kac_size(m, n, lam) == len(kac_elements(m, n, lam)), (m, n, coords)


def test_kac_elements_refuses_beyond_limit():
    # 2^(mn) * 42 * 1000 members, far past the limit
    assert kac_size(3, 4, WLAM) > ENUMERATION_LIMIT
    with pytest.raises(ValueError):
        kac_elements(3, 4, WLAM)


def test_hw_factorize_trivial_and_exhaustive():
    m, n = 2, 2
    hi = kac_highest(m, n, LAM22)
    S0, xw, yw = hw_factorize(hi)
    assert S0.bits == frozenset() and xw == () and yw == ()

    for k in kac_elements(m, n, LAM22):
        S0, xw, yw = hw_factorize(k)
        plus = HWElt(LusztigPlus.zero(m), lam_plus(LAM22, m))
        for i in xw:
            plus = hw_op(i, "f", plus)
            assert plus is not ZERO
        pair = (S0, HWElt(LusztigMinus.zero(m, n), lam_minus(LAM22, m)))
        for j in yw:
            pair = pair_op(j, "f", *pair)
            assert pair is not ZERO
        assert KacElt(pair[0], plus, pair[1]) == k


def test_hw_factorize_word_robust():
    # greedy raising order does not matter: any raising path gives the same
    # dead pair and the same free replays
    m, n = 2, 2
    rng = random.Random(20240817)
    members = kac_elements(m, n, LAM22)
    for _ in range(200):
        k = rng.choice(members)
        S0, xw, yw = hw_factorize(k)
        S, minus = k.S, k.bminus
        word = []
        while True:
            options = []
            for j in range(m + 1, m + n):
                out = pair_op(j, "e", S, minus)
                if out is not ZERO:
                    options.append((j, out))
            if not options:
                break
            j, out = rng.choice(options)
            S, minus = out
            word.append(j)
        assert S == S0
        free = LusztigMinus.zero(m, n)
        for j in reversed(word):
            free = lusztig_op(j, "f", free)
        target = LusztigMinus.zero(m, n)
        for j in yw:
            target = lusztig_op(j, "f", target)
        assert free == target


def test_theta_validation_errors():
    hi = kac_highest(2, 2, LAM22)
    with pytest.raises(ValueError):
        theta(LAM22, LAM22, hi)
    with pytest.raises(ValueError):
        theta(LAM22, Weight((0, 1, 1, 0)), hi)
    with pytest.raises(ValueError):
        theta(Weight((2, 1, 2, 1)), Weight((3, 2, 3, 2)), hi)


def test_theta_transitivity_and_lowering():
    m, n = 2, 2
    ell = m + n
    lam, mu, nu = LAM22, Weight((2, 1, 2, 1)), Weight((3, 2, 3, 2))
    hi = kac_highest(m, n, lam)
    assert theta(lam, mu, hi) == kac_highest(m, n, mu)
    for k in kac_elements(m, n, lam):
        t = theta(lam, mu, k)
        assert theta(mu, nu, t) == theta(lam, nu, k)
        assert kappa(t) == kappa(k)
        assert t.weight() - k.weight() == mu - lam
        S0 = hw_factorize(k)[0]
        for i in range(1, ell):
            moved = kac_op(i, "f", k)
            if moved is ZERO:
                continue
            if i != m:
                assert theta(lam, mu, moved) == kac_op(i, "f", t)
            elif (m, m + 1) not in S0.bits:
                image = kac_op(i, "f", t)
                assert image is not ZERO
                assert theta(lam, mu, moved) == image


def test_theta_kills_odd_lowering_after_enlargement():
    # an instance where the odd operator survives at the small weight but
    # dies over every large enough enlargement
    m, n = 2, 2
    lam = Weight((1, 0, 0, 0))
    k = KacElt(
        OddSet.of(m, n, [(2, 4)]),
        HWElt(LusztigPlus.zero(m), lam_plus(lam, m)),
        HWElt(LusztigMinus.zero(m, n), lam_minus(lam, m)),
    )
    assert kac_op(2, "f", k) is not ZERO
    S0 = hw_factorize(k)[0]
    assert (2, 3) in S0.bits
    mu = Weight((1, 0, 0, 0)) + ample_weight(m, n, 6)
    assert kac_op(2, "f", theta(lam, mu, k)) is ZERO


def test_kappa_round_trips():
    m, n = 2, 2
    for lam in (LAM22, Weight((2, 1, 2, 0))):
        for k in kac_elements(m, n, lam):
            limit = kappa(k)
            assert kappa_inv(limit, lam) == k
            mu = lam + Weight((2, 1, 2, 1))
            assert kappa_inv(limit, mu) == theta(lam, mu, k)


def test_kappa_intertwines_operators():
    m, n = 2, 2
    ell = m + n
    seen_conditional = seen_killed = 0
    for k in kac_elements(m, n, LAM22):
        limit = kappa(k)
        for i in range(1, ell):
            for d in ("e", "f"):
                if i == m and d == "e":
                    continue
                moved = kac_op(i, d, k)
                if moved is ZERO:
                    continue
                if i != m:
                    assert kappa(moved) == binf_op(i, d, limit)
                elif (m, m + 1) not in limit.S.bits:
                    assert kappa(moved) == binf_op(i, d, limit)
                    seen_conditional += 1
                else:
                    assert binf_op(i, d, limit) is ZERO
                    seen_killed += 1
    assert seen_conditional and seen_killed


def test_kappa_inv_worked_example():
    # the class of the worked triple vanishes over WLAM: the dead pair at
    # the boundary column has no room at index 4
    assert kappa_inv(WB, WLAM) is ZERO

    big = ample_weight(3, 4, 20)
    cut = kappa_inv(WB, big)
    assert cut == KacElt(
        WS, HWElt(WPLUS, lam_plus(big, 3)), HWElt(WMINUS, lam_minus(big, 3))
    )
    assert kappa(cut) == WB

    with pytest.raises(ValueError):
        kappa_inv(WB, Weight((0, 1, 0, 0, 0, 0, 0)))

    # the same data regarded over WLAM is a different class: its factorization
    # moves three odd entries out of the boundary column
    bsecond = KacElt(
        WS, HWElt(WPLUS, lam_plus(WLAM, 3)), HWElt(WMINUS, lam_minus(WLAM, 3))
    )
    limit = kappa(bsecond)
    assert limit != WB
    assert limit.S.bits == frozenset(
        {(1, 4), (2, 4), (2, 5), (2, 6), (3, 4), (3, 7)}
    )
    assert limit.bplus == WPLUS
    assert limit.bminus.degree() == 16
    assert kappa_inv(limit, WLAM) == bsecond


def test_kappa_inv_vanishing_oracle():
    # independent characterization: the cut survives iff the plus data fits
    # the plus truncation and the starred string lengths of the minus data
    # fit the lowering room of the dead pair
    m, n = 2, 2
    ell = m + n

    def oracle(b: BInfElt, lam: Weight) -> bool:
        if not HWElt(b.bplus, lam_plus(lam, m)).is_member():
            return False
        lamm = lam_minus(lam, m)
        if any(oddset_eps(j, b.S) > cartan(lamm, j, m) for j in range(m + 1, ell)):
            return False
        for j in range(m + 1, ell):
            room, pair = 0, (b.S, HWElt(LusztigMinus.zero(m, n), lamm))
            while True:
                out = pair_op(j, "f", *pair)
                if out is ZERO:
                    break
                room, pair = room + 1, out
            if epsilon_star(j, b.bminus) > room:
                return False
        return True

    weights = [LAM22, Weight((1, 1, 0, 0)), Weight((2, 0, 1, 1)), Weight((2, 1, 3, 0))]
    for b in enumerate_binf(m, n, 4):
        for lam in weights:
            cut = kappa_inv(b, lam)
            assert (cut is not ZERO) == oracle(b, lam)
            if cut is not ZERO:
                assert kappa(cut) == b
                assert cut.weight() == b.weight() + lam


def test_split_map_intertwines():
    for m, n in ((2, 2), (2, 3), (3, 2)):
        pairs = [(a, b) for a in range(1, m + 1) for b in range(m + 1, m + n + 1)]
        for mask in product((0, 1), repeat=len(pairs)):
            S = OddSet(m, n, frozenset(p for p, on in zip(pairs, mask) if on))
            left, right = split_map(S)
            assert all(b == m + 1 for _, b in left.bits)
            assert all(b > m + 1 for _, b in right.bits)
            assert left.bits | right.bits == S.bits
            for i in range(1, m + 1):
                for d in ("e", "f"):
                    direct = oddset_op(i, d, S)
                    routed = split_op(i, d, (left, right))
                    if direct is ZERO:
                        assert routed is ZERO
                    else:
                        assert routed == split_map(direct)
    with pytest.raises(ValueError):
        split_op(3, "f", split_map(OddSet.empty(2, 2)))


def test_component_census_counts():
    for m, n in ((1, 2), (2, 2), (1, 3), (2, 3)):
        census = component_census(m, n)
        assert len(census) == 2 ** (m * (n - 1))
        for lab, src in census.items():
            assert src.bminus == LusztigMinus.zero(m, n)
            assert split_map(src.S)[0].bits == frozenset()
            assert component_label(src) == lab


def test_component_census_refuses_a_source_that_raises(monkeypatch):
    # a source one lowering below the constructed element, which then raises
    monkeypatch.setattr(limitcrystal, "binf_source", lambda b: binf_op(1, "f", b))
    with pytest.raises(AssertionError, match="constructed element fails to be raising-dead"):
        component_census(2, 2)


def test_component_census_refuses_a_label_off_its_subset(monkeypatch):
    # every source labelled by the empty subset: the second subset of Y
    # no longer round trips
    monkeypatch.setattr(limitcrystal, "_source_label", lambda src: OddSet.empty(2, 2))
    with pytest.raises(AssertionError, match="label round trip failed for a constructed element"):
        component_census(2, 2)


def test_memoised_labels_match_component_label():
    # in the order components asks: each element, then its neighbours, so
    # later walks stop on paths the memo already holds
    for m, n, cap in ((2, 2, 4), (3, 3, 2)):
        label = _component_labeller()
        for b in enumerate_binf(m, n, cap):
            near = [binf_op(i, d, b) for i in range(1, m + n) for d in ("f", "e")]
            for x in [b] + [x for x in near if x is not ZERO]:
                assert label(x) == component_label(x), (m, n, x)


def test_components_report():
    rep = components(2, 2, 5)
    assert rep["count"] == rep["expected"] == 4
    assert rep["isomorphism_checked"] is True
    assert rep["labels"] == [[], [[1, 4]], [[1, 4], [2, 4]], [[2, 4]]]

    rep = components(2, 1, 4)
    assert rep["count"] == 1 and rep["labels"] == [[]]

    rep = components(1, 2, 4)
    assert rep["count"] == 2 and rep["labels"] == [[], [[1, 3]]]

    with pytest.raises(ValueError):
        components(3, 4, 40)


def test_degree_counts_match_enumeration():
    for m in range(1, 4):
        for n in range(1, 4):
            odd = [b - a for a in range(1, m + 1) for b in range(m + 1, m + n + 1)]
            for cap in range(9):
                assert _count_upto(cap, odd, False) == len(odd_subsets(m, n, cap))
                for roots in (plus_roots(m), minus_roots(m, n)):
                    heights = [b - a for a, b in roots]
                    assert _count_upto(cap, heights, True) == len(_block_vectors(roots, cap))
                    brute = [
                        v for v in product(*(range(cap // h + 1) for h in heights))
                        if sum(c * h for c, h in zip(v, heights)) <= cap
                    ]
                    assert _block_vectors(roots, cap) == brute


def test_oversized_balls_refused_before_building(tmp_path, capsys):
    lam = Weight((2, 1, 0, 3, 2, 1, 0))
    requests = [
        lambda: components(3, 4, 40),
        lambda: enumerate_x(3, 4, lam, 40),
        # 29 odd subsets, one plus vector and 21241 minus vectors: only the
        # minus block carries this one over the limit
        lambda: enumerate_binf(1, 5, 12),
    ]
    for request in requests:
        start = time.monotonic()
        with pytest.raises(ValueError, match="^degree cap exceeded$"):
            request()
        # building the candidates first took seconds at this cap
        assert time.monotonic() - start < 2.0
    # counting by degree stops once a partial count passes the limit; over
    # every height of 780 even roots, or 1600 odd ones, it took 7-19 s on a
    # 2-vCPU host
    zeros = ",".join(["0"] * 41)
    for argv in (
        "--target binf --m 1 --n 40 --cap 199999",
        "--target binf --m 40 --n 1 --cap 199999",
        f"--target xlambda --m 40 --n 1 --cap 199999 --lambda {zeros}",
        "--target oddset --m 40 --n 40",
    ):
        out = tmp_path / "refused.json"
        start = time.monotonic()
        assert main(["graph", *argv.split(), "--out", str(out)]) == 2
        assert time.monotonic() - start < 1.0
        assert not out.exists()
        assert "exceed" in capsys.readouterr().err


def test_huge_caps_are_decided_without_a_list_as_long_as_the_cap():
    # a free block with a root has more than cap members, so these are over
    # the limit whatever the other blocks hold (about 16 MB to refuse before)
    for request in (lambda: enumerate_binf(1, 2, 10**6), lambda: components(1, 2, 10**6)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^degree cap exceeded$"):
                request()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    # rank (1,1) has no even roots: its one odd root caps the degree at 1
    assert len(enumerate_binf(1, 1, 10**9)) == 2


def test_project_plus_compatibility():
    m, n = 2, 2
    ell = m + n
    ball = enumerate_x(m, n, LAM22, 4)
    members = {k for k in kac_elements(m, n, LAM22) if kac_degree(k) <= 4}

    surviving = {}
    for b in ball:
        image = project_plus(b)
        if image is ZERO:
            assert not HWElt(b.bplus, b.shift).is_member()
            continue
        assert image.weight() == b.weight()
        surviving[b] = image
    assert set(surviving.values()) == members

    for b, image in surviving.items():
        for i in range(1, ell):
            for d in ("e", "f"):
                moved = x_op(i, d, b)
                lhs = project_plus(moved) if moved is not ZERO else ZERO
                rhs = kac_op(i, d, image)
                assert lhs == rhs or (lhs is ZERO and rhs is ZERO)

    # the lowering side needs no survival hypothesis
    for b in ball:
        image = project_plus(b)
        for i in range(1, ell):
            for d in ("e", "f"):
                if i < m and d == "e":
                    continue
                moved = x_op(i, d, b)
                lhs = project_plus(moved) if moved is not ZERO else ZERO
                rhs = kac_op(i, d, image) if image is not ZERO else ZERO
                assert lhs == rhs or (lhs is ZERO and rhs is ZERO)


def kac_degree(k: KacElt) -> int:
    return (
        sum(b - a for a, b in k.S.bits)
        + k.bplus.base.degree()
        + k.bminus.base.degree()
    )


def test_embed_dual_compatibility():
    m, n = 2, 2
    ell = m + n
    ball = enumerate_x(m, n, LAM22, 4)

    images = {}
    for b in ball:
        image = embed_dual(b)
        assert image.weight() == b.weight() - LAM22
        images[b] = image
    assert len(set(images.values())) == len(ball)
    expected = {
        b
        for b in enumerate_binf(m, n, 4)
        if HWElt(b.bminus, lam_minus(LAM22, m)).is_member()
    }
    assert set(images.values()) == expected

    for b, image in images.items():
        for i in range(1, m + 1):
            for d in ("e", "f"):
                moved = x_op(i, d, b)
                lhs = embed_dual(moved) if moved is not ZERO else ZERO
                rhs = binf_op(i, d, image)
                assert lhs == rhs or (lhs is ZERO and rhs is ZERO)

    # beyond the block boundary the two structures agree once the minus
    # truncation is far away
    big = ample_weight(m, n, 12)
    for b in enumerate_x(m, n, big, 3):
        image = embed_dual(b)
        for i in range(m + 1, ell):
            for d in ("e", "f"):
                moved = x_op(i, d, b)
                lhs = embed_dual(moved) if moved is not ZERO else ZERO
                rhs = binf_op(i, d, image)
                assert lhs == rhs or (lhs is ZERO and rhs is ZERO)


def full_label(rd: RootData, b: BInfElt) -> tuple[int, ...]:
    lab = [0] * rd.nroots
    for a, bb in b.S.bits:
        lab[rd.root_index[Root(a, bb)]] = 1
    for block in (b.bplus, b.bminus):
        for (a, bb), c in zip(block.roots(), block.mult):
            lab[rd.root_index[Root(a, bb)]] = c
    return tuple(lab)


def test_pbw_label_matches_the_oracle_and_is_injective():
    for m, n, cap in ((2, 2, 4), (1, 3, 4), (3, 2, 3)):
        rd = RootData(m, n)
        ball = enumerate_binf(m, n, cap)
        labels = [pbw_label(rd, b) for b in ball]
        assert labels == [full_label(rd, b) for b in ball]
        assert len(set(labels)) == len(ball)
        assert all(rd.monomial_height(lab) == b.degree() for lab, b in zip(labels, ball))


def test_binf_matches_algebra():
    cases = [(2, 1, 3, {1}), (1, 2, 3, {1, -1})]
    for m, n, cap, units in cases:
        rd = RootData(m, n)
        ell = m + n
        for b in enumerate_binf(m, n, cap):
            u = lattice_vector(rd, full_label(rd, b))
            for i in range(1, ell):
                for d, op in (("e", crystal_e), ("f", crystal_f)):
                    moved = binf_op(i, d, b)
                    ok, res = lattice_residue(rd, op(rd, i, u))
                    assert ok
                    if moved is ZERO:
                        assert res == {}
                    else:
                        lab = full_label(rd, moved)
                        assert set(res) == {lab}
                        assert res[lab] in units


# The per-kind weight and degree formulas each element class carried before
# the kinds shared one Triple base, kept here as the oracle for it.


def _pad(w: Weight, ell: int) -> Weight:
    return Weight(w.coords + (0,) * (ell - len(w.coords)))


def _oddset_degree(S: OddSet) -> int:
    return sum(b - a for a, b in S.bits)


def _hw_weight(h: HWElt) -> Weight:
    return _pad(h.base.weight(), len(h.shift.coords)) + h.shift


def oracle_weight(b) -> Weight:
    if isinstance(b, KacElt):
        return b.S.weight() + _hw_weight(b.bplus) + _hw_weight(b.bminus)
    if isinstance(b, ProductElt):
        ell = b.bminus.m + b.bminus.n
        return _pad(b.S.weight(), ell) + _pad(b.bplus.weight(), ell) + b.bminus.weight()
    ell = b.S.m + b.S.n
    if isinstance(b, XElt):
        return b.S.weight() + _pad(b.bplus.weight(), ell) + _hw_weight(b.bminus) + b.shift
    return b.S.weight() + _pad(b.bplus.weight(), ell) + b.bminus.weight()


def oracle_degree(b) -> int:
    if isinstance(b, KacElt):
        return _oddset_degree(b.S) + b.bplus.base.degree() + b.bminus.base.degree()
    if isinstance(b, XElt):
        return _oddset_degree(b.S) + b.bplus.degree() + b.bminus.base.degree()
    return _oddset_degree(b.S) + b.bplus.degree() + b.bminus.degree()


def product_ball(m: int, n: int, depth: int) -> set:
    seen = frontier = {product_highest(m, n)}
    for _ in range(depth):
        frontier = {
            down
            for b in frontier
            for i in range(1, m + n)
            if (down := product_op(i, "f", b)) is not ZERO
        } - seen
        seen = seen | frontier
    return seen


def four_kinds() -> list:
    kac = [
        k
        for lam in (LAM22, Weight((2, 1, 0, 0)), Weight((2, 0, 3, 1)))
        for k in kac_elements(2, 2, lam)
    ]
    return (
        enumerate_binf(2, 3, 4)
        + enumerate_x(2, 2, LAM22, 4)
        + kac
        + sorted(product_ball(2, 2, 4), key=repr)
    )


def test_triple_weight_and_degree_match_the_per_kind_formulas():
    elements = four_kinds()
    kinds = {type(b) for b in elements}
    assert kinds == {BInfElt, XElt, KacElt, ProductElt}
    assert all(isinstance(b, Triple) for b in elements)
    for b in elements:
        assert b.weight() == oracle_weight(b), b
        assert b.degree() == oracle_degree(b), b
    # the product model reaches past its highest element within four steps
    assert max(b.degree() for b in elements if isinstance(b, ProductElt)) == 4


def test_one_operator_for_every_kind():
    assert binf_op is x_op is kac_op is product_op is triple_op
    for b in four_kinds()[::7]:
        for i in range(1, len(b.weight().coords)):
            for d in ("e", "f"):
                moved = triple_op(i, d, b)
                assert moved is ZERO or type(moved) is type(b)
    # equal data, different kinds: never equal
    plain = BInfElt(WS, WPLUS, WMINUS)
    assert plain != ProductElt(WS, WPLUS, WMINUS)
    assert plain == BInfElt(WS, WPLUS, WMINUS) and hash(plain) == hash(WB)


def test_every_kind_round_trips_through_json():
    for b in four_kinds()[::5]:
        data = to_json(b)
        assert list(data) == ["kind", "S", "bplus", "bminus"] + (
            ["shift"] if isinstance(b, XElt) else []
        )
        assert from_json(data) == b


def test_from_json_refuses_blocks_of_another_kind():
    lam = Weight((2, 1, 1, 0))
    hw_plus = to_json(HWElt(LusztigPlus.zero(2), lam_plus(lam, 2)))
    hw_minus = to_json(HWElt(LusztigMinus.zero(2, 2), lam_minus(lam, 2)))
    free = to_json(binf_highest(2, 2))
    # free Lusztig data relabelled as a Kac element: it used to decode and
    # then lower without bound
    relabelled = dict(free, kind="kac")
    with pytest.raises(ValueError, match="hold blocks of another kind"):
        from_json(relabelled)
    kac = to_json(kac_highest(2, 2, lam))
    bad = [relabelled, dict(kac, bplus=free["bplus"]), dict(kac, bplus=hw_minus)]
    bad += [dict(kac, bminus=hw_plus), dict(kac, bplus=hw_minus, bminus=hw_plus)]
    for kind in ("binf", "product"):
        data = to_json(binf_highest(2, 2) if kind == "binf" else product_highest(2, 2))
        bad += [dict(data, bplus=hw_plus), dict(data, bminus=hw_minus)]
    xelt = to_json(x_highest(2, 2, lam))
    bad += [dict(xelt, bplus=hw_plus), dict(xelt, bminus=free["bminus"])]
    bad += [dict(xelt, shift=free["S"]), dict(free, S=list(lam.coords))]
    bad += [dict(hw_plus, base=free["S"]), dict(hw_plus, shift=free["bplus"])]
    for data in bad:
        with pytest.raises(ValueError, match="hold blocks of another kind"):
            from_json(data)
    # the well-formed originals still decode
    for data in (free, xelt, hw_plus, kac):
        assert to_json(from_json(data)) == data


def test_combicrystal_alone_decodes_every_kind():
    # every kind is defined in combicrystal: a process that imports only
    # combicrystal decodes them all, and limitcrystal is never imported
    elements = four_kinds()[::9]
    samples = [to_json(b) for b in elements]
    assert {d["kind"] for d in samples} == {"kac", "binf", "xelt", "product"}
    script = (
        "import json, sys\n"
        "from supercrystal.combicrystal import from_json, to_json\n"
        "assert 'supercrystal.limitcrystal' not in sys.modules\n"
        "data = json.load(sys.stdin)\n"
        "print(json.dumps([[type(e).__name__, to_json(e)] for e in map(from_json, data)]))\n"
        "assert 'supercrystal.limitcrystal' not in sys.modules\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], input=json.dumps(samples),
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    decoded = json.loads(done.stdout)
    assert [d for _, d in decoded] == samples
    assert [name for name, _ in decoded] == [type(b).__name__ for b in elements]


def test_census_size_refused_before_the_ball():
    # 2^(m(n-1)) = 2^18 labels at rank (3,7): refused from their count at
    # caps the ball alone would accept
    for cap in (0, 3):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^odd subsets exceed the enumeration limit$"):
            components(3, 7, cap)
        assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError, match="^odd subsets exceed the enumeration limit$"):
        odd_subsets(3, 6)
    # counted by degree: 2^18 subsets in all, but few of small degree
    assert len(odd_subsets(3, 6, 2)) == 4
