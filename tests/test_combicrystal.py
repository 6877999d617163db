"""Checks for the combinatorial crystal layer.

Two hand-pinned elements at rank (3, 4) exercise every routing branch of the
operators, including the tie cases and the truncation kill.  Exhaustive
sweeps at small sizes check the abstract crystal axioms, the two-family
commutation, and the bicrystal partition against dimension counts.  The
bridge tests transport the block operators through the triangular-basis
residue map of the algebra layer, and the starred string lengths are checked
against an independent oracle built from the word-reversal antiautomorphism.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from supercrystal.combicrystal import (
    ENUMERATION_LIMIT,
    ZERO,
    BInfElt,
    HWElt,
    KacElt,
    LusztigMinus,
    LusztigPlus,
    OddSet,
    ProductElt,
    XElt,
    _block_pairing,
    _column_mask,
    _letters,
    _lusztig_scan,
    _oddset,
    _reduce,
    bicrystal_decompose,
    cartan,
    epsilon_star,
    from_json,
    hw_op,
    kac_highest,
    kac_op,
    lam_minus,
    lam_plus,
    lusztig_eps,
    lusztig_op,
    lusztig_phi,
    lusztig_star_op,
    minus_roots,
    odd_subsets,
    oddset_eps,
    oddset_op,
    oddset_phi,
    pair_op,
    plus_roots,
    to_json,
)
from supercrystal.superpbw import (
    PBWVector,
    Root,
    RootData,
    Weight,
    crystal_e,
    crystal_f,
    in_lattice,
    lattice_residue,
    lattice_vector,
    normal_form,
)

from free_oracle import free_of_pbw

RD31 = RootData(3, 1)
RD13 = RootData(1, 3)

# The worked rank-(3,4) element used throughout: odd subset plus one
# multiplicity array per even block.
WS = OddSet.of(3, 4, [(3, 5), (3, 7), (2, 4), (2, 5), (2, 6), (1, 6)])
WPLUS = LusztigPlus.of(3, {(2, 3): 2, (1, 3): 1, (1, 2): 2})
WMINUS = LusztigMinus.of(
    3, 4, {(4, 5): 2, (4, 6): 1, (4, 7): 1, (5, 6): 1, (5, 7): 2, (6, 7): 1}
)
WLAM = Weight((6, 4, 1, 3, 2, 0, -4))


def alpha(i: int, ell: int) -> Weight:
    c = [0] * ell
    c[i - 1], c[i] = 1, -1
    return Weight(tuple(c))


def all_oddsets(m: int, n: int) -> list[OddSet]:
    pairs = [(a, b) for a in range(1, m + 1) for b in range(m + 1, m + n + 1)]
    return [
        OddSet(m, n, frozenset(p for p, on in zip(pairs, mask) if on))
        for mask in product((0, 1), repeat=len(pairs))
    ]


def block_labels(roots: list[tuple[int, int]], max_deg: int) -> list[tuple[int, ...]]:
    heights = [b - a for a, b in roots]
    out: list[tuple[int, ...]] = []

    def rec(pos: int, left: int, acc: list[int]) -> None:
        if pos == len(roots):
            out.append(tuple(acc))
            return
        for c in range(left // heights[pos] + 1):
            rec(pos + 1, left - c * heights[pos], acc + [c])

    rec(0, max_deg, [])
    return out


def pbw_label(rd: RootData, b: LusztigPlus | LusztigMinus) -> tuple[int, ...]:
    lab = [0] * rd.nroots
    for (a, bb), c in zip(b.roots(), b.mult):
        lab[rd.root_index[Root(a, bb)]] = c
    return tuple(lab)


def star_transport(rd: RootData, v: PBWVector) -> PBWVector:
    """The word-reversal antiautomorphism, computed through free expansions."""
    out = PBWVector.zero(rd)
    for word, c in free_of_pbw(v).items():
        out = out + normal_form(rd, tuple(reversed(word)), coefficient=c)
    return out


def residue_string_length(rd: RootData, i: int, v: PBWVector) -> int:
    """How many raising steps keep a nonzero residue class."""
    k, cur = 0, v
    while True:
        cur = crystal_e(rd, i, cur)
        if cur.is_zero():
            return k
        ok, res = lattice_residue(rd, cur)
        assert ok
        if not res:
            return k
        k += 1


def string_length(op, i: int, dir: str, b) -> int:
    k = 0
    while True:
        b = op(i, dir, b)
        if b is ZERO:
            return k
        k += 1


# -- element basics ------------------------------------------------------------


def test_oddset_basics():
    S = OddSet.empty(2, 2)
    assert S.weight() == Weight((0, 0, 0, 0))
    assert WS.weight() == Weight((-1, -3, -2, 1, 2, 2, 1))
    assert WS.matrix() == ((0, 0, 1, 0), (1, 1, 1, 0), (0, 1, 0, 1))
    with pytest.raises(ValueError):
        OddSet.of(2, 2, [(3, 4)])
    # the raw constructor checks too: a mask would alias these onto real boxes
    for entry in [(3, 4), (0, 3), (1, 2), (2, 5)]:
        with pytest.raises(ValueError):
            OddSet(2, 2, frozenset({entry}))
    with pytest.raises(ValueError):
        LusztigPlus.of(2, {(2, 3): 1})
    with pytest.raises(ValueError):
        LusztigMinus.of(2, 2, {(1, 2): 1})


def ref_oddset_signature(m, n, bits, i):
    """Surviving + and - moves of the signature rule, read off the entries."""
    seq = []
    if i < m:
        for b in range(m + 1, m + n + 1):
            if (i + 1, b) in bits:
                seq.append(("+", ((i + 1, b), (i, b))))
            if (i, b) in bits:
                seq.append(("-", ((i, b), (i + 1, b))))
    else:
        for a in range(1, m + 1):
            if (a, i) in bits:
                seq.append(("+", ((a, i), (a, i + 1))))
            if (a, i + 1) in bits:
                seq.append(("-", ((a, i + 1), (a, i))))
    plus, minus = [], []
    for sign, move in seq:
        if sign == "+":
            plus.append(move)
        elif plus:
            plus.pop()
        else:
            minus.append(move)
    return plus, minus


def ref_oddset_op(m, n, bits, i, d):
    """The operator on a frozenset of entries; None stands for ZERO."""
    if i == m:
        on = (m, m + 1) in bits
        if on == (d == "f"):
            return None
        return bits ^ {(m, m + 1)}
    plus, minus = ref_oddset_signature(m, n, bits, i)
    moves = plus[:1] if d == "f" else minus[-1:]
    if not moves:
        return None
    src, dst = moves[0]
    return bits - {src} | {dst}


def test_oddset_mask_matches_frozenset_reference():
    rng = random.Random(20261018)
    ranks = [(m, n) for m in range(1, 17) for n in range(1, 17) if m * n <= 16]
    for m, n in ranks:
        ell = m + n
        boxes = [(a, b) for a in range(1, m + 1) for b in range(m + 1, ell + 1)]
        samples = [frozenset(), frozenset(boxes)]
        samples += [frozenset(p for p in boxes if rng.random() < 0.5) for _ in range(12)]
        for bits in samples:
            S = OddSet(m, n, set(bits))
            assert S.bits == bits
            coords = [0] * ell
            for a, b in bits:
                coords[a - 1] -= 1
                coords[b - 1] += 1
            assert S.weight() == Weight(tuple(coords))
            assert S.matrix() == tuple(
                tuple(int((a, b) in bits) for b in range(m + 1, ell + 1))
                for a in range(1, m + 1)
            )
            for i in range(1, ell):
                plus, minus = ref_oddset_signature(m, n, bits, i)
                on = int((m, m + 1) in bits)
                assert oddset_eps(i, S) == (on if i == m else len(minus))
                assert oddset_phi(i, S) == (1 - on if i == m else len(plus))
                for d in ("e", "f"):
                    want = ref_oddset_op(m, n, bits, i, d)
                    got = oddset_op(i, d, S)
                    if want is None:
                        assert got is ZERO, (m, n, sorted(bits), i, d)
                        continue
                    # the operator's result and the same set built from
                    # entries are one value: equal, with equal hashes
                    rebuilt = OddSet(m, n, want)
                    assert got.bits == want and got == rebuilt
                    assert hash(got) == hash(rebuilt)


def test_oddset_memo_matches_a_memo_free_scan():
    # every subset at (2,3) and (3,2), 300 seeded ones at (4,4) and (2,8);
    # the readers run in a shuffled order, so each memo fills in its own order
    rng = random.Random(20261020)
    for m, n in ((2, 3), (3, 2), (4, 4), (2, 8)):
        ell = m + n
        boxes = [(a, b) for a in range(1, m + 1) for b in range(m + 1, ell + 1)]
        if m * n <= 6:
            subsets = all_oddsets(m, n)
        else:
            subsets = [
                OddSet(m, n, frozenset(p for p in boxes if rng.random() < 0.5))
                for _ in range(300)
            ]
        for S in subsets:
            bits = S.bits
            reads = [(i, r) for i in range(1, ell) for r in ("eps", "phi", "e", "f")]
            rng.shuffle(reads)
            for i, r in reads:
                plus, minus = ref_oddset_signature(m, n, bits, i)
                on = int((m, m + 1) in bits)
                if r == "eps":
                    assert oddset_eps(i, S) == (on if i == m else len(minus))
                elif r == "phi":
                    assert oddset_phi(i, S) == (1 - on if i == m else len(plus))
                else:
                    want = ref_oddset_op(m, n, bits, i, r)
                    got = oddset_op(i, r, S)
                    assert got is ZERO if want is None else got.bits == want
            coords = [0] * ell
            for a, b in bits:
                coords[a - 1] -= 1
                coords[b - 1] += 1
            assert S.weight() == Weight(tuple(coords)) and S.weight() is S.weight()
            # a filled memo never answers an index outside 1 .. m+n-1
            for i in (-1, 0, ell):
                with pytest.raises(ValueError):
                    oddset_eps(i, S)
            # a moved element starts with an empty memo, and moving back
            # gives S again, whose scans its own memo repeats
            for i in range(1, ell):
                for d, back in (("f", "e"), ("e", "f")):
                    T = oddset_op(i, d, S)
                    if T is ZERO:
                        continue
                    assert T._scans is None and T._weight is None
                    U = oddset_op(i, back, T)
                    assert U == S and U._scans is None
                    assert [oddset_op(j, d, U) for j in range(1, ell)] == [
                        oddset_op(j, d, S) for j in range(1, ell)
                    ]
                    assert U._scans == S._scans
    fresh = _oddset(2, 3, 0b101)
    assert fresh._scans is None and fresh._weight is None


def test_odd_subsets_product_order():
    for m, n in ((1, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
        full = all_oddsets(m, n)
        assert odd_subsets(m, n) == full
        for cap in range(6):
            assert odd_subsets(m, n, cap) == [
                S for S in full if sum(b - a for a, b in S.bits) <= cap
            ]
    boxes = [(1, 4), (2, 3), (1, 3)]
    assert [S.bits for S in odd_subsets(2, 2, boxes=boxes)] == [
        frozenset(p for p, on in zip(boxes, mask) if on)
        for mask in product((0, 1), repeat=3)
    ]


def ref_reduce(up: int, down: int) -> tuple[int, int, int, int]:
    """The stack scan on lists: bit k of up is a + and of down a -, read
    from bit 0 up with the + first; a - pops the last open +."""
    pluses: list[int] = []
    minuses: list[int] = []
    for k in range(max(up.bit_length(), down.bit_length())):
        if up >> k & 1:
            pluses.append(1 << k)
        if down >> k & 1:
            if pluses:
                pluses.pop()
            else:
                minuses.append(1 << k)
    return len(pluses), len(minuses), pluses[0] if pluses else 0, minuses[-1] if minuses else 0


def test_reduce_matches_a_list_stack_scan():
    # every pair of row lanes up to 6 bits, then every pair of column lanes
    # of a (6,2) subset, whose letters sit on every second bit
    rows = range(1 << 6)
    column = _column_mask(6, 2)
    columns = [w for w in range(column + 1) if w & ~column == 0]
    assert len(columns) == 1 << 6
    for words in (rows, columns):
        for up, down in product(words, repeat=2):
            assert _reduce(up, down) == ref_reduce(up, down), (up, down)


def ref_lusztig_scan(b, i: int, star: bool):
    """The signature of a block read copy by copy: (plus, eps, first, last)."""
    pluses: list[tuple] = []
    minuses: list[tuple] = []
    for letter in _letters(b._rank(), i, star):
        for _ in range(b.mult[letter[1]]):
            if letter[0] > 0:
                pluses.append(letter)
            elif pluses:
                pluses.pop()
            else:
                minuses.append(letter)
    return len(pluses), len(minuses), pluses[0] if pluses else None, minuses[-1] if minuses else None


def test_block_scans_and_pairings_match_the_weight():
    # every block of the degree ball (2,3) cap 5, the m|0 and the 0|n
    m, n = 2, 3
    blocks = [(LusztigPlus(m, t), range(1, m)) for t in block_labels(plus_roots(m), 5)]
    blocks += [(LusztigMinus(m, n, t), range(m + 1, m + n)) for t in block_labels(minus_roots(m, n), 5)]
    for b, indices in blocks:
        for i in indices:
            assert _block_pairing(b, i) == cartan(b.weight(), i, m)
            for star in (False, True):
                assert _lusztig_scan(b, i, star)[:4] == ref_lusztig_scan(b, i, star)


def test_block_weights_and_degrees():
    assert WPLUS.weight() == Weight((-3, 0, 3))
    assert WPLUS.degree() == 6
    assert WMINUS.weight() == Weight((0, 0, 0, -4, -1, 1, 4))
    assert WMINUS.degree() == 13


def test_oddset_op_rank_one():
    S = OddSet.empty(1, 1)
    moved = oddset_op(1, "f", S)
    assert moved.bits == frozenset({(1, 2)})
    assert oddset_op(1, "f", moved) is ZERO
    assert oddset_op(1, "e", S) is ZERO
    assert oddset_op(1, "e", moved) == S


def test_worked_odd_index():
    moved = oddset_op(3, "f", WS)
    assert moved.bits == WS.bits | {(3, 4)}
    assert oddset_op(3, "e", WS) is ZERO
    assert oddset_op(3, "e", moved) == WS
    assert oddset_eps(3, WS) == 0 and oddset_phi(3, WS) == 1


def test_worked_lower_route():
    assert oddset_phi(1, WS) == 2 and oddset_eps(1, WS) == 0
    assert lusztig_eps(1, WPLUS) == 1

    out1 = pair_op(1, "f", WS, WPLUS)
    S1 = OddSet(3, 4, WS.bits - {(2, 4)} | {(1, 4)})
    assert out1 == (S1, WPLUS)
    assert oddset_phi(1, S1) == 1

    out2 = pair_op(1, "f", S1, WPLUS)
    assert out2 == (S1, LusztigPlus.of(3, {(2, 3): 2, (1, 3): 1, (1, 2): 3}))

    back = pair_op(1, "e", S1, WPLUS)
    assert back == (WS, WPLUS)


def test_worked_upper_on_minus_alone():
    moved = lusztig_op(5, "f", WMINUS)
    assert moved == LusztigMinus.of(
        3, 4, {(4, 5): 1, (4, 6): 2, (4, 7): 1, (5, 6): 1, (5, 7): 2, (6, 7): 1}
    )
    assert lusztig_op(5, "e", moved) == WMINUS
    assert lusztig_eps(5, WMINUS) == 1


def test_worked_epsilon_star():
    assert [epsilon_star(i, WMINUS) for i in (4, 5, 6)] == [1, 2, 1]
    assert [epsilon_star(i, WPLUS) for i in (1, 2)] == [2, 1]
    assert epsilon_star(1, lusztig_op(1, "f", WPLUS)) == 3


def test_worked_hw_membership_and_phi():
    hw_minus = HWElt(WMINUS, lam_minus(WLAM, 3))
    assert hw_minus.is_member()
    assert hw_minus.eps(5) == 1
    assert hw_minus.phi(5) == 1
    hw_plus = HWElt(WPLUS, lam_plus(WLAM, 3))
    assert hw_plus.is_member()
    bumped = HWElt(lusztig_op(1, "f", WPLUS), hw_plus.shift)
    assert epsilon_star(1, bumped.base) == 3
    assert not bumped.is_member()


def test_worked_upper_route_tie():
    hw_minus = HWElt(WMINUS, lam_minus(WLAM, 3))
    assert oddset_eps(5, WS) == 1 and oddset_phi(5, WS) == 1

    out = pair_op(5, "f", WS, hw_minus)
    S_moved = OddSet(3, 4, WS.bits - {(3, 5)} | {(3, 6)})
    assert out == (S_moved, hw_minus)
    assert out[0] != lusztig_op(5, "f", WMINUS)

    back = pair_op(5, "e", WS, hw_minus)
    assert back == (WS, HWElt(lusztig_op(5, "e", WMINUS), hw_minus.shift))


def ref_pair_op(i: int, dir: str, S: OddSet, b):
    """The tensor product rule on S (x) b, from each factor's public eps/phi.

    Below m the lower rule compares phi of S with eps of b, above m the
    upper rule compares phi of b with eps of S, and at m the odd index
    moves S alone.
    """
    if i == S.m:
        moved = oddset_op(i, dir, S)
        return ZERO if moved is ZERO else (moved, b)
    if isinstance(b, HWElt):
        b_eps, b_phi, b_op = b.eps(i), b.phi(i), hw_op
    else:
        b_eps, b_phi, b_op = lusztig_eps(i, b), lusztig_phi(i, b), lusztig_op
    if i < S.m:
        phi, eps, compared_is_S = oddset_phi(i, S), b_eps, True
    else:
        phi, eps, compared_is_S = b_phi, oddset_eps(i, S), False
    acts = phi >= eps if dir == "e" else phi > eps
    if acts == compared_is_S:
        moved = oddset_op(i, dir, S)
        return ZERO if moved is ZERO else (moved, b)
    moved = b_op(i, dir, b)
    return ZERO if moved is ZERO else (S, moved)


def test_pair_op_matches_product_rule():
    minus_lams = {2: [(2, 0), (3, 1), (1, 0)], 3: [(2, 1, 0), (3, 1, 1), (1, 0, 0)]}
    for m, n in ((2, 2), (2, 3), (3, 2)):
        pluses = [LusztigPlus(m, mult) for mult in block_labels(plus_roots(m), 3)]
        minuses = []
        for coords in minus_lams[n]:
            for mult in block_labels(minus_roots(m, n), 3):
                hw = HWElt(LusztigMinus(m, n, mult), Weight((0,) * m + coords))
                if hw.is_member():
                    minuses.append(hw)
        assert len(minuses) > len(minus_lams[n])
        for S in odd_subsets(m, n):
            for dir in ("e", "f"):
                for i in range(1, m + 1):
                    for b in pluses:
                        assert pair_op(i, dir, S, b) == ref_pair_op(i, dir, S, b)
                for i in range(m + 1, m + n):
                    for hw in minuses:
                        assert pair_op(i, dir, S, hw) == ref_pair_op(i, dir, S, hw)


def test_worked_kac():
    b = KacElt(WS, HWElt(WPLUS, lam_plus(WLAM, 3)), HWElt(WMINUS, lam_minus(WLAM, 3)))
    plus_wt = Weight(WPLUS.weight().coords + (0, 0, 0, 0))
    assert b.weight() == WS.weight() + plus_wt + WMINUS.weight() + WLAM

    odd = kac_op(3, "f", b)
    assert odd.S.bits == WS.bits | {(3, 4)}
    assert kac_op(3, "e", b) is ZERO

    one = kac_op(1, "f", b)
    assert one.S.bits == WS.bits - {(2, 4)} | {(1, 4)}
    assert one.bplus == b.bplus
    assert kac_op(1, "f", one) is ZERO

    five = kac_op(5, "f", b)
    assert five.S.bits == WS.bits - {(3, 5)} | {(3, 6)}
    assert five.bminus == b.bminus

    assert kac_op(1, "e", one) == b
    assert kac_op(5, "e", five) == b


def test_lusztig_rank_one_ladders():
    b = LusztigPlus.zero(2)
    for k in range(1, 4):
        b = lusztig_op(1, "f", b)
        assert b.entry(1, 2) == k
        assert lusztig_eps(1, b) == k
    assert lusztig_op(1, "e", LusztigPlus.zero(2)) is ZERO
    c = LusztigMinus.zero(1, 2)
    c = lusztig_op(2, "f", c)
    assert c.entry(2, 3) == 1
    assert lusztig_op(2, "e", c) == LusztigMinus.zero(1, 2)


def test_lusztig_partial_inverse_random():
    rng = random.Random(2718)
    for _ in range(200):
        if rng.random() < 0.5:
            m = rng.choice([2, 3, 4])
            b = LusztigPlus(m, tuple(rng.randrange(3) for _ in plus_roots(m)))
            idx = range(1, m)
        else:
            m, n = rng.choice([(1, 3), (2, 2), (1, 4)])
            b = LusztigMinus(m, n, tuple(rng.randrange(3) for _ in minus_roots(m, n)))
            idx = range(m + 1, m + n)
        for i in idx:
            down = lusztig_op(i, "f", b)
            assert lusztig_op(i, "e", down) == b
            up = lusztig_op(i, "e", b)
            if up is not ZERO:
                assert lusztig_op(i, "f", up) == b
                assert lusztig_eps(i, up) == lusztig_eps(i, b) - 1
            else:
                assert lusztig_eps(i, b) == 0


def test_oddset_axioms_exhaustive():
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
        ell = m + n
        for S in all_oddsets(m, n):
            wt = S.weight()
            for i in range(1, ell):
                eps, phi = oddset_eps(i, S), oddset_phi(i, S)
                assert eps == string_length(oddset_op, i, "e", S)
                assert phi == string_length(oddset_op, i, "f", S)
                if i == m:
                    assert phi + eps in (0, 1)
                else:
                    assert phi - eps == cartan(wt, i, m)
                down = oddset_op(i, "f", S)
                if down is not ZERO:
                    assert down.weight() == wt - alpha(i, ell)
                    assert oddset_op(i, "e", down) == S
                    if i != m:
                        assert oddset_eps(i, down) == eps + 1
                        assert oddset_phi(i, down) == phi - 1
                up = oddset_op(i, "e", S)
                if up is not ZERO:
                    assert up.weight() == wt + alpha(i, ell)
                    assert oddset_op(i, "f", up) == S


def test_oddset_two_family_commutation():
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        lowers = range(1, m)
        uppers = range(m + 1, m + n)
        for S in all_oddsets(m, n):
            for i in lowers:
                for j in uppers:
                    for di, dj in product(("e", "f"), repeat=2):
                        a = _chain(S, (i, di), (j, dj))
                        b = _chain(S, (j, dj), (i, di))
                        assert a == b or (a is ZERO and b is ZERO)


def _chain(S, *steps):
    cur = S
    for i, d in steps:
        if cur is ZERO:
            return ZERO
        cur = oddset_op(i, d, cur)
    return cur


def kac_members(lam: Weight) -> list[KacElt]:
    out = []
    for S in all_oddsets(2, 2):
        for cp in range(6):
            bp = HWElt(LusztigPlus(2, (cp,)), lam_plus(lam, 2))
            if not bp.is_member():
                continue
            for cm in range(6):
                bm = HWElt(LusztigMinus(2, 2, (cm,)), lam_minus(lam, 2))
                if not bm.is_member():
                    continue
                out.append(KacElt(S, bp, bm))
    return out


def test_kac_exhaustive_2_2():
    # The whole member set, not just the part reachable from the highest
    # element: the graph is disconnected once the shifts are nonzero.
    for p1, p2, q1, q2 in product(range(3), repeat=4):
        if p1 < p2 or q1 < q2:
            continue
        lam = Weight((p1, p2, q1, q2))
        members = set(kac_members(lam))
        assert len(members) == 16 * (p1 - p2 + 1) * (q1 - q2 + 1)
        assert kac_highest(2, 2, lam) in members
        for b in members:
            wt = b.weight()
            for i in (1, 2, 3):
                eps = string_length(kac_op, i, "e", b)
                phi = string_length(kac_op, i, "f", b)
                if i == 2:
                    assert phi + eps in (0, 1)
                else:
                    assert phi - eps == cartan(wt, i, 2)
                down = kac_op(i, "f", b)
                if down is not ZERO:
                    assert down in members
                    assert down.weight() == wt - alpha(i, 4)
                    assert kac_op(i, "e", down) == b
                up = kac_op(i, "e", b)
                if up is not ZERO:
                    assert up in members
                    assert up.weight() == wt + alpha(i, 4)
                    assert kac_op(i, "f", up) == b


def test_hw_string_lengths():
    shifts = [Weight((4, 2, 0)), Weight((3, 3, 1)), Weight((2, 0, 0))]
    for mult in block_labels(plus_roots(3), 4):
        b = LusztigPlus(3, mult)
        for shift in shifts:
            hw = HWElt(b, shift)
            if not hw.is_member():
                continue
            for i in (1, 2):
                assert hw_string(hw, i, "e") == hw.eps(i)
                assert hw_string(hw, i, "f") == hw.phi(i)
    mshifts = [Weight((0, 4, 2, 0)), Weight((0, 3, 1, 1)), Weight((0, 2, 2, 0))]
    for mult in block_labels(minus_roots(1, 3), 4):
        b = LusztigMinus(1, 3, mult)
        for shift in mshifts:
            hw = HWElt(b, shift)
            if not hw.is_member():
                continue
            for i in (2, 3):
                assert hw_string(hw, i, "e") == hw.eps(i)
                assert hw_string(hw, i, "f") == hw.phi(i)


def hw_string(hw: HWElt, i: int, dir: str) -> int:
    k = 0
    while True:
        moved = hw_op(i, dir, hw)
        if moved is ZERO:
            if dir == "e":
                base_up = lusztig_op(i, "e", hw.base)
                assert base_up is ZERO
            return k
        hw = moved
        k += 1


def test_bicrystal_1_1_and_2_2():
    small = bicrystal_decompose(1, 1)
    assert {lam: len(v) for lam, v in small.items()} == {(0,): 1, (1,): 1}

    classes = bicrystal_decompose(2, 2)
    sizes = {lam: len(v) for lam, v in classes.items()}
    assert sizes == {(0, 0): 1, (1, 0): 4, (1, 1): 3, (2, 0): 3, (2, 1): 4, (2, 2): 1}
    assert sum(sizes.values()) == 16

    for lam, members in classes.items():
        tops = [
            S
            for S in members
            if all(oddset_op(i, "e", S) is ZERO for i in (1, 3))
        ]
        assert len(tops) == 1
        cols = [sum(1 for a, b in tops[0].bits if b == c) for c in (3, 4)]
        assert tuple(cols) == transpose(lam, 2)


def transpose(lam: tuple[int, ...], width: int) -> tuple[int, ...]:
    return tuple(sum(1 for part in lam if part > c) for c in range(width))


def test_bicrystal_class_product_structure():
    classes = bicrystal_decompose(2, 3)
    assert sum(len(v) for v in classes.values()) == 64
    for lam, members in classes.items():
        top = next(
            S for S in members if all(oddset_op(i, "e", S) is ZERO for i in (1, 3, 4))
        )
        lower = _closure(top, [1])
        upper = _closure(top, [3, 4])
        assert len(members) == len(lower) * len(upper)


def _closure(S, indices):
    seen = {S}
    frontier = [S]
    while frontier:
        nxt = []
        for cur in frontier:
            for i in indices:
                down = oddset_op(i, "f", cur)
                if down is not ZERO and down not in seen:
                    seen.add(down)
                    nxt.append(down)
        frontier = nxt
    return seen


def test_lusztig_bridge_plus():
    for mult in block_labels(plus_roots(3), 5):
        b = LusztigPlus(3, mult)
        v = lattice_vector(RD31, pbw_label(RD31, b))
        for i in (1, 2):
            _check_bridge(RD31, i, b, v, {Fraction(1)})


def test_lusztig_bridge_minus():
    # Signs are compared modulo a unit: the twisted basis of the 0|n block
    # genuinely mixes +1 and -1 here (e.g. sigma sends the height-two root
    # vector to -q^2 times itself), and the sign pattern admits no global
    # regauge, so only the signed-basis class is meaningful.
    for mult in block_labels(minus_roots(1, 3), 5):
        b = LusztigMinus(1, 3, mult)
        v = lattice_vector(RD13, pbw_label(RD13, b))
        for i in (2, 3):
            _check_bridge(RD13, i, b, v, {Fraction(1), Fraction(-1)})


def _check_bridge(rd: RootData, i: int, b, v: PBWVector, units: set) -> None:
    for dir in ("f", "e"):
        moved = lusztig_op(i, dir, b)
        w = crystal_f(rd, i, v) if dir == "f" else crystal_e(rd, i, v)
        ok, res = lattice_residue(rd, w)
        assert ok
        if moved is ZERO:
            assert res == {}
        else:
            lab = pbw_label(rd, moved)
            assert set(res) == {lab}
            assert res[lab] in units


def test_epsilon_star_oracle():
    for mult in block_labels(plus_roots(3), 4):
        b = LusztigPlus(3, mult)
        starred = star_transport(RD31, lattice_vector(RD31, pbw_label(RD31, b)))
        assert in_lattice(RD31, starred)
        for i in (1, 2):
            assert epsilon_star(i, b) == residue_string_length(RD31, i, starred)
    for mult in block_labels(minus_roots(1, 3), 4):
        b = LusztigMinus(1, 3, mult)
        starred = star_transport(RD13, lattice_vector(RD13, pbw_label(RD13, b)))
        assert in_lattice(RD13, starred)
        for i in (2, 3):
            assert epsilon_star(i, b) == residue_string_length(RD13, i, starred)


def test_star_operator_oracle():
    """Starred operators match conjugation of the algebra operators by star."""
    cases = [
        (RD31, (1, 2), {1}, [LusztigPlus(3, t) for t in block_labels(plus_roots(3), 3)]),
        (
            RD13,
            (2, 3),
            {1, -1},
            [LusztigMinus(1, 3, t) for t in block_labels(minus_roots(1, 3), 3)],
        ),
    ]
    for rd, indices, units, block in cases:
        for b in block:
            starred = star_transport(rd, lattice_vector(rd, pbw_label(rd, b)))
            for i in indices:
                for dir, op in (("e", crystal_e), ("f", crystal_f)):
                    moved = lusztig_star_op(i, dir, b)
                    image = op(rd, i, starred)
                    ok, res = lattice_residue(rd, star_transport(rd, image))
                    assert ok
                    if moved is ZERO:
                        assert res == {}
                    else:
                        assert lusztig_star_op(i, "e" if dir == "f" else "f", moved) == b
                        lab = pbw_label(rd, moved)
                        assert set(res) == {lab}
                        assert res[lab] in units
                # The starred raising string has length epsilon_star.
                k, cur = 0, b
                while True:
                    cur = lusztig_star_op(i, "e", cur)
                    if cur is ZERO:
                        break
                    k += 1
                assert k == epsilon_star(i, b)


def test_validation_errors():
    with pytest.raises(ValueError):
        oddset_op(0, "f", OddSet.empty(2, 2))
    with pytest.raises(ValueError):
        oddset_op(1, "down", OddSet.empty(2, 2))
    with pytest.raises(ValueError):
        lusztig_op(2, "f", LusztigPlus.zero(2))
    with pytest.raises(ValueError):
        lusztig_op(1, "f", LusztigMinus.zero(1, 2))
    with pytest.raises(ValueError):
        epsilon_star(3, WPLUS)
    with pytest.raises(ValueError):
        bicrystal_decompose(6, 5)


def test_bicrystal_refuses_past_the_enumeration_limit():
    # 2^18 subsets: refused from the count, before any subset is built
    assert 2 ** 18 > ENUMERATION_LIMIT >= 2 ** 16
    start = time.perf_counter()
    with pytest.raises(ValueError):
        bicrystal_decompose(3, 6)
    assert time.perf_counter() - start < 1.0


def test_json_round_trip():
    rng = random.Random(4093)
    for _ in range(40):
        S = OddSet(
            2, 3, frozenset(p for p in product((1, 2), (3, 4, 5)) if rng.random() < 0.5)
        )
        bp = LusztigPlus(2, (rng.randrange(4),))
        bm = LusztigMinus(2, 3, tuple(rng.randrange(4) for _ in minus_roots(2, 3)))
        lam = Weight(tuple(rng.randrange(5) for _ in range(5)))
        column = OddSet(2, 1, frozenset(p for p in ((1, 3), (2, 3)) if rng.random() < 0.5))
        hw_minus = HWElt(bm, lam_minus(lam, 2))
        for elt in [
            S,
            bp,
            bm,
            HWElt(bp, lam),
            KacElt(S, HWElt(bp, lam_plus(lam, 2)), hw_minus),
            BInfElt(S, bp, bm),
            XElt(S, bp, hw_minus, lam_plus(lam, 2)),
            ProductElt(column, bp, bm),
        ]:
            back = from_json(to_json(elt))
            assert back == elt and hash(back) == hash(elt)
    with pytest.raises(ValueError):
        from_json({"kind": "mystery"})


def test_from_json_refuses_invalid_elements():
    lam = Weight((2, 1, 1, 0))
    good = [
        HWElt(LusztigPlus(2, (1,)), lam_plus(lam, 2)),
        HWElt(LusztigMinus.zero(2, 2), lam_minus(lam, 2)),
        kac_highest(2, 2, lam),
        BInfElt(OddSet.empty(2, 2), LusztigPlus.zero(2), LusztigMinus.zero(2, 2)),
        XElt(OddSet.empty(2, 2), LusztigPlus.zero(2), HWElt(LusztigMinus.zero(2, 2), lam), lam),
        ProductElt(OddSet.empty(2, 1), LusztigPlus.zero(2), LusztigMinus.zero(2, 2)),
    ]
    for elt in good:
        assert from_json(to_json(elt)) == elt
    hw_plus, hw_minus, kac, binf, xelt, prod = map(to_json, good)
    # multiplicities: non-negative ints, and a bool is not one
    for c in (-1, 1.5, "x", True, None):
        with pytest.raises(ValueError, match="multiplicities must be ints >= 0"):
            from_json({"kind": "lplus", "m": 2, "mult": {"1,2": c}})
        with pytest.raises(ValueError, match="multiplicities must be ints >= 0"):
            from_json(dict(binf, bminus={"kind": "lminus", "m": 2, "n": 2, "mult": {"3,4": c}}))
    # ranks: positive ints; odd entries and weights: ints
    for r in (0, "2", 2.0, True):
        for data in (
            {"kind": "oddset", "m": r, "n": 2, "bits": []},
            {"kind": "oddset", "m": 2, "n": r, "bits": []},
            {"kind": "lplus", "m": r, "mult": {}},
            {"kind": "lminus", "m": 2, "n": r, "mult": {}},
        ):
            with pytest.raises(ValueError, match="ranks must be ints >= 1"):
                from_json(data)
    for p in ([1.0, 3], [1, "3"], [True, 3]):
        with pytest.raises(ValueError, match="odd entries must be ints"):
            from_json({"kind": "oddset", "m": 2, "n": 2, "bits": [p]})
    for w in ([2, 1, 1, 0.0], [2, 1, 1, "0"], [2, 1, 1, False]):
        for data in (dict(hw_minus, shift=w), dict(xelt, shift=w)):
            with pytest.raises(ValueError, match="weight entries must be ints"):
                from_json(data)
    # one rank throughout: m in every field, the subset's n in the minus
    # block (a product's subset is m x 1), m + n entries in every weight
    S22, S21, S23 = (to_json(OddSet.empty(2, k)) for k in (2, 1, 3))
    S32 = to_json(OddSet.empty(3, 2))
    plus3 = to_json(LusztigPlus.zero(3))
    minus13, minus23 = to_json(LusztigMinus.zero(1, 3)), to_json(LusztigMinus.zero(2, 3))
    bad = [
        dict(binf, bplus=plus3, bminus=minus13),  # OddSet(2,2), m = 3, m = 1
        dict(binf, bplus=plus3), dict(binf, S=S32), dict(binf, S=S23),
        dict(binf, bminus=minus23), dict(binf, S=S21),
        dict(prod, S=S22), dict(prod, bminus=minus13),
        dict(xelt, shift=[2, 1, 1]), dict(xelt, bplus=plus3),
        dict(kac, bplus=dict(hw_plus, shift=[2, 1, 1])),
        dict(kac, bminus=dict(hw_minus, shift=[0, 0, 1, 0, 0])),
        dict(hw_plus, shift=[2]), dict(hw_minus, shift=[0, 0, 1]),
        dict(hw_minus, shift=[1]),
    ]
    for data in bad:
        with pytest.raises(ValueError, match="disagree on the rank"):
            from_json(data)
    # a bare truncation needs only the entries its block reads
    assert from_json(dict(hw_plus, shift=[2, 1])).is_member()


def test_elements_compare_by_kind_and_fields():
    # elements are not frozen dataclasses; equality, hashing and repr are
    # still the generated ones, over the fields and within one kind
    hw_plus, hw_minus = HWElt(WPLUS, lam_plus(WLAM, 3)), HWElt(WMINUS, lam_minus(WLAM, 3))
    kac, binf = KacElt(WS, hw_plus, hw_minus), BInfElt(WS, hw_plus, hw_minus)
    assert kac != binf and binf != kac
    assert kac == KacElt(OddSet.of(3, 4, WS.bits), hw_plus, hw_minus)
    assert hash(kac) == hash(KacElt(WS, HWElt(WPLUS, lam_plus(WLAM, 3)), hw_minus))
    assert hash(WPLUS) == hash(LusztigPlus(3, WPLUS.mult)) and WPLUS != WPLUS.mult
    assert repr(WPLUS) == f"LusztigPlus(m=3, mult={WPLUS.mult!r})"
    assert kac != (WS, hw_plus, hw_minus)
