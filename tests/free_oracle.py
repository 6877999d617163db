"""Free-algebra oracle backing the PBW-layer tests.

Elements of the free algebra on f_1 .. f_{l-1} are plain dicts from words
(tuples of generator indices) to QRat coefficients.  Equality in the quotient
is decided by pairing: the functional attached to a probe word w takes the
empty-word coefficient after applying the twisted derivation for each letter
of w in turn.  Two guards make this trustworthy before it judges anything
else: every defining relation must pair to zero against every probe, and on
each weight space the Gram rank of the pairing must match the number of PBW
monomials of that weight.  Both guards are asserted in test_superpbw.

The twist bicharacter is recomputed here from delta coordinates rather than
imported, so the oracle does not share that code path with the module under
test.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations

from rref_oracle import qrat_row_reduce
from supercrystal.qfield import QRat, q_int
from supercrystal.superpbw import PBWVector

FreeVec = dict[tuple[int, ...], QRat]

_Q0 = QRat.zero()
_Q1 = QRat.one()


@cache
def _bichar_inv(m: int, i: int, j: int) -> QRat:
    """Inverse of q(alpha_i, alpha_j), from scratch in delta coordinates."""
    xs = {i: 1, i + 1: -1}
    ys = {j: 1, j + 1: -1}
    s_even = sum(x * ys.get(k, 0) for k, x in xs.items() if k <= m)
    s_odd = sum(x * ys.get(k, 0) for k, x in xs.items() if k > m)
    r = QRat.q_power(s_even - s_odd)
    return (-r if s_odd % 2 else r).inverse()


def free_sub(u: FreeVec, v: FreeVec) -> FreeVec:
    out = dict(u)
    for w, c in v.items():
        x = out.get(w, _Q0) - c
        if x:
            out[w] = x
        elif w in out:
            del out[w]
    return out


def free_mul(u: FreeVec, v: FreeVec) -> FreeVec:
    out: FreeVec = {}
    for w1, c1 in u.items():
        for w2, c2 in v.items():
            w = w1 + w2
            x = out.get(w, _Q0) + c1 * c2
            if x:
                out[w] = x
            elif w in out:
                del out[w]
    return out


def free_eprime(m: int, i: int, u: FreeVec, inverse_twist: bool = False) -> FreeVec:
    """e'_i(f_j w) = [i = j] w + q(alpha_i, alpha_j)^(-1) f_j e'_i(w).

    With ``inverse_twist`` this is e''_i, which twists by q(alpha_i, alpha_j).
    """
    out: FreeVec = {}
    for w, c in u.items():
        twist = _Q1
        for p, j in enumerate(w):
            if j == i:
                nw = w[:p] + w[p + 1 :]
                x = out.get(nw, _Q0) + c * twist
                if x:
                    out[nw] = x
                elif nw in out:
                    del out[nw]
            step = _bichar_inv(m, i, j)
            twist = twist * (step.inverse() if inverse_twist else step)
    return out


def _gl_pairing(i: int, j: int) -> int:
    """(alpha_i, alpha_j) under the dot product of delta coordinates."""
    xs = {i: 1, i + 1: -1}
    ys = {j: 1, j + 1: -1}
    return sum(x * ys.get(k, 0) for k, x in xs.items())


def free_sigma(u: FreeVec) -> FreeVec:
    """The 0|n reversal on free words: c w -> bar(c) (-1/q)^e reversed(w).

    e sums the gl_n pairing over every earlier and later letter of w.
    """
    out: FreeVec = {}
    for w, c in u.items():
        e = sum(_gl_pairing(w[p], w[r]) for p in range(len(w)) for r in range(p + 1, len(w)))
        coeff = c.bar() * QRat.q_power(-e)
        nw = tuple(reversed(w))
        x = out.get(nw, _Q0) + (-coeff if e % 2 else coeff)
        if x:
            out[nw] = x
        elif nw in out:
            del out[nw]
    return out


def pair(m: int, probe: tuple[int, ...], u: FreeVec) -> QRat:
    """Apply the derivation for each probe letter, keep the scalar part."""
    cur = u
    for i in probe:
        cur = free_eprime(m, i, cur)
        if not cur:
            return _Q0
    return cur.get((), _Q0)


def letter_counts(mu: tuple[int, ...]) -> tuple[int, ...] | None:
    """Generator multiplicities forced by a negative weight, or None."""
    counts = []
    s = 0
    for c in mu[:-1]:
        s += c
        counts.append(-s)
    if s + mu[-1] != 0 or any(c < 0 for c in counts):
        return None
    return tuple(counts)


def words_of_weight(mu: tuple[int, ...]) -> list[tuple[int, ...]]:
    counts = letter_counts(mu)
    if counts is None:
        return []
    letters: list[int] = []
    for i, c in enumerate(counts, start=1):
        letters.extend([i] * c)
    return sorted(set(permutations(letters)))


def free_of_pbw(u: PBWVector) -> FreeVec:
    """Expand a PBW vector into free words via the root-vector expansions."""
    out: FreeVec = {}
    for mono, c in u.terms.items():
        for w, cw in u.rd.free_monomial(mono).items():
            x = out.get(w, _Q0) + c * cw
            if x:
                out[w] = x
            elif w in out:
                del out[w]
    return out


def equal_in_quotient(m: int, u: FreeVec, v: FreeVec) -> bool:
    """Whether u - v pairs to zero against every same-multiset probe."""
    diff = free_sub(u, v)
    for ms in {tuple(sorted(w)) for w in diff}:
        for probe in set(permutations(ms)):
            if pair(m, probe, diff):
                return False
    return True


def gram_rank(m: int, words: list[tuple[int, ...]]) -> int:
    """Rank of the matrix pairing each probe word against each plain word."""
    rows = [[pair(m, w, {wc: _Q1}) for wc in words] for w in words]
    return qrat_row_reduce(rows)


def defining_relations(m: int, n: int) -> list[FreeVec]:
    """The relations among the f_i, as free vectors that should map to zero."""
    ell = m + n
    two = q_int(2)
    rels: list[FreeVec] = [{(m, m): _Q1}]
    for i in range(1, ell):
        for j in range(i + 2, ell):
            rels.append({(i, j): _Q1, (j, i): -_Q1})
    for i in range(1, ell):
        if i == m:
            continue
        mid = -two if i < m else two
        for j in (i - 1, i + 1):
            if 1 <= j <= ell - 1:
                rels.append({(i, i, j): _Q1, (i, j, i): mid, (j, i, i): _Q1})
    if m >= 2 and n >= 2:
        a, b, c = m - 1, m, m + 1
        rels.append(
            {
                (b, a, b, c): _Q1,
                (b, c, b, a): -_Q1,
                (c, b, a, b): _Q1,
                (a, b, c, b): -_Q1,
                (b, a, c, b): two,
            }
        )
    return rels
