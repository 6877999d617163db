"""Combinatorial crystal models for gl(m|n).

Three kinds of raw data: subsets of the odd negative roots (binary m x n
matrices), multiplicity arrays over the even positive roots of the m|0 and
0|n blocks in their convex orders, and highest-weight truncations of the
latter.  All operators follow the same signature discipline: materialize a
+/- sequence from the data, cancel (+,-) pairs by a stack scan, then act at
the leftmost surviving + (lowering) or the rightmost surviving - (raising).
ZERO is an explicit sentinel so every operator is total.

 The Kac-module crystal combines one odd subset with one truncated array per
even block; tensor routing between the factors follows the product rules,
with the odd index acting on the subset alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .superpbw import Weight


class _ZeroType:
    __slots__ = ()

    def __repr__(self) -> str:
        return "ZERO"

    def __bool__(self) -> bool:
        return False


ZERO = _ZeroType()


def cartan(mu: Weight, i: int, m: int) -> int:
    """Pairing of a weight with the i-th simple coroot of gl(m|n)."""
    if i == m:
        return mu.coords[i - 1] + mu.coords[i]
    return mu.coords[i - 1] - mu.coords[i]


def _delta(ell: int, pairs) -> Weight:
    c = [0] * ell
    for coeff, pos in pairs:
        c[pos - 1] += coeff
    return Weight(tuple(c))


def plus_roots(m: int) -> list[tuple[int, int]]:
    """Positive roots of the m|0 block in convex order."""
    return sorted(
        ((a, b) for b in range(2, m + 1) for a in range(1, b)),
        key=lambda r: (-r[1], -r[0]),
    )


def minus_roots(m: int, n: int) -> list[tuple[int, int]]:
    """Positive roots of the 0|n block in convex order."""
    ell = m + n
    return [(a, b) for a in range(m + 1, ell) for b in range(a + 1, ell + 1)]


# -- elements -----------------------------------------------------------------


@dataclass(frozen=True)
class OddSet:
    """A subset of the odd negative roots, entry (a, b) for -delta_a+delta_b."""

    m: int
    n: int
    bits: frozenset[tuple[int, int]]

    @classmethod
    def empty(cls, m: int, n: int) -> "OddSet":
        return cls(m, n, frozenset())

    @classmethod
    def of(cls, m: int, n: int, pairs) -> "OddSet":
        bits = frozenset((a, b) for a, b in pairs)
        for a, b in bits:
            if not (1 <= a <= m < b <= m + n):
                raise ValueError(f"bad odd entry {(a, b)}")
        return cls(m, n, bits)

    def weight(self) -> Weight:
        ell = self.m + self.n
        pairs = []
        for a, b in self.bits:
            pairs.append((-1, a))
            pairs.append((1, b))
        return _delta(ell, pairs)

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(int((a, b) in self.bits) for b in range(self.m + 1, self.m + self.n + 1))
            for a in range(1, self.m + 1)
        )


@dataclass(frozen=True)
class LusztigPlus:
    """Multiplicities over plus_roots(m), the Lusztig data of the m|0 block."""

    m: int
    mult: tuple[int, ...]

    @classmethod
    def zero(cls, m: int) -> "LusztigPlus":
        return cls(m, (0,) * len(plus_roots(m)))

    @classmethod
    def of(cls, m: int, entries: dict[tuple[int, int], int]) -> "LusztigPlus":
        roots = plus_roots(m)
        unknown = set(entries) - set(roots)
        if unknown:
            raise ValueError(f"not plus-block roots: {sorted(unknown)}")
        return cls(m, tuple(entries.get(r, 0) for r in roots))

    def roots(self) -> list[tuple[int, int]]:
        return plus_roots(self.m)

    def entry(self, a: int, b: int) -> int:
        return self.mult[plus_roots(self.m).index((a, b))]

    def _shift(self, moves: dict[tuple[int, int], int]) -> "LusztigPlus":
        roots = plus_roots(self.m)
        out = list(self.mult)
        for r, d in moves.items():
            out[roots.index(r)] += d
        return LusztigPlus(self.m, tuple(out))

    def weight(self) -> Weight:
        pairs = []
        for (a, b), c in zip(plus_roots(self.m), self.mult):
            pairs.append((-c, a))
            pairs.append((c, b))
        return _delta(self.m, pairs)

    def degree(self) -> int:
        return sum(c * (b - a) for (a, b), c in zip(plus_roots(self.m), self.mult))


@dataclass(frozen=True)
class LusztigMinus:
    """Multiplicities over minus_roots(m, n), the Lusztig data of the 0|n block."""

    m: int
    n: int
    mult: tuple[int, ...]

    @classmethod
    def zero(cls, m: int, n: int) -> "LusztigMinus":
        return cls(m, n, (0,) * len(minus_roots(m, n)))

    @classmethod
    def of(cls, m: int, n: int, entries: dict[tuple[int, int], int]) -> "LusztigMinus":
        roots = minus_roots(m, n)
        unknown = set(entries) - set(roots)
        if unknown:
            raise ValueError(f"not minus-block roots: {sorted(unknown)}")
        return cls(m, n, tuple(entries.get(r, 0) for r in roots))

    def roots(self) -> list[tuple[int, int]]:
        return minus_roots(self.m, self.n)

    def entry(self, a: int, b: int) -> int:
        return self.mult[minus_roots(self.m, self.n).index((a, b))]

    def _shift(self, moves: dict[tuple[int, int], int]) -> "LusztigMinus":
        roots = minus_roots(self.m, self.n)
        out = list(self.mult)
        for r, d in moves.items():
            out[roots.index(r)] += d
        return LusztigMinus(self.m, self.n, tuple(out))

    def weight(self) -> Weight:
        ell = self.m + self.n
        pairs = []
        for (a, b), c in zip(minus_roots(self.m, self.n), self.mult):
            pairs.append((-c, a))
            pairs.append((c, b))
        return _delta(ell, pairs)

    def degree(self) -> int:
        return sum(c * (b - a) for (a, b), c in zip(minus_roots(self.m, self.n), self.mult))


@dataclass(frozen=True)
class HWElt:
    """A Lusztig element tensored with t_shift, membership per epsilon-star."""

    base: LusztigPlus | LusztigMinus
    shift: Weight

    def block_indices(self) -> range:
        if isinstance(self.base, LusztigPlus):
            return range(1, self.base.m)
        return range(self.base.m + 1, self.base.m + self.base.n)

    def is_member(self) -> bool:
        m = self.base.m
        return all(
            epsilon_star(i, self.base) <= cartan(self.shift, i, m)
            for i in self.block_indices()
        )

    def weight(self) -> Weight:
        bw = self.base.weight()
        if isinstance(self.base, LusztigPlus):
            bw = Weight(bw.coords + (0,) * (len(self.shift.coords) - len(bw.coords)))
        return bw + self.shift

    def eps(self, i: int) -> int:
        return lusztig_eps(i, self.base)

    def phi(self, i: int) -> int:
        return self.eps(i) + cartan(self.weight(), i, self.base.m)


@dataclass(frozen=True)
class KacElt:
    """An element of the Kac-module crystal: odd subset and two truncations."""

    S: OddSet
    bplus: HWElt
    bminus: HWElt

    def weight(self) -> Weight:
        return self.S.weight() + self.bplus.weight() + self.bminus.weight()


# -- the signature engine ------------------------------------------------------


def _reduce_signature(seq):
    """Cancel (+,-) pairs; return surviving + payloads and - payloads in order."""
    plus: list = []
    minus: list = []
    for sign, payload in seq:
        if sign == "+":
            plus.append(payload)
        elif plus:
            plus.pop()
        else:
            minus.append(payload)
    return plus, minus


def _oddset_signature(S: OddSet, i: int):
    """Signature letters of S for index i; payloads are (source, target) moves."""
    m, ell = S.m, S.m + S.n
    seq = []
    if i < m:
        for b in range(m + 1, ell + 1):
            if (i + 1, b) in S.bits:
                seq.append(("+", ((i + 1, b), (i, b))))
            if (i, b) in S.bits:
                seq.append(("-", ((i, b), (i + 1, b))))
    else:
        for a in range(1, m + 1):
            if (a, i) in S.bits:
                seq.append(("+", ((a, i), (a, i + 1))))
            if (a, i + 1) in S.bits:
                seq.append(("-", ((a, i + 1), (a, i))))
    return seq


def oddset_op(i: int, dir: str, S: OddSet):
    """Crystal operator on an odd subset; returns an OddSet or ZERO."""
    if dir not in ("e", "f"):
        raise ValueError(f"bad direction {dir!r}")
    m = S.m
    if not 1 <= i <= m + S.n - 1:
        raise ValueError(f"index {i} out of range")
    if i == m:
        key = (m, m + 1)
        if dir == "f":
            if key in S.bits:
                return ZERO
            return OddSet(S.m, S.n, S.bits | {key})
        if key not in S.bits:
            return ZERO
        return OddSet(S.m, S.n, S.bits - {key})
    plus, minus = _reduce_signature(_oddset_signature(S, i))
    if dir == "f":
        if not plus:
            return ZERO
        src, dst = plus[0]
    else:
        if not minus:
            return ZERO
        src, dst = minus[-1]
    return OddSet(S.m, S.n, S.bits - {src} | {dst})


def oddset_eps(i: int, S: OddSet) -> int:
    if i == S.m:
        return int((S.m, S.m + 1) in S.bits)
    _, minus = _reduce_signature(_oddset_signature(S, i))
    return len(minus)


def oddset_phi(i: int, S: OddSet) -> int:
    if i == S.m:
        return 1 - int((S.m, S.m + 1) in S.bits)
    plus, _ = _reduce_signature(_oddset_signature(S, i))
    return len(plus)


def _lusztig_signature(b: LusztigPlus | LusztigMinus, i: int):
    """Signature of Lusztig data for index i; payloads are move dicts."""
    if isinstance(b, LusztigPlus):
        m = b.m
        if not 1 <= i <= m - 1:
            raise ValueError(f"index {i} not in the m|0 block")
        seq = []
        for col in range(m, i + 1, -1):
            seq.extend([("-", {(i, col): -1, (i + 1, col): 1})] * b.entry(i, col))
            seq.extend([("+", {(i + 1, col): -1, (i, col): 1})] * b.entry(i + 1, col))
        seq.extend([("-", {(i, i + 1): -1})] * b.entry(i, i + 1))
        return seq
    m, ell = b.m, b.m + b.n
    if not m + 1 <= i <= ell - 1:
        raise ValueError(f"index {i} not in the 0|n block")
    seq = []
    for row in range(m + 1, i):
        seq.extend([("-", {(row, i + 1): -1, (row, i): 1})] * b.entry(row, i + 1))
        seq.extend([("+", {(row, i): -1, (row, i + 1): 1})] * b.entry(row, i))
    seq.extend([("-", {(i, i + 1): -1})] * b.entry(i, i + 1))
    return seq


def lusztig_op(i: int, dir: str, b: LusztigPlus | LusztigMinus):
    """Crystal operator on Lusztig data; f always succeeds, e may give ZERO."""
    if dir not in ("e", "f"):
        raise ValueError(f"bad direction {dir!r}")
    plus, minus = _reduce_signature(_lusztig_signature(b, i))
    if dir == "f":
        if plus:
            return b._shift(plus[0])
        return b._shift({(i, i + 1): 1})
    if not minus:
        return ZERO
    return b._shift(minus[-1])


def lusztig_eps(i: int, b: LusztigPlus | LusztigMinus) -> int:
    _, minus = _reduce_signature(_lusztig_signature(b, i))
    return len(minus)


def lusztig_phi(i: int, b: LusztigPlus | LusztigMinus) -> int:
    """The defined phi of the infinity crystal (may be negative)."""
    wt = b.weight()
    if isinstance(b, LusztigPlus):
        return lusztig_eps(i, b) + (wt.coords[i - 1] - wt.coords[i])
    return lusztig_eps(i, b) + cartan(wt, i, b.m)


def _starred_signature(b: LusztigPlus | LusztigMinus, i: int):
    if isinstance(b, LusztigPlus):
        m = b.m
        if not 1 <= i <= m - 1:
            raise ValueError(f"index {i} not in the m|0 block")
        seq = []
        for row in range(1, i):
            seq.extend([("-", {(row, i + 1): -1, (row, i): 1})] * b.entry(row, i + 1))
            seq.extend([("+", {(row, i): -1, (row, i + 1): 1})] * b.entry(row, i))
        seq.extend([("-", {(i, i + 1): -1})] * b.entry(i, i + 1))
        return seq
    m, ell = b.m, b.m + b.n
    if not m + 1 <= i <= ell - 1:
        raise ValueError(f"index {i} not in the 0|n block")
    seq = []
    for col in range(ell, i + 1, -1):
        seq.extend([("-", {(i, col): -1, (i + 1, col): 1})] * b.entry(i, col))
        seq.extend([("+", {(i + 1, col): -1, (i, col): 1})] * b.entry(i + 1, col))
    seq.extend([("-", {(i, i + 1): -1})] * b.entry(i, i + 1))
    return seq


def epsilon_star(i: int, b: LusztigPlus | LusztigMinus) -> int:
    """Starred string length, the membership bound for truncations."""
    _, minus = _reduce_signature(_starred_signature(b, i))
    return len(minus)


def lusztig_star_op(i: int, dir: str, b: LusztigPlus | LusztigMinus):
    """Starred crystal operator, the lusztig_op conjugated by the involution."""
    if dir not in ("e", "f"):
        raise ValueError(f"bad direction {dir!r}")
    plus, minus = _reduce_signature(_starred_signature(b, i))
    if dir == "f":
        if plus:
            return b._shift(plus[0])
        return b._shift({(i, i + 1): 1})
    if not minus:
        return ZERO
    return b._shift(minus[-1])


# -- tensor routing -------------------------------------------------------------


@dataclass(frozen=True)
class TensorFactor:
    """One side of a tensor pair: the element plus the data the rules read."""

    value: object
    eps: int | None = None
    phi: int | None = None
    cartan_m: int | None = None
    apply: object = None


def tensor_op(rule: str, i: int, dir: str, pair):
    """Route e or f to one side of a pair per the product rules.

    pair is (b1, b2) of TensorFactor.  Returns (new1, new2) with raw values,
    or ZERO when the routed operator dies.
    """
    if dir not in ("e", "f"):
        raise ValueError(f"bad direction {dir!r}")
    b1, b2 = pair
    if rule == "odd":
        act_left = b1.cartan_m > 0
    elif rule in ("lower", "boson"):
        act_left = b1.phi >= b2.eps if dir == "e" else b1.phi > b2.eps
    elif rule == "upper":
        act_right = b2.phi >= b1.eps if dir == "e" else b2.phi > b1.eps
        act_left = not act_right
    else:
        raise ValueError(f"unknown rule {rule!r}")
    if act_left:
        moved = b1.apply(dir)
        if moved is ZERO:
            return ZERO
        return moved, b2.value
    moved = b2.apply(dir)
    if moved is ZERO:
        return ZERO
    return b1.value, moved


def oddset_factor(S: OddSet, i: int) -> TensorFactor:
    return TensorFactor(
        value=S,
        eps=oddset_eps(i, S),
        phi=oddset_phi(i, S),
        cartan_m=cartan(S.weight(), S.m, S.m),
        apply=lambda dir: oddset_op(i, dir, S),
    )


def lusztig_factor(b: LusztigPlus | LusztigMinus, i: int) -> TensorFactor:
    return TensorFactor(
        value=b,
        eps=lusztig_eps(i, b),
        phi=lusztig_phi(i, b),
        apply=lambda dir: lusztig_op(i, dir, b),
    )


def hw_factor(hw: HWElt, i: int) -> TensorFactor:
    def apply(dir):
        moved = lusztig_op(i, dir, hw.base)
        if moved is ZERO:
            return ZERO
        out = HWElt(moved, hw.shift)
        if not out.is_member():
            return ZERO
        return out

    return TensorFactor(value=hw, eps=hw.eps(i), phi=hw.phi(i), apply=apply)


# -- the Kac-module crystal -------------------------------------------------------


def kac_op(i: int, dir: str, b: KacElt):
    """Crystal operator on the Kac-module crystal; returns KacElt or ZERO."""
    m = b.S.m
    if i == m:
        moved = oddset_op(i, dir, b.S)
        if moved is ZERO:
            return ZERO
        return KacElt(moved, b.bplus, b.bminus)
    if i < m:
        out = tensor_op("lower", i, dir, (oddset_factor(b.S, i), hw_factor(b.bplus, i)))
        if out is ZERO:
            return ZERO
        return KacElt(out[0], out[1], b.bminus)
    out = tensor_op("upper", i, dir, (oddset_factor(b.S, i), hw_factor(b.bminus, i)))
    if out is ZERO:
        return ZERO
    return KacElt(out[0], b.bplus, out[1])


def kac_highest(m: int, n: int, lam: Weight) -> KacElt:
    return KacElt(
        OddSet.empty(m, n),
        HWElt(LusztigPlus.zero(m), lam_plus(lam, m)),
        HWElt(LusztigMinus.zero(m, n), lam_minus(lam, m)),
    )


def lam_plus(lam: Weight, m: int) -> Weight:
    return Weight(lam.coords[:m] + (0,) * (len(lam.coords) - m))


def lam_minus(lam: Weight, m: int) -> Weight:
    return Weight((0,) * m + lam.coords[m:])


# -- the bicrystal partition of the odd subsets -----------------------------------


def bicrystal_decompose(m: int, n: int) -> dict[tuple[int, ...], list[OddSet]]:
    """Partition all 2^(mn) odd subsets into their bicrystal classes.

    Every subset is raised to its bi-highest element with the even-index
    operators of both blocks; classes are keyed by the partition formed by
    that element's row counts, bottom row first.
    """
    if m * n > 25:
        raise ValueError("size cap exceeded")
    ell = m + n
    indices = [i for i in range(1, ell) if i != m]
    all_pairs = [(a, b) for a in range(1, m + 1) for b in range(m + 1, ell + 1)]
    groups: dict[OddSet, list[OddSet]] = {}
    for mask in product((0, 1), repeat=len(all_pairs)):
        S = OddSet(m, n, frozenset(p for p, on in zip(all_pairs, mask) if on))
        cur = S
        raised = True
        while raised:
            raised = False
            for i in indices:
                up = oddset_op(i, "e", cur)
                if up is not ZERO:
                    cur = up
                    raised = True
                    break
        groups.setdefault(cur, []).append(S)
    out: dict[tuple[int, ...], list[OddSet]] = {}
    for top, members in groups.items():
        # Bi-highest elements are bottom-left justified, so the row counts
        # read from the bottom row up form the partition label.
        rows = [sum(1 for a, b in top.bits if a == r) for r in range(m, 0, -1)]
        cols = [sum(1 for a, b in top.bits if b == c) for c in range(m + 1, ell + 1)]
        lam = tuple(rows)
        if list(lam) != sorted(rows, reverse=True):
            raise AssertionError(f"bi-highest rows not a partition: {top}")
        if cols != sorted(cols, reverse=True):
            raise AssertionError(f"bi-highest columns not a partition: {top}")
        if lam in out:
            raise AssertionError(f"two classes share the label {lam}")
        out[lam] = sorted(members, key=lambda s: sorted(s.bits))
    return out


# -- JSON ---------------------------------------------------------------------


def to_json(elt) -> dict:
    if isinstance(elt, OddSet):
        return {
            "kind": "oddset",
            "m": elt.m,
            "n": elt.n,
            "bits": [list(p) for p in sorted(elt.bits)],
        }
    if isinstance(elt, LusztigPlus):
        return {
            "kind": "lplus",
            "m": elt.m,
            "mult": {f"{a},{b}": c for (a, b), c in zip(elt.roots(), elt.mult) if c},
        }
    if isinstance(elt, LusztigMinus):
        return {
            "kind": "lminus",
            "m": elt.m,
            "n": elt.n,
            "mult": {f"{a},{b}": c for (a, b), c in zip(elt.roots(), elt.mult) if c},
        }
    if isinstance(elt, HWElt):
        return {
            "kind": "hw",
            "base": to_json(elt.base),
            "shift": list(elt.shift.coords),
        }
    if isinstance(elt, KacElt):
        return {
            "kind": "kac",
            "S": to_json(elt.S),
            "bplus": to_json(elt.bplus),
            "bminus": to_json(elt.bminus),
        }
    raise TypeError(f"not a crystal element: {elt!r}")


def from_json(data: dict):
    kind = data["kind"]
    if kind == "oddset":
        return OddSet.of(data["m"], data["n"], [tuple(p) for p in data["bits"]])
    if kind == "lplus":
        entries = {
            tuple(int(x) for x in k.split(",")): v for k, v in data["mult"].items()
        }
        return LusztigPlus.of(data["m"], entries)
    if kind == "lminus":
        entries = {
            tuple(int(x) for x in k.split(",")): v for k, v in data["mult"].items()
        }
        return LusztigMinus.of(data["m"], data["n"], entries)
    if kind == "hw":
        return HWElt(from_json(data["base"]), Weight(tuple(data["shift"])))
    if kind == "kac":
        return KacElt(
            from_json(data["S"]), from_json(data["bplus"]), from_json(data["bminus"])
        )
    raise ValueError(f"unknown kind {kind!r}")
