"""Combinatorial crystal models for gl(m|n).

Three kinds of raw data: subsets of the odd negative roots (binary m x n
matrices), multiplicity arrays over the even positive roots of the m|0 and
0|n blocks in their convex orders, and highest-weight truncations of the
latter.  All operators follow the same signature discipline: read a +/-
sequence from the data, cancel (+,-) pairs by a stack scan, then act at
the leftmost surviving + (lowering) or the rightmost surviving - (raising).
ZERO is an explicit sentinel so every operator is total.

Every crystal on these data is a ``Triple``: one odd subset and one array
per even block, free or truncated.  All four kinds are defined here, so
``from_json`` decodes each without importing another module: ``KacElt``
(both blocks truncated), ``BInfElt`` (both free), ``XElt`` (the minus block
truncated, over a shift) and ``ProductElt`` (the model product, with an
m x 1 subset).  One operator, ``triple_op``, routes between the factors by
the product rules, with the odd index acting on the subset alone.  The
convex orders of the even roots are those of ``superpbw``, shared with the
algebraic route.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache, lru_cache
from itertools import zip_longest

from .superpbw import Weight, minus_roots, plus_roots


class _ZeroType:
    __slots__ = ()

    def __repr__(self) -> str:
        return "ZERO"

    def __bool__(self) -> bool:
        return False


ZERO = _ZeroType()

# The most elements any enumeration builds; a larger request is refused.
ENUMERATION_LIMIT = 200_000


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


def _check_dir(dir: str) -> None:
    if dir not in ("e", "f"):
        raise ValueError(f"bad direction {dir!r}")


@cache
def _position(roots: tuple[tuple[int, int], ...]) -> dict[tuple[int, int], int]:
    return {r: k for k, r in enumerate(roots)}


# -- elements -----------------------------------------------------------------


class OddSet:
    """A subset of the odd negative roots, entry (a, b) for -delta_a+delta_b.

    The subset is an int mask: entry (a, b) is bit (a-1)*n + (b-m-1), so
    row a of the m x n matrix is the n-bit field from bit (a-1)*n, column b
    is every n-th bit from bit b-m-1, and the first box (1, m+1) is bit 0.
    Equality and hashing read (m, n, mask); ``bits``, the same subset as a
    frozenset of entries, is derived on first use.  Instances are immutable
    by convention, so each also keeps what is read off it on first use: its
    weight, and its reduced signature per index (``_scans``, a list indexed
    by i, made on the first scan).
    """

    __slots__ = ("m", "n", "mask", "_bits", "_scans", "_weight")

    def __init__(self, m: int, n: int, bits) -> None:
        mask = 0
        for a, b in bits:
            if not (1 <= a <= m < b <= m + n):
                raise ValueError(f"bad odd entry {(a, b)}")
            mask |= 1 << ((a - 1) * n + b - m - 1)
        self.m = m
        self.n = n
        self.mask = mask
        self._bits = bits if isinstance(bits, frozenset) else None
        self._scans = self._weight = None

    @classmethod
    def empty(cls, m: int, n: int) -> "OddSet":
        return _oddset(m, n, 0)

    @classmethod
    def of(cls, m: int, n: int, pairs) -> "OddSet":
        return cls(m, n, frozenset((a, b) for a, b in pairs))

    @property
    def bits(self) -> frozenset[tuple[int, int]]:
        if self._bits is None:
            m, n, mask = self.m, self.n, self.mask
            self._bits = frozenset(
                (k // n + 1, k % n + m + 1) for k in range(m * n) if mask >> k & 1
            )
        return self._bits

    def __eq__(self, other) -> bool:
        if other.__class__ is not OddSet:
            return NotImplemented
        return self.mask == other.mask and self.m == other.m and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.mask))

    def __repr__(self) -> str:
        return f"OddSet(m={self.m}, n={self.n}, bits={self.bits!r})"

    def weight(self) -> Weight:
        if self._weight is None:
            m, n, mask = self.m, self.n, self.mask
            row, col = (1 << n) - 1, _column_mask(m, n)
            rows = [-(mask >> a & row).bit_count() for a in range(0, m * n, n)]
            self._weight = Weight(tuple(rows + [(mask >> c & col).bit_count() for c in range(n)]))
        return self._weight

    def degree(self) -> int:
        # entry (a, b) has degree b - a, and its weight is -delta_a + delta_b
        return sum(j * c for j, c in enumerate(self.weight().coords, 1))

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        m, n, mask = self.m, self.n, self.mask
        return tuple(tuple(mask >> (a * n + c) & 1 for c in range(n)) for a in range(m))


def _oddset(m: int, n: int, mask: int) -> OddSet:
    """Wrap a mask that is already a valid subset, skipping the entry check."""
    S = object.__new__(OddSet)
    S.m = m
    S.n = n
    S.mask = mask
    S._bits = S._scans = S._weight = None
    return S


@cache
def _column_mask(m: int, n: int) -> int:
    """The bits of the first column, (a, m+1) for every row a."""
    return sum(1 << (a * n) for a in range(m))


def odd_subsets(m: int, n: int, cap: int | None = None, boxes=None) -> list[OddSet]:
    """Every odd subset on boxes (default all m*n) of degree at most cap.

    The order is that of itertools.product((0, 1), ...) over the boxes in
    the given order: the first box is the most significant bit.  The degree
    of an entry (a, b) is b - a.  Refused, counted by degree, when there
    are more than ENUMERATION_LIMIT of them.
    """
    if boxes is None:
        boxes = [(a, b) for a in range(1, m + 1) for b in range(m + 1, m + n + 1)]
    heights = [b - a for a, b in boxes]
    cap = sum(heights) if cap is None else cap
    if _count_upto(cap, heights, False) > ENUMERATION_LIMIT:
        raise ValueError("odd subsets exceed the enumeration limit")
    # the boxes' bits are distinct, so a sum of them is their union
    slots = (((0, 0), (1 << ((a - 1) * n + b - m - 1), h)) for (a, b), h in zip(boxes, heights))
    return [_oddset(m, n, v) for v in _capped_sums(0, slots, cap)]


def _capped_sums(zero, slots, cap: int) -> list:
    """The sums zero + x_1 + x_2 + ... of one (x, degree) step per slot, of
    degree at most cap, in itertools.product order (first slot slowest)."""
    out = [(zero, 0)]
    for steps in slots:
        out = [(v + x, d + e) for v, d in out for x, e in steps if d + e <= cap]
    return [v for v, _ in out]


def _count_upto(cap: int, heights, free: bool) -> int:
    """How many multisets of the given root heights have degree at most cap,
    each height used at most once, or any number of times when free.

    Callers only compare the count with ENUMERATION_LIMIT, so once a lower
    bound passes the limit it is returned in place of the exact count: a
    free count is at least cap // min(heights) + 1 (the powers of the lowest
    root), and the count over the first heights only grows with each
    further height.  No list grows with a huge cap: a 0/1 count stops at
    the total height.
    """
    if not heights:
        return 1
    if not free:
        cap = min(cap, sum(heights))
    elif cap // min(heights) >= ENUMERATION_LIMIT:
        return cap // min(heights) + 1
    poly = [1] + [0] * cap
    for h in heights:
        for d in range(h, cap + 1) if free else range(cap, h - 1, -1):
            poly[d] += poly[d - h]
        count = sum(poly)
        if count > ENUMERATION_LIMIT:
            break
    return count


class _Block:
    """What the Lusztig data of the two even blocks share.

    A subclass names the function giving its roots in convex order from its
    rank (``_roots``) and its rank fields, the ones before ``mult``
    (``_rank``): (m,) or (m, n).
    """

    @classmethod
    def zero(cls, *rank: int):
        return cls(*rank, (0,) * len(cls._roots(*rank)))

    @classmethod
    def of(cls, *args):
        """The data from the rank then a dict {root: multiplicity}."""
        *rank, entries = args
        roots = cls._roots(*rank)
        unknown = set(entries) - set(roots)
        if unknown:
            raise ValueError(f"not {cls.__name__} roots: {sorted(unknown)}")
        return cls(*rank, tuple(entries.get(r, 0) for r in roots))

    def roots(self) -> tuple[tuple[int, int], ...]:
        return self._roots(*self._rank())

    def entry(self, a: int, b: int) -> int:
        return self.mult[_position(self.roots())[a, b]]

    def _shift(self, src: int | None, dst: int | None):
        """Move one unit of multiplicity from position src to dst (None: none)."""
        out = list(self.mult)
        if src is not None:
            out[src] -= 1
        if dst is not None:
            out[dst] += 1
        return type(self)(*self._rank(), tuple(out))

    def weight(self) -> Weight:
        c = [0] * sum(self._rank())
        for (a, b), e in zip(self.roots(), self.mult):
            c[a - 1] -= e
            c[b - 1] += e
        return Weight(tuple(c))

    def degree(self) -> int:
        return sum(c * (b - a) for (a, b), c in zip(self.roots(), self.mult))


@dataclass(unsafe_hash=True)
class LusztigPlus(_Block):
    """Multiplicities over plus_roots(m), the Lusztig data of the m|0 block."""

    m: int
    mult: tuple[int, ...]
    _roots = staticmethod(plus_roots)

    def _rank(self) -> tuple[int, ...]:
        return (self.m,)


@dataclass(unsafe_hash=True)
class LusztigMinus(_Block):
    """Multiplicities over minus_roots(m, n), the Lusztig data of the 0|n block."""

    m: int
    n: int
    mult: tuple[int, ...]
    _roots = staticmethod(minus_roots)

    def _rank(self) -> tuple[int, ...]:
        return self.m, self.n


@dataclass(unsafe_hash=True)
class HWElt:
    """A Lusztig element tensored with t_shift, membership per epsilon-star."""

    base: LusztigPlus | LusztigMinus
    shift: Weight
    kind = "hw"
    holds = ((LusztigPlus, LusztigMinus), Weight)

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
        # the m|0 block's weight pads with 0 to the length of the shift
        pairs = zip_longest(self.base.weight().coords, self.shift.coords, fillvalue=0)
        return Weight(tuple([b + s for b, s in pairs]))

    def degree(self) -> int:
        return self.base.degree()

    def eps(self, i: int) -> int:
        return lusztig_eps(i, self.base)

    def phi(self, i: int) -> int:
        return lusztig_phi(i, self.base) + cartan(self.shift, i, self.base.m)


@dataclass(unsafe_hash=True)
class Triple:
    """An odd subset, m|0 data and 0|n data, each block free (Lusztig
    data) or truncated (an HWElt).  The kinds differ only in that choice:
    each subclass names its JSON ``kind`` and the types its fields ``holds``,
    which decoding checks.  Kinds never compare equal.

    Elements are immutable by convention, as an OddSet is, and not frozen:
    a frozen dataclass sets each field through ``object.__setattr__``, a
    cost paid on every element an operator builds.
    """

    S: OddSet
    bplus: LusztigPlus | HWElt
    bminus: LusztigMinus | HWElt

    def weight(self) -> Weight:
        # a part shorter than m+n (the m|0 block, an m x 1 subset) pads with 0
        parts = (self.S.weight().coords, self.bplus.weight().coords, self.bminus.weight().coords)
        return Weight(tuple([s + p + q for s, p, q in zip_longest(*parts, fillvalue=0)]))

    def degree(self) -> int:
        return self.S.degree() + self.bplus.degree() + self.bminus.degree()

    def rebuild(self, S: OddSet, bplus, bminus) -> "Triple":
        """The element of the same kind on new data."""
        return self.__class__(S, bplus, bminus)


class KacElt(Triple):
    """An element of the Kac-module crystal: odd subset and two truncations."""

    kind = "kac"
    holds = (OddSet, HWElt, HWElt)


class BInfElt(Triple):
    """An element of the limit crystal: odd subset and two free blocks."""

    kind = "binf"
    holds = (OddSet, LusztigPlus, LusztigMinus)


@dataclass(unsafe_hash=True)
class XElt(Triple):
    """A triple with free plus data over a shift and a truncated minus block."""

    shift: Weight
    kind = "xelt"
    holds = (OddSet, LusztigPlus, HWElt, Weight)

    def weight(self) -> Weight:
        return super().weight() + self.shift

    def rebuild(self, S: OddSet, bplus, bminus) -> "XElt":
        return XElt(S, bplus, bminus, self.shift)


class ProductElt(Triple):
    """A pair: boundary-column data (S, an m x 1 subset) with free plus
    block, and a free minus block."""

    kind = "product"
    holds = (OddSet, LusztigPlus, LusztigMinus)


# the classes from_json rebuilds field by field, by their JSON kind
_KINDS = {cls.kind: cls for cls in (HWElt, KacElt, BInfElt, XElt, ProductElt)}


# -- the signature engine ------------------------------------------------------


@cache
def _lanes(m: int, n: int, i: int) -> tuple[int, int, int, int]:
    """Where the signature of an even index i reads an m x n mask.

    For i < m the + letters lie on row i+1 and the - letters on row i, read
    column by column; for i > m on columns i and i+1, read row by row.
    Returns the shifts that bring the + and - lanes down to the first row
    or column, the bits of that lane, and the bit pair a move there swaps.
    """
    if not 0 < i < m + n or i == m:
        raise ValueError(f"index {i} out of range")
    if i < m:
        plus, minus, lane = i * n, (i - 1) * n, (1 << n) - 1
    else:
        plus, minus, lane = i - m - 1, i - m, _column_mask(m, n)
    return plus, minus, lane, 1 << plus | 1 << minus


@lru_cache(maxsize=1 << 13)
def _reduce(up: int, down: int) -> tuple[int, int, int, int]:
    """The reduced signature of two lane words, as (phi, eps, first, last).

    Bit k of up is a + letter and bit k of down a - letter, read from bit 0
    up, the + before the - at one bit; each - cancels the nearest open +.
    phi and eps count the surviving + and - letters, first is the bit of
    the first surviving + and last that of the last surviving - (0 when
    there is none).  The words recur across eps, phi, e and f of one
    element and across elements, so the result is memoised; the bound
    keeps a long sweep's table to a few MB.
    """
    pluses = eps = last = 0
    both = up | down
    while both:
        low = both & -both
        both ^= low
        if up & low:
            pluses |= low
        if down & low:
            if pluses:
                pluses ^= 1 << pluses.bit_length() - 1
            else:
                eps += 1
                last = low
    return pluses.bit_count(), eps, pluses & -pluses, last


def _oddset_scan(S: OddSet, i: int) -> tuple[int, int, int, int]:
    """The reduced signature of S at index i: (phi, eps, flip_f, flip_e),
    where flip_f and flip_e are the masks f and e toggle (0: the operator
    gives ZERO).  At the odd index i = m, e empties and f fills the box
    (m, m+1).  Kept in S._scans on first read: eps, phi, e and f of one
    element, and the axioms on its neighbours, read it again."""
    scans = S._scans
    if scans is None:
        scans = S._scans = [None] * (S.m + S.n)
    elif 0 < i < len(scans) and scans[i] is not None:
        return scans[i]
    if i == S.m:
        bit = 1 << (S.m - 1) * S.n
        scan = (0, 1, 0, bit) if S.mask & bit else (1, 0, bit, 0)
    else:
        plus, minus, lane, pair = _lanes(S.m, S.n, i)
        phi, eps, first, last = _reduce(S.mask >> plus & lane, S.mask >> minus & lane)
        scan = phi, eps, pair * first, pair * last
    scans[i] = scan
    return scan


def _oddset_move(S: OddSet, dir: str, scan):
    """Act at the first surviving + (f) or the last surviving - (e) of a scan."""
    flip = scan[2] if dir == "f" else scan[3]
    return _oddset(S.m, S.n, S.mask ^ flip) if flip else ZERO


def oddset_op(i: int, dir: str, S: OddSet):
    """Crystal operator on an odd subset; returns an OddSet or ZERO."""
    _check_dir(dir)
    return _oddset_move(S, dir, _oddset_scan(S, i))


def oddset_eps(i: int, S: OddSet) -> int:
    return _oddset_scan(S, i)[1]


def oddset_phi(i: int, S: OddSet) -> int:
    return _oddset_scan(S, i)[0]


@cache
def _letters(rank: tuple[int, ...], i: int, star: bool) -> tuple:
    """Signature letters of an even block at index i, as (sign, src, dst).

    rank is (m,) for the m|0 block and (m, n) for the 0|n block.  src and
    dst are positions in ``mult``: the letter occurs mult[src] times, and
    each copy moves one unit from src to dst (dst None: the unit is
    dropped).  The plain m|0 block and the starred 0|n block read their
    columns right to left, the other two their rows top down; the diagonal
    entry (i, i+1) comes last.
    """
    plus = len(rank) == 1
    m = rank[0]
    lo, hi = (1, m) if plus else (m + 1, sum(rank))
    if not lo <= i < hi:
        raise ValueError(f"index {i} not in the {'m|0' if plus else '0|n'} block")
    pos = _position(plus_roots(m) if plus else minus_roots(*rank))
    letters = []
    if plus != star:
        for col in range(hi, i + 1, -1):
            letters.append((-1, pos[i, col], pos[i + 1, col]))
            letters.append((1, pos[i + 1, col], pos[i, col]))
    else:
        for row in range(lo, i):
            letters.append((-1, pos[row, i + 1], pos[row, i]))
            letters.append((1, pos[row, i], pos[row, i + 1]))
    letters.append((-1, pos[i, i + 1], None))
    return tuple(letters)


@cache
def _pairing(rank: tuple[int, ...], i: int) -> tuple[tuple[int, int], ...]:
    """The pairing of an even block's weight with the i-th simple coroot,
    as (position, coefficient) pairs over ``mult``: the block at i pairs to
    the sum of mult[position] * coefficient, without building its weight."""
    m, ell = rank[0], sum(rank)
    roots = plus_roots(m) if len(rank) == 1 else minus_roots(*rank)
    pairs = ((k, cartan(_delta(ell, [(-1, a), (1, b)]), i, m)) for k, (a, b) in enumerate(roots))
    return tuple((k, c) for k, c in pairs if c)


def _block_pairing(b: LusztigPlus | LusztigMinus, i: int) -> int:
    """cartan(b.weight(), i, b.m), read from the multiplicities."""
    mult = b.mult
    return sum(mult[k] * c for k, c in _pairing(b._rank(), i))


def _lusztig_scan(b: LusztigPlus | LusztigMinus, i: int, star: bool):
    """The reduced signature of b at i, as (plus, eps, first, last, diag):
    the counts of surviving + and - letters, the first surviving + and the
    last surviving - letter (None when there is none), and the position of
    the diagonal entry (i, i+1).  A letter read c times counts as c copies
    at once."""
    letters = _letters(b._rank(), i, star)
    mult = b.mult
    plus = eps = 0
    first = last = None
    for letter in letters:
        c = mult[letter[1]]
        if not c:
            continue
        if letter[0] > 0:
            if not plus:
                first = letter
            plus += c
        elif c > plus:
            eps += c - plus
            plus = 0
            last = letter
        else:
            plus -= c
    return plus, eps, first if plus else None, last, letters[-1][1]


def _lusztig_move(b: LusztigPlus | LusztigMinus, dir: str, scan):
    """f acts at the first surviving + or else adds to the diagonal entry;
    e acts at the last surviving - or dies."""
    _, _, first, last, diag = scan
    if dir == "e":
        return ZERO if last is None else b._shift(*last[1:])
    return b._shift(None, diag) if first is None else b._shift(*first[1:])


def lusztig_op(i: int, dir: str, b: LusztigPlus | LusztigMinus):
    """Crystal operator on Lusztig data; f always succeeds, e may give ZERO."""
    _check_dir(dir)
    return _lusztig_move(b, dir, _lusztig_scan(b, i, False))


def lusztig_eps(i: int, b: LusztigPlus | LusztigMinus) -> int:
    return _lusztig_scan(b, i, False)[1]


def lusztig_phi(i: int, b: LusztigPlus | LusztigMinus) -> int:
    """The defined phi of the infinity crystal (may be negative)."""
    return lusztig_eps(i, b) + _block_pairing(b, i)


def epsilon_star(i: int, b: LusztigPlus | LusztigMinus) -> int:
    """Starred string length, the membership bound for truncations."""
    return _lusztig_scan(b, i, True)[1]


def lusztig_star_op(i: int, dir: str, b: LusztigPlus | LusztigMinus):
    """Starred crystal operator, the lusztig_op conjugated by the involution."""
    _check_dir(dir)
    return _lusztig_move(b, dir, _lusztig_scan(b, i, True))


def _hw_move(hw: HWElt, dir: str, scan):
    moved = _lusztig_move(hw.base, dir, scan)
    if moved is ZERO:
        return ZERO
    out = HWElt(moved, hw.shift)
    return out if out.is_member() else ZERO


def hw_op(i: int, dir: str, hw: HWElt):
    """Crystal operator on a truncation: the Lusztig operator, kept if a member."""
    _check_dir(dir)
    return _hw_move(hw, dir, _lusztig_scan(hw.base, i, False))


# -- tensor routing -------------------------------------------------------------


def _phi_side_acts(dir: str, phi: int, eps: int) -> bool:
    """The product rule: the operator acts on the factor whose phi is compared
    with the other factor's eps when phi > eps (f) or phi >= eps (e)."""
    return phi >= eps if dir == "e" else phi > eps


def pair_op(i: int, dir: str, S: OddSet, b):
    """Route e_i or f_i on the pair S (x) b; returns (S', b') or ZERO.

    S is an odd subset.  The index alone picks the rule.  For i < m, b is
    an odd subset, Lusztig data or a truncation, and the lower rule
    compares phi of S with eps of b.  At i = m the odd index acts on S
    alone.  For i > m, b is a truncation (an HWElt), and the upper rule
    compares phi of b with eps of S.  Only the two compared numbers are
    computed.
    """
    if i == S.m:
        moved = oddset_op(i, dir, S)
        return ZERO if moved is ZERO else (moved, b)
    _check_dir(dir)
    scan = _oddset_scan(S, i)
    if isinstance(b, OddSet):
        bscan, move = _oddset_scan(b, i), _oddset_move
    elif isinstance(b, HWElt):
        bscan, move = _lusztig_scan(b.base, i, False), _hw_move
    else:
        bscan, move = _lusztig_scan(b, i, False), _lusztig_move
    if i < S.m:
        act_left = _phi_side_acts(dir, scan[0], bscan[1])
    else:
        phi = bscan[1] + _block_pairing(b.base, i) + cartan(b.shift, i, S.m)
        act_left = not _phi_side_acts(dir, phi, scan[1])
    if act_left:
        moved = _oddset_move(S, dir, scan)
        return ZERO if moved is ZERO else (moved, b)
    moved = move(b, dir, bscan)
    return ZERO if moved is ZERO else (S, moved)


# -- the Kac-module crystal -------------------------------------------------------


def triple_op(i: int, dir: str, b: Triple):
    """Crystal operator on a triple of any kind; the same kind, or ZERO.

    Indices up to m act on the pair S (x) bplus, where pair_op moves S
    alone at i = m.  Above m, a truncated bminus block (an HWElt) is paired
    with S, and a free one moves on its own.
    """
    S, plus, minus = b.S, b.bplus, b.bminus
    if i <= S.m:
        out = pair_op(i, dir, S, plus)
        return ZERO if out is ZERO else b.rebuild(out[0], out[1], minus)
    if isinstance(minus, HWElt):
        out = pair_op(i, dir, S, minus)
        return ZERO if out is ZERO else b.rebuild(out[0], plus, out[1])
    moved = lusztig_op(i, dir, minus)
    return ZERO if moved is ZERO else b.rebuild(S, plus, moved)


kac_op = triple_op


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


def string_length(op, i: int, dir: str, b) -> int:
    """How many times op(i, dir, .) acts on b before giving ZERO."""
    k = 0
    while True:
        b = op(i, dir, b)
        if b is ZERO:
            return k
        k += 1


def lower_along(op, word, b):
    """Apply op(i, "f", .) to b for each i of word in turn; ZERO once a step dies."""
    for i in word:
        b = op(i, "f", b)
        if b is ZERO:
            return ZERO
    return b


def raise_step(op, indices, b):
    """One step of raise_to_top: (i, op(i, "e", b)) for the lowest index i
    in indices that acts on b, or None when none does."""
    for i in indices:
        up = op(i, "e", b)
        if up is not ZERO:
            return i, up
    return None


def raise_to_top(op, indices, b):
    """Raise b with op until no index in indices acts, lowest index first.

    Returns the top element and the word of indices applied, in order.
    """
    word: list[int] = []
    while step := raise_step(op, indices, b):
        i, b = step
        word.append(i)
    return b, word


# -- the bicrystal partition of the odd subsets -----------------------------------


def bicrystal_decompose(m: int, n: int) -> dict[tuple[int, ...], list[OddSet]]:
    """Partition all 2^(mn) odd subsets into their bicrystal classes.

    Every subset is raised to its bi-highest element with the even-index
    operators of both blocks; classes are keyed by the partition formed by
    that element's row counts, bottom row first.  Beyond ENUMERATION_LIMIT
    subsets, odd_subsets refuses before any subset is built.
    """
    indices = [i for i in range(1, m + n) if i != m]
    groups: dict[OddSet, list[OddSet]] = {}
    for S in odd_subsets(m, n):
        groups.setdefault(raise_to_top(oddset_op, indices, S)[0], []).append(S)
    out: dict[tuple[int, ...], list[OddSet]] = {}
    for top, members in groups.items():
        # Bi-highest elements are bottom-left justified, so the row counts
        # read from the bottom row up form the partition label.
        wt = top.weight().coords
        rows = [-c for c in reversed(wt[:m])]
        cols = list(wt[m:])
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

# each block's JSON kind, and the keys of its rank fields in that order
_BLOCKS = {"lplus": (LusztigPlus, ("m",)), "lminus": (LusztigMinus, ("m", "n"))}
_BLOCK_KIND = {cls: (kind, keys) for kind, (cls, keys) in _BLOCKS.items()}


def to_json(elt) -> dict:
    """The JSON form of any crystal element, with ``kind`` as its first key."""
    if isinstance(elt, OddSet):
        return {
            "kind": "oddset",
            "m": elt.m,
            "n": elt.n,
            "bits": [list(p) for p in sorted(elt.bits)],
        }
    if isinstance(elt, _Block):
        kind, keys = _BLOCK_KIND[type(elt)]
        return {
            "kind": kind,
            **dict(zip(keys, elt._rank())),
            "mult": {f"{a},{b}": c for (a, b), c in zip(elt.roots(), elt.mult) if c},
        }
    if isinstance(elt, (HWElt, Triple)):
        out = {"kind": elt.kind}
        for f in fields(elt):
            value = getattr(elt, f.name)
            out[f.name] = list(value.coords) if isinstance(value, Weight) else to_json(value)
        return out
    raise TypeError(f"not a crystal element: {elt!r}")


def from_json(data: dict):
    kind = data["kind"]
    if kind == "oddset":
        return OddSet.of(data["m"], data["n"], [tuple(p) for p in data["bits"]])
    if kind in _BLOCKS:
        cls, keys = _BLOCKS[kind]
        entries = {
            tuple(int(x) for x in k.split(",")): v for k, v in data["mult"].items()
        }
        return cls.of(*(data[k] for k in keys), entries)
    if kind in _KINDS:
        cls = _KINDS[kind]
        values = [data[f.name] for f in fields(cls)]
        values = [Weight(tuple(v)) if isinstance(v, list) else from_json(v) for v in values]
        # each field holds its kind's type, and a truncation wraps its own slot's block
        blocks = [v.base if isinstance(v, HWElt) else v for v in values[1:3]]
        if not all(map(isinstance, values, cls.holds)) or (
            cls is not HWElt and not all(map(isinstance, blocks, (LusztigPlus, LusztigMinus)))
        ):
            raise ValueError(f"the fields of a {kind!r} element hold blocks of another kind")
        return cls(*values)
    raise ValueError(f"unknown kind {kind!r}")
