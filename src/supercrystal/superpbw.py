"""The negative half of quantum gl(m|n) with exact PBW arithmetic.

The algebra is presented on generators f_1 .. f_{l-1} (l = m+n) and worked
with in its PBW basis: ordered monomials in root vectors, one per positive
root, odd exponents at most 1.  Products are straightened by a pair-rewrite
table derived from the quadratic commutation relations between root vectors;
on top of that sit the twisted derivations e'_i and e''_i, the reversal
involution of the 0|n subalgebra, string decompositions along a chosen index,
the Kashiwara-style raising/lowering operators, and the residue map onto the
crystal lattice basis.  The derivations and the reversal act on a PBW
monomial root by root, through their images of single root vectors, which
each RootData tabulates once.

Weights are carried on the negative side throughout: a product of k
generators has weight equal to minus the sum of their simple roots.  All the
twist formulas below assume that sign convention.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache, reduce
from typing import NamedTuple

from .qfield import Poly, QRat, QVec, _order, _padd, _pmul, add_into, q_factorial, q_int

_Q1 = QRat.one()


def _signed_q_power(e: int, s: int) -> QRat:
    """(-1)^s q^e."""
    r = QRat.q_power(e)
    return -r if s % 2 else r


class Weight:
    """An integer weight written in the delta basis (length m+n).

    Immutable by convention.  Equality, hash and repr are those a frozen
    dataclass with the one field ``coords`` would give, so set and dict
    orders keyed by weights are unchanged; a weight is built without the
    per-field ``object.__setattr__`` of a frozen dataclass.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]) -> None:
        self.coords = coords

    def __eq__(self, other) -> bool:
        if other.__class__ is not Weight:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.coords,))

    def __repr__(self) -> str:
        return f"Weight(coords={self.coords!r})"

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(map(operator.add, self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(map(operator.sub, self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def scaled(self, k: int) -> "Weight":
        return Weight(tuple(k * a for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    @classmethod
    def zero(cls, ell: int) -> "Weight":
        return cls((0,) * ell)


class Root(NamedTuple):
    """The positive root delta_a - delta_b, 1 <= a < b <= m+n, as (a, b)."""

    a: int
    b: int

    @property
    def height(self) -> int:
        return self.b - self.a


@cache
def plus_roots(m: int) -> tuple[tuple[int, int], ...]:
    """Positive roots (a, b) of the m|0 block in convex order: by column
    right to left, each column bottom row first."""
    return tuple((a, b) for b in range(m, 1, -1) for a in range(b - 1, 0, -1))


@cache
def minus_roots(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """Positive roots (a, b) of the 0|n block in convex order (lexicographic)."""
    ell = m + n
    return tuple((a, b) for a in range(m + 1, ell) for b in range(a + 1, ell + 1))


def alpha(i: int, ell: int) -> Weight:
    """The simple root delta_i - delta_{i+1} of gl(m|n), m + n = ell."""
    c = [0] * ell
    c[i - 1], c[i] = 1, -1
    return Weight(tuple(c))


class _Table(dict):
    """A memo table of one RootData: reading a key it lacks fills it once
    with fill(rd, key) and keeps the result, so a hit is a dict lookup."""

    __slots__ = ("rd", "fill")

    def __init__(self, rd: "RootData", fill) -> None:
        self.rd, self.fill = rd, fill

    def __missing__(self, key):
        value = self[key] = self.fill(self.rd, key)
        return value


class RootData:
    """Root system bookkeeping for gl(m|n) plus the pair-rewrite table.

    Positive roots are listed in the convex order used by the PBW basis:
    all odd roots first (by column, then bottom row first), then the m|0
    block (by reversed column), then the 0|n block (lexicographic).  The
    instance keeps what it computes in ``_Table``s, each filled key by key
    on first read and listed in ``__init__`` with its key and fill, so
    reuse one instance per (m, n).  The string operators and the lattice
    expansion are Q(q)-linear, so their tables are keyed per monomial; for
    i > m the monomial is the 0|n factor with the odd and m|0 exponents
    zeroed.  ``_ladder`` holds the rung scalars of the string operators,
    free of rank, as one growing list per direction.
    """

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise ValueError("need m, n >= 1")
        self.m = m
        self.n = n
        self.ell = m + n
        self.index_set = tuple(range(1, self.ell))

        odd = [Root(a, b) for b in range(m + 1, self.ell + 1) for a in range(m, 0, -1)]
        plus = [Root(a, b) for a, b in plus_roots(m)]
        minus = [Root(a, b) for a, b in minus_roots(m, n)]
        self.odd_count = len(odd)
        self.plus_count = len(plus)
        self.minus_count = len(minus)
        self.minus_start = self.odd_count + self.plus_count
        self.roots: tuple[Root, ...] = tuple(odd + plus + minus)
        self.root_index = {r: k for k, r in enumerate(self.roots)}
        self.nroots = len(self.roots)
        self._simple_idx = {i: self.root_index[Root(i, i + 1)] for i in self.index_set}

        self._pair_table = self._build_pair_table()
        self._ladder: dict[bool, list[QRat]] = {}
        # each memo table with the function that fills it (see _Table)
        self._straightened = _Table(self, RootData._straighten)
        self._words = _Table(self, RootData._sorted_word)
        self._free_root = _Table(self, RootData._ad_expansion)
        self._derivative = _Table(self, _derivative_entry)
        self._sigma = _Table(self, _sigma_entry)
        self._lattice_vec = _Table(self, _lattice_vector)
        self._eladder = _Table(self, _eprime_ladder)
        self._image = _Table(self, _monomial_image)
        self._expansion = _Table(self, _expansion)
        self._triangular = _Table(self, _check_triangular)

    # -- root/weight helpers ------------------------------------------

    def is_odd_index(self, idx: int) -> bool:
        return idx < self.odd_count

    def simple_index(self, i: int) -> int:
        return self._simple_idx[i]

    def alpha(self, i: int) -> Weight:
        return alpha(i, self.ell)

    def root_weight(self, r: Root) -> Weight:
        c = [0] * self.ell
        c[r.a - 1], c[r.b - 1] = 1, -1
        return Weight(tuple(c))

    def form(self, mu: Weight, nu: Weight) -> int:
        """Supersymmetric bilinear form: (delta_i|delta_i) = 1 for i <= m, else -1."""
        return sum(
            (x * y if k < self.m else -x * y)
            for k, (x, y) in enumerate(zip(mu.coords, nu.coords))
        )

    def qform(self, mu: Weight, nu: Weight) -> QRat:
        """The bicharacter q(mu, nu): product of q^(mu_i nu_i) over i <= m
        and (-1/q)^(mu_i nu_i) over i > m."""
        return _signed_q_power(*self._qform_exponent(mu, nu))

    def _qform_exponent(self, mu: Weight, nu: Weight) -> tuple[int, int]:
        """(e, s) with q(mu, nu) = (-1)^s q^e."""
        m = self.m
        even = sum(x * y for x, y in zip(mu.coords[:m], nu.coords[:m]))
        odd = sum(x * y for x, y in zip(mu.coords[m:], nu.coords[m:]))
        return even - odd, odd % 2

    # -- pair rewrite table -------------------------------------------

    def _crossed_pair(self, lo: Root, hi: Root) -> tuple[Root, Root] | None:
        if not (lo.a < hi.b and hi.a < lo.b):
            return None
        g, d = sorted((Root(lo.a, hi.b), Root(hi.a, lo.b)), key=self.root_index.get)
        gi, di = self.root_index[g], self.root_index[d]
        if {g, d} != {lo, hi} and self.root_index[lo] < gi < di < self.root_index[hi]:
            return (g, d)
        return None

    def _build_pair_table(self):
        # each entry: the twist q(hi, lo)^(-1) = sign q^e as (sign, e), and the
        # extra words with their integer Laurent coefficients {exponent: int}
        table = {}
        for hi_i in range(self.nroots):
            for lo_i in range(hi_i):
                lo, hi = self.roots[lo_i], self.roots[hi_i]
                e, s = self._qform_exponent(self.root_weight(hi), self.root_weight(lo))
                crossed = self._crossed_pair(lo, hi)
                is_sum = lo.b == hi.a or hi.b == lo.a
                if crossed and is_sum:
                    raise AssertionError((lo, hi))
                extras = ()
                if crossed:
                    extras = ((tuple(self.root_index[r] for r in crossed), {-1: 1, 1: -1}),)
                elif is_sum:
                    total = Root(lo.a, hi.b) if lo.b == hi.a else Root(hi.a, lo.b)
                    extras = (((self.root_index[total],), {0: 1}),)
                table[(hi_i, lo_i)] = ((-1 if s else 1, -e), extras)
        return table

    # -- straightening --------------------------------------------------

    def _find_inversion(self, w: tuple[int, ...], strategy: str) -> int | None:
        best = None
        for p in range(len(w) - 1):
            a, b = w[p], w[p + 1]
            if a > b or (a == b and a < self.odd_count):
                if strategy == "leftmost":
                    return p
                if strategy == "rightmost":
                    best = p
                elif best is None or (a, p) > (w[best], best):
                    best = p
        return best

    def reduce_root_word(
        self, word: tuple[int, ...], coeff: QRat, strategy: str = "latest"
    ) -> dict[tuple[int, ...], QRat]:
        """Straighten a word of root-vector letters into PBW monomials: the
        word's monomials, kept per (word, strategy), scaled by coeff."""
        reduced = self._straightened[word, strategy]
        if coeff == _Q1:
            return dict(reduced)
        return {mono: coeff * x for mono, x in reduced} if coeff else {}

    def _straighten(self, key: tuple[tuple[int, ...], str]) -> tuple:
        # Every structure constant of the rewrite table is an integer Laurent
        # polynomial, so a word is straightened with {exponent: int}
        # coefficients, and its monomials are kept with QRat ones.
        word, strategy = key
        out: dict[tuple[int, ...], dict[int, int]] = {}
        stack = [(word, {0: 1})]
        while stack:
            w, c = stack.pop()
            p = self._find_inversion(w, strategy)
            if p is None:
                mono = self.word_monomial(w)
                acc = out.setdefault(mono, {})
                for e, x in c.items():
                    add_into(acc, e, x)
                if not acc:
                    del out[mono]
                continue
            a, b = w[p], w[p + 1]
            if a == b:
                continue  # square of an odd root vector
            (sign, shift), extras = self._pair_table[(a, b)]
            twisted = {e + shift: sign * x for e, x in c.items()}
            stack.append((w[:p] + (b, a) + w[p + 2 :], twisted))
            for mid, k in extras:
                ck: dict[int, int] = {}
                for e, x in c.items():
                    for f, y in k.items():
                        add_into(ck, e + f, x * y)
                stack.append((w[:p] + mid + w[p + 2 :], ck))
        return tuple((mono, QRat.from_laurent(d)) for mono, d in out.items())

    def word_monomial(self, sorted_word: tuple[int, ...]) -> tuple[int, ...]:
        mono = [0] * self.nroots
        for idx in sorted_word:
            mono[idx] += 1
        return tuple(mono)

    def monomial_word(self, mono: tuple[int, ...]) -> tuple[int, ...]:
        """The sorted root word of a monomial, kept per monomial: products
        read the words of both factors' monomials again and again."""
        return self._words[mono]

    def _sorted_word(self, mono: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(idx for idx, c in enumerate(mono) for _ in range(c))

    def monomial_weight(self, mono: tuple[int, ...]) -> Weight:
        c = [0] * self.ell
        for idx, e in enumerate(mono):
            if e:
                r = self.roots[idx]
                c[r.a - 1] -= e
                c[r.b - 1] += e
        return Weight(tuple(c))

    def monomial_height(self, mono: tuple[int, ...]) -> int:
        return sum(e * self.roots[idx].height for idx, e in enumerate(mono))

    # -- free-word expansions -------------------------------------------

    def _ad_step(
        self, k: int, terms: dict[tuple[int, ...], QRat]
    ) -> dict[tuple[int, ...], QRat]:
        # ad(f_k) x = f_k x - q(alpha_k, |x|)^{-1} x f_k, with |x| negative
        ak = self.alpha(k)
        out: dict[tuple[int, ...], QRat] = {}
        for w, c in terms.items():
            degw = sum((self.alpha(j) for j in w), Weight.zero(self.ell))
            add_into(out, (k,) + w, c)
            add_into(out, w + (k,), -c * self.qform(ak, degw).inverse())
        return out

    def free_root_vector(self, idx: int) -> dict[tuple[int, ...], QRat]:
        """Expansion of the root vector as a combination of free f-words."""
        return self._free_root[idx]

    def _ad_expansion(self, idx: int) -> dict[tuple[int, ...], QRat]:
        r = self.roots[idx]
        if idx < self.odd_count:
            seq = list(range(self.m - 1, r.a - 1, -1)) + list(range(self.m + 1, r.b))
            terms = {(self.m,): _Q1}
        elif idx < self.minus_start:
            seq = list(range(r.b - 2, r.a - 1, -1))
            terms = {(r.b - 1,): _Q1}
        else:
            seq = list(range(r.a + 1, r.b))
            terms = {(r.a,): _Q1}
        for k in seq:
            terms = self._ad_step(k, terms)
        return terms

    def free_monomial(self, mono: tuple[int, ...]) -> dict[tuple[int, ...], QRat]:
        terms = {(): _Q1}
        for idx in self.monomial_word(mono):
            nxt: dict[tuple[int, ...], QRat] = {}
            for w1, c1 in terms.items():
                for w2, c2 in self.free_root_vector(idx).items():
                    add_into(nxt, w1 + w2, c1 * c2)
            terms = nxt
        return terms


class PBWVector(QVec):
    """An element of the negative half in the PBW basis.

    ``terms`` maps exponent tuples (one slot per positive root, in the
    convex order of the RootData) to nonzero QRat coefficients.
    """

    __slots__ = ("rd", "terms")

    def __init__(self, rd: RootData, terms: dict[tuple[int, ...], QRat] | None = None):
        self.rd = rd
        self.terms = {mono: c for mono, c in (terms or {}).items() if c}

    def space(self) -> RootData:
        return self.rd

    # -- constructors ----------------------------------------------------

    @classmethod
    def unit(cls, rd: RootData) -> "PBWVector":
        return cls(rd, {(0,) * rd.nroots: _Q1})

    @classmethod
    def generator(cls, rd: RootData, i: int) -> "PBWVector":
        return cls.root_monomial(rd, rd.simple_index(i))

    @classmethod
    def root_monomial(cls, rd: RootData, idx: int, power: int = 1) -> "PBWVector":
        if power < 0 or (power > 1 and rd.is_odd_index(idx)):
            raise ValueError("bad root-vector power")
        mono = [0] * rd.nroots
        mono[idx] = power
        return cls(rd, {tuple(mono): _Q1})

    # -- ring structure ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (QRat, int)):
            return self.scale(other)
        if not isinstance(other, PBWVector):
            return NotImplemented
        rd = self.rd
        if other.rd is not rd:
            raise ValueError("vectors of different spaces")
        out: dict[tuple[int, ...], QRat] = {}
        words = rd._words
        right = [(words[m2], c2) for m2, c2 in other.terms.items()]
        for m1, c1 in self.terms.items():
            w1 = words[m1]
            for w2, c2 in right:
                c = c1 * c2
                if w1 and w2 and (
                    w1[-1] > w2[0] or (w1[-1] == w2[0] and rd.is_odd_index(w1[-1]))
                ):
                    reduced = rd.reduce_root_word(w1 + w2, c)
                else:
                    reduced = {rd.word_monomial(w1 + w2): c}
                for mono, cc in reduced.items():
                    add_into(out, mono, cc)
        return PBWVector(rd, out)

    def __rmul__(self, other):
        if isinstance(other, (QRat, int)):
            return self.scale(other)
        return NotImplemented

    # -- grading ---------------------------------------------------------

    def weight(self) -> Weight | None:
        """The (negative) weight; None for zero, error if inhomogeneous."""
        w = None
        for mono in self.terms:
            mw = self.rd.monomial_weight(mono)
            if w is None:
                w = mw
            elif w != mw:
                raise ValueError("inhomogeneous vector has no weight")
        return w

    def degree(self) -> int:
        """Number of generator letters; error if mixed, 0 for zero."""
        degs = {self.rd.monomial_height(m) for m in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError("inhomogeneous vector has no degree")
        return degs.pop()

    def homogeneous_parts(self) -> dict[Weight, "PBWVector"]:
        parts: dict[Weight, dict] = {}
        for mono, c in self.terms.items():
            parts.setdefault(self.rd.monomial_weight(mono), {})[mono] = c
        return {w: PBWVector(self.rd, t) for w, t in parts.items()}

    def __repr__(self):
        if not self.terms:
            return "PBW<0>"
        bits = []
        for mono in sorted(self.terms):
            factors = [
                f"f[{self.rd.roots[i].a},{self.rd.roots[i].b}]" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e
            ]
            body = "*".join(factors) if factors else "1"
            bits.append(f"({self.terms[mono]})*{body}")
        return "PBW<" + " + ".join(bits) + ">"


# -- public operations ------------------------------------------------------


def qform(rd: RootData, mu: Weight, nu: Weight) -> QRat:
    return rd.qform(mu, nu)


def normal_form(
    rd: RootData,
    word,
    coefficient: QRat | int = 1,
    strategy: str = "latest",
) -> PBWVector:
    """Straighten a free word in the generators (list of indices in 1..l-1)."""
    if strategy not in ("latest", "leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if isinstance(coefficient, int):
        coefficient = QRat.from_int(coefficient)
    letters = tuple(rd.simple_index(i) for i in word)
    return PBWVector(rd, rd.reduce_root_word(letters, coefficient, strategy))


def _words(rd: RootData, u: PBWVector):
    return ((rd._words[mono], c) for mono, c in u.terms.items())


def _free_root_words(rd: RootData, idx: int):
    """The root vector's free-word expansion, in simple-root letters."""
    for w, c in rd.free_root_vector(idx).items():
        yield tuple(rd.simple_index(j) for j in w), c


def _derivative_entry(rd: RootData, key: tuple[int, int, int]) -> tuple:
    """e'_i (sign -1) or e''_i (sign 1) of one root vector as (sorted root
    word, coefficient) pairs, and (e, s) with q(alpha_i, root) = (-1)^s q^e.
    A generator's image is known; any other root's is derived from its
    free-word expansion, which reads only the generators' entries.
    """
    i, sign, idx = key
    r = rd.roots[idx]
    if r.height == 1:
        image = (((), _Q1),) if idx == rd.simple_index(i) else ()
    else:
        image = tuple(_words(rd, _derive(rd, i, sign, _free_root_words(rd, idx))))
    return (image, *rd._qform_exponent(rd.alpha(i), rd.root_weight(r)))


def _derive(rd: RootData, i: int, sign: int, words) -> PBWVector:
    # e'_i(x f_b y) sums q(alpha_i, |x|)^(-sign) x e'_i(f_b) y over the letters
    # f_b; |x| is negative, so each letter b of x adds q(alpha_i, b)^(sign)
    table = rd._derivative
    out: dict[tuple[int, ...], QRat] = {}
    for word, c in words:
        expo = parity = 0
        for p, idx in enumerate(word):
            image, e, s = table[i, sign, idx]
            if image:
                twisted = c * _signed_q_power(sign * expo, parity)
                head, tail = word[:p], word[p + 1 :]
                for mid, k in image:
                    for mono, x in rd.reduce_root_word(head + mid + tail, twisted * k).items():
                        add_into(out, mono, x)
            expo += e
            parity += s
    return PBWVector(rd, out)


def eprime(rd: RootData, i: int, u: PBWVector) -> PBWVector:
    """The left twisted derivation dual to multiplication by f_i."""
    return _derive(rd, i, -1, _words(rd, u))


def edoubleprime(rd: RootData, i: int, u: PBWVector) -> PBWVector:
    """The companion derivation with inverted twist."""
    return _derive(rd, i, 1, _words(rd, u))


def _reverse(rd: RootData, words) -> PBWVector:
    # sigma(c f_b1 .. f_bk) = bar(c) (-1/q)^e sigma(f_bk) .. sigma(f_b1), where
    # e sums the gl_n pairing (b_p, b_r) over p < r; each (b, b) is 2, so
    # e = |weight|^2 / 2 - k
    table, out = rd._sigma, PBWVector.zero(rd)
    for word, c in words:
        wt = rd.monomial_weight(rd.word_monomial(word))
        e = sum(x * x for x in wt.coords) // 2 - len(word)
        acc = reduce(PBWVector.__mul__, [table[idx] for idx in reversed(word)], PBWVector.unit(rd))
        out = out + acc.scale(c.bar() * _signed_q_power(-e, e))
    return out


def _sigma_entry(rd: RootData, idx: int) -> PBWVector:
    """sigma_0n of one 0|n root vector: a generator is fixed, and any other
    reverses its free-word expansion, which reads only the generators."""
    if rd.roots[idx].height == 1:
        return PBWVector.root_monomial(rd, idx)
    return _reverse(rd, _free_root_words(rd, idx))


def sigma_0n(rd: RootData, u: PBWVector) -> PBWVector:
    """Bar-semilinear reversal involution of the 0|n subalgebra.

    Fixes each generator f_i (i > m); on a product it reverses the factors
    and twists by (-1/q) to the power of the gl_n form between the degrees
    of the two factors.  Only defined on the subalgebra spanned by 0|n-block
    roots.
    """
    lo = rd.minus_start
    for mono in u.terms:
        if any(e and idx < lo for idx, e in enumerate(mono)):
            raise ValueError("sigma_0n needs a vector in the 0|n subalgebra")
    return _reverse(rd, _words(rd, u))


def f_divided(rd: RootData, i: int, k: int) -> PBWVector:
    """Divided power of a generator: f_i^k / [k]!."""
    if k < 0:
        raise ValueError("negative divided power")
    if i == rd.m and k > 1:
        return PBWVector.zero(rd)
    return PBWVector.root_monomial(rd, rd.simple_index(i), k).scale(
        q_factorial(k).inverse()
    )


def string_decompose(rd: RootData, i: int, u: PBWVector) -> list[PBWVector]:
    """Split a homogeneous u along divided powers of f_i, for i != m.

    For i < m the strings are left ones, u = sum_k f_i^(k) u_k; for i > m
    right ones, u = sum_k u_k f_i^(k); either way e'_i(u_k) = 0.  The
    returned list is indexed by k; trailing zero entries are trimmed.
    """
    if i == rd.m:
        raise ValueError("no string decomposition along the odd index")
    if u.is_zero():
        return []
    wt = u.weight()  # raises if inhomogeneous
    v = eprime(rd, i, u)
    tail = string_decompose(rd, i, v) if v else []
    comps: list[PBWVector] = [PBWVector.zero(rd)] * (len(tail) + 1)
    acc = u
    ai = rd.alpha(i)
    for j, vj in enumerate(tail):
        if vj.is_zero():
            continue
        if i < rd.m:
            uk = vj.scale(QRat.q_power(j))
            acc = acc - f_divided(rd, i, j + 1) * uk
        else:
            wt_k = wt + ai.scaled(j + 1)
            uk = vj.scale(rd.qform(ai, wt_k).inverse() * QRat.q_power(-j))
            acc = acc - uk * f_divided(rd, i, j + 1)
        comps[j + 1] = uk
    comps[0] = acc
    while comps and comps[-1].is_zero():
        comps.pop()
    return comps


def string_reference(rd: RootData, i: int, u: PBWVector, lower: bool) -> PBWVector:
    """crystal_f (lower) or crystal_e along i != m, read off string_decompose
    on each weight part of u: the reference the operators are checked
    against.  Right strings (i > m) act on the 0|n factor of each group of
    monomials sharing their odd and m|0 exponents."""
    lo, out = rd.minus_start if i > rd.m else 0, PBWVector.zero(rd)
    groups: dict[tuple[int, ...], dict] = {}
    for mono, c in u.terms.items():
        groups.setdefault(mono[:lo], {})[(0,) * lo + mono[lo:]] = c
    for prefix, terms in groups.items():
        head = PBWVector(rd, {prefix + (0,) * (rd.nroots - lo): _Q1})
        for part in PBWVector(rd, terms).homogeneous_parts().values():
            for k, uk in enumerate(string_decompose(rd, i, part)):
                if uk and (k or lower):
                    fk = f_divided(rd, i, k + 1 if lower else k - 1)
                    e = -rd.form(uk.weight(), rd.alpha(i)) - 2 * k
                    twist = QRat.q_power(e if lower else -e - 2)
                    out = out + head * (fk * uk if i < rd.m else (uk * fk).scale(twist))
    return out


def _ladder_coefficients(rd: RootData, i: int, lower: bool, p: int, length: int) -> list[QRat]:
    """Rung scalars s_0 .. s_{length-1} of the string step along f_i (i != m).

    With d = 1 to lower, -1 to raise, sum_N s_N f_i^(N+d) e'_i^N(u) moves
    each string component f_i^(k) u_k to tau_k f_i^(k+d) u_k.  On left
    strings (i < m), tau_k = 1 and the Gaussian binomial theorem solves the
    triangular system: s_N = q^(N(N-1)/2) (c + prod (1 - q^e)) / [N+d]!, e =
    d, d-2, .., 2-2N-d, c = (-1)^N q^(1-N^2) lowering and 0 raising.  Hence
    raising s_0 = 0, s_1 = 1, s_{N+1} = s_N (q^N - q^(1-N)) / [N], and for N >= 1
    lowering s_N = (-1)^N q^(1-N(N+1)/2) / [N+1]! + (1 - q) q^(-N) s_{N+1}(raising) / [N+1].
    On right strings (i > m), p = (wt, alpha_i), and signed q-powers rescale
    the system by diagonals: s_N(right) = (-1)^(pN) q^((N+d)(N-p+1-d)) s_N(left).
    """
    up = rd._ladder.setdefault(False, [QRat.zero(), _Q1])
    for N in range(len(up) - 1, length):
        up.append(up[N] * QRat.from_laurent({N: 1, 1 - N: -1}) / q_int(N))
    table = rd._ladder.setdefault(True, [_Q1]) if lower else up
    for N in range(len(table), length):
        last = _signed_q_power(1 - N * (N + 1) // 2, N) / q_factorial(N)
        table.append((QRat.from_laurent({-N: 1, 1 - N: -1}) * up[N + 1] + last) / q_int(N + 1))
    d = 1 if lower else -1
    scale = (_signed_q_power((N + d) * (N - p + 1 - d), p * N) for N in range(length))
    return table[:length] if i < rd.m else [s * x for s, x in zip(table, scale)]


def _eprime_ladder(rd: RootData, key: tuple[int, tuple[int, ...]]) -> tuple:
    """The rungs e'_i^N(mono), N = 0, 1, .., up to the last nonzero one:
    climbed once for both directions."""
    i, mono = key
    w, rungs = PBWVector(rd, {mono: _Q1}), []
    while w:
        rungs.append(w)
        w = eprime(rd, i, w)
    return tuple(rungs)


def _monomial_image(rd: RootData, key: tuple[int, bool, tuple[int, ...]]) -> tuple:
    """crystal_f (lower) or crystal_e along i != m of one monomial, as
    (monomial, coefficient) pairs: s_N f_i^(N+-1) w_N summed over the rungs
    w_N = e'_i^N(mono) for left strings (i < m), w_N f_i^(N+-1) s_N for
    right strings (i > m), with the s_N of the monomial's weight."""
    i, lower, mono = key
    ladder = rd._eladder[i, mono]
    p = rd.form(rd.monomial_weight(mono), rd.alpha(i))
    coeffs = _ladder_coefficients(rd, i, lower, p, len(ladder))
    gen, d, out = rd.simple_index(i), 1 if lower else -1, {}
    for N, (wN, s) in enumerate(zip(ladder, coeffs)):
        if s:
            f = PBWVector.root_monomial(rd, gen, N + d)
            for m2, c in (f * wN if i < rd.m else wN * f).terms.items():
                add_into(out, m2, s * c)
    return tuple(out.items())


def _crystal(rd: RootData, i: int, u: PBWVector, lower: bool) -> PBWVector:
    """For i != m the operators are Q(q)-linear, so u is moved term by term.
    A left string (i < m) moves the whole monomial; a right string (i > m)
    moves its 0|n factor, with the odd and m|0 exponents zeroed, and the
    image keeps the monomial's own prefix."""
    if i == rd.m:
        return PBWVector.generator(rd, i) * u if lower else eprime(rd, i, u)
    lo = rd.minus_start if i > rd.m else 0
    out: dict[tuple[int, ...], QRat] = {}
    for mono, c in u.terms.items():
        prefix = mono[:lo]
        for m2, x in rd._image[i, lower, (0,) * lo + mono[lo:]]:
            add_into(out, prefix + m2[lo:], c * x)
    return PBWVector(rd, out)


def crystal_f(rd: RootData, i: int, u: PBWVector) -> PBWVector:
    """Kashiwara-style lowering operator on the negative half."""
    return _crystal(rd, i, u, lower=True)


def crystal_e(rd: RootData, i: int, u: PBWVector) -> PBWVector:
    """Kashiwara-style raising operator on the negative half."""
    return _crystal(rd, i, u, lower=False)


# -- lattice ---------------------------------------------------------------


def _divided_scale(mono: tuple[int, ...]) -> QRat:
    """The product of 1/[e]! over the exponents e of mono."""
    scale = _Q1
    for e in mono:
        if e > 1:
            scale = scale * q_factorial(e).inverse()
    return scale


def lattice_vector(rd: RootData, label: tuple[int, ...]) -> PBWVector:
    """Basis vector of the crystal lattice attached to an exponent label.

    Odd and m|0 exponents contribute the ordered monomial in divided powers;
    the 0|n exponents contribute the sigma image of theirs.
    """
    return rd._lattice_vec[label]


def _lattice_vector(rd: RootData, label: tuple[int, ...]) -> PBWVector:
    lo = rd.minus_start
    prefix, minus = label[:lo] + (0,) * (rd.nroots - lo), (0,) * lo + label[lo:]
    head = PBWVector(rd, {prefix: _divided_scale(prefix)})
    return head * sigma_0n(rd, PBWVector(rd, {minus: _divided_scale(minus)}))


def labels_of_weight(rd: RootData, wt: Weight) -> list[tuple[int, ...]]:
    """All exponent tuples of the given (negative) weight."""
    target = tuple(-c for c in wt.coords)  # positive root-sum coordinates

    def cone_ok(t) -> bool:
        # expressible as a nonnegative root sum only if partial sums stay >= 0
        s = 0
        for c in t:
            s += c
            if s < 0:
                return False
        return s == 0

    if not cone_ok(target):
        return []

    # a depth-first walk fills one exponent array, root by root, and copies
    # it once per label; the entries past idx are 0 whenever it is copied
    out: list[tuple[int, ...]] = []
    expo = [0] * rd.nroots

    def rec(idx: int, t: list[int]) -> None:
        if not any(t):
            out.append(tuple(expo))
            return
        if idx >= rd.nroots:
            return
        r = rd.roots[idx]
        cur = list(t)
        e = 0
        while True:
            expo[idx] = e
            rec(idx + 1, cur)
            e += 1
            if e > 1 and rd.is_odd_index(idx):
                break
            cur[r.a - 1] -= 1
            cur[r.b - 1] += 1
            if not cone_ok(cur):
                break
        expo[idx] = 0

    rec(0, list(target))
    return sorted(out)


def _check_triangular(rd: RootData, wt: Weight) -> bool:
    # Every monomial of weight wt is one of its labels, so lattice vectors
    # that each lead (lex-largest monomial) with their own label form a
    # triangular basis of the weight space.
    for lab in labels_of_weight(rd, wt):
        if max(lattice_vector(rd, lab).terms, default=None) != lab:
            raise AssertionError(
                f"weight {wt.coords}: the lattice vector of label {lab} does not "
                "lead with its label, so the vectors may be linearly dependent"
            )
    return True


def _expansion(rd: RootData, mono: tuple[int, ...]) -> tuple:
    """One monomial over the lattice basis, as (label, coefficient) pairs.

    Each lattice vector's lex-largest monomial is its own label, so peeling
    the lex-largest monomial of the remainder solves the triangular system.
    """
    rd._triangular[rd.monomial_weight(mono)]
    rest, peeled = {mono: _Q1}, []
    while rest:
        lab = max(rest)
        vec = lattice_vector(rd, lab)
        c = rest[lab] / vec.terms[lab]
        peeled.append((lab, c))
        for m2, x in vec.terms.items():
            add_into(rest, m2, -c * x)
    return tuple(peeled)


def lattice_coefficients(rd: RootData, u: PBWVector) -> dict[tuple[int, ...], QRat]:
    """Exact expansion of u over the lattice basis vectors, summed term by
    term from the expansions of its monomials."""
    out: dict[tuple[int, ...], QRat] = {}
    for mono, c in u.terms.items():
        for lab, x in rd._expansion[mono]:
            add_into(out, lab, c * x)
    return out


def in_lattice(rd: RootData, u: PBWVector) -> bool:
    return lattice_residue(rd, u)[0]


def lattice_residue(
    rd: RootData, u: PBWVector
) -> tuple[bool, dict[tuple[int, ...], Fraction] | None]:
    """Residue of u in lattice/q*lattice as a combination of basis labels.

    Non-membership is an outcome, not an error: returns (False, None) when
    some coefficient has a pole at q=0, else (True, residue dict).  Only
    valuations at q = 0 are needed, so each label's coefficient is summed
    as an unreduced pair (N, D) of integer polynomials, with no gcd: for any
    representative, its order at 0 is that of N less that of D, and when
    the two agree, at o, its value there is N[o] / D[o].
    """
    sums: dict[tuple[int, ...], tuple[Poly, Poly]] = {}
    for mono, c in u.terms.items():
        for lab, x in rd._expansion[mono]:
            num, den = _pmul(c.num, x.num), _pmul(c.den, x.den)
            if lab in sums:
                n0, d0 = sums[lab]
                num, den = _padd(_pmul(n0, den), _pmul(num, d0)), _pmul(d0, den)
                if not num:
                    del sums[lab]
                    continue
            sums[lab] = num, den
    out: dict[tuple[int, ...], Fraction] = {}
    for lab, (num, den) in sums.items():
        o, od = _order(num), _order(den)
        if o < od:
            return False, None
        if o == od:
            out[lab] = Fraction(num[o], den[o])
    return True, out


# -- JSON ---------------------------------------------------------------


def to_json(u: PBWVector) -> list[dict]:
    out = []
    for mono in sorted(u.terms):
        out.append(
            {
                "exponents": [[idx, e] for idx, e in enumerate(mono) if e],
                "coeff": str(u.terms[mono]),
            }
        )
    return out


def from_json(rd: RootData, data: list[dict]) -> PBWVector:
    terms: dict[tuple[int, ...], QRat] = {}
    for item in data:
        mono = [0] * rd.nroots
        seen = set()
        for idx, e in item["exponents"]:
            if type(idx) is not int or type(e) is not int:
                raise ValueError(f"root index and exponent must be ints: {[idx, e]!r}")
            if not 0 <= idx < rd.nroots:
                raise ValueError(f"root index {idx} outside 0..{rd.nroots - 1}")
            if idx in seen:
                raise ValueError(f"root index {idx} repeated in one monomial")
            if e < 0:
                raise ValueError("negative exponent")
            if rd.is_odd_index(idx) and e > 1:
                raise ValueError("odd exponent above 1")
            seen.add(idx)
            mono[idx] = e
        add_into(terms, tuple(mono), QRat.parse(item["coeff"]))
    return PBWVector(rd, terms)
