"""Limit crystal of the negative half, assembled from finite truncations.

Elements are triples: an odd subset together with Lusztig data on both even
blocks.  The limit structure is exercised through finite data only: raising
words factor a Kac-module element through its highest-weight pieces
(hw_factorize), replaying those words over a larger dominant weight embeds
one Kac-module crystal into another (theta), and replaying them over a
chosen weight cuts a triple down to that truncation or kills it (kappa_inv).
The parabolic variant keeps the minus block truncated while the plus block
runs free.

The component census rests on splitting the odd roots into the column next
to the block boundary (entries (a, m+1), called X here) and the remaining
columns (Y): every connected component owns exactly one raising-dead triple,
and transporting that triple's plus data through its starred raising word
turns the Y-part into the subset of Y that labels the component uniquely.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, product

from .combicrystal import (
    ZERO,
    HWElt,
    KacElt,
    LusztigMinus,
    LusztigPlus,
    OddSet,
    cartan,
    hw_factor,
    lam_minus,
    lam_plus,
    lusztig_factor,
    lusztig_op,
    lusztig_star_op,
    minus_roots,
    oddset_eps,
    oddset_factor,
    oddset_op,
    plus_roots,
    tensor_op,
)
from .superpbw import Weight

ENUMERATION_LIMIT = 200_000


def _pad(w: Weight, ell: int) -> Weight:
    return Weight(w.coords + (0,) * (ell - len(w.coords)))


def oddset_degree(S: OddSet) -> int:
    return sum(b - a for a, b in S.bits)


def is_dominant(lam: Weight, m: int) -> bool:
    ell = len(lam.coords)
    return all(cartan(lam, i, m) >= 0 for i in range(1, ell) if i != m)


def ample_weight(m: int, n: int, size: int) -> Weight:
    """A dominant weight whose pairing with every even coroot equals size."""
    ell = m + n
    coords = [0] * ell
    for j in range(ell - 2, -1, -1):
        coords[j] = coords[j + 1] + (0 if j + 1 == m else size)
    return Weight(tuple(coords))


# -- the limit crystal ------------------------------------------------------------


@dataclass(frozen=True)
class BInfElt:
    """A triple of free data: odd subset, plus block, minus block."""

    S: OddSet
    bplus: LusztigPlus
    bminus: LusztigMinus

    def weight(self) -> Weight:
        ell = self.S.m + self.S.n
        return self.S.weight() + _pad(self.bplus.weight(), ell) + self.bminus.weight()

    def degree(self) -> int:
        return oddset_degree(self.S) + self.bplus.degree() + self.bminus.degree()


def binf_highest(m: int, n: int) -> BInfElt:
    return BInfElt(OddSet.empty(m, n), LusztigPlus.zero(m), LusztigMinus.zero(m, n))


def binf_op(i: int, dir: str, b: BInfElt):
    """Crystal operator on triples; the minus block moves on its own."""
    m = b.S.m
    if i == m:
        moved = oddset_op(i, dir, b.S)
        if moved is ZERO:
            return ZERO
        return BInfElt(moved, b.bplus, b.bminus)
    if i < m:
        out = tensor_op(
            "boson", i, dir, (oddset_factor(b.S, i), lusztig_factor(b.bplus, i))
        )
        if out is ZERO:
            return ZERO
        return BInfElt(out[0], out[1], b.bminus)
    moved = lusztig_op(i, dir, b.bminus)
    if moved is ZERO:
        return ZERO
    return BInfElt(b.S, b.bplus, moved)


def binf_eps(i: int, b: BInfElt) -> int:
    k = 0
    while True:
        b = binf_op(i, "e", b)
        if b is ZERO:
            return k
        k += 1


def binf_phi(i: int, b: BInfElt) -> int:
    m = b.S.m
    if i == m:
        return 0 if binf_op(i, "f", b) is ZERO else 1
    return binf_eps(i, b) + cartan(b.weight(), i, m)


# -- the parabolic crystal ---------------------------------------------------------


@dataclass(frozen=True)
class XElt:
    """A triple with free plus data and a truncated minus block."""

    S: OddSet
    bplus: LusztigPlus
    bminus: HWElt
    shift: Weight

    def weight(self) -> Weight:
        ell = self.S.m + self.S.n
        return (
            self.S.weight()
            + _pad(self.bplus.weight(), ell)
            + self.bminus.weight()
            + self.shift
        )

    def degree(self) -> int:
        return oddset_degree(self.S) + self.bplus.degree() + self.bminus.base.degree()


def x_highest(m: int, n: int, lam: Weight) -> XElt:
    return XElt(
        OddSet.empty(m, n),
        LusztigPlus.zero(m),
        HWElt(LusztigMinus.zero(m, n), lam_minus(lam, m)),
        lam_plus(lam, m),
    )


def x_op(i: int, dir: str, b: XElt):
    """Crystal operator on the parabolic crystal; the minus block is coupled."""
    m = b.S.m
    if i == m:
        moved = oddset_op(i, dir, b.S)
        if moved is ZERO:
            return ZERO
        return XElt(moved, b.bplus, b.bminus, b.shift)
    if i < m:
        out = tensor_op(
            "boson", i, dir, (oddset_factor(b.S, i), lusztig_factor(b.bplus, i))
        )
        if out is ZERO:
            return ZERO
        return XElt(out[0], out[1], b.bminus, b.shift)
    out = tensor_op("upper", i, dir, (oddset_factor(b.S, i), hw_factor(b.bminus, i)))
    if out is ZERO:
        return ZERO
    return XElt(out[0], b.bplus, out[1], b.shift)


def project_plus(b: XElt):
    """Re-test the plus membership; a Kac-module element or ZERO."""
    plus = HWElt(b.bplus, b.shift)
    if not plus.is_member():
        return ZERO
    return KacElt(b.S, plus, b.bminus)


def embed_dual(b: XElt) -> BInfElt:
    """Forget the minus truncation."""
    return BInfElt(b.S, b.bplus, b.bminus.base)


# -- factorization, embedding, and cutting down ------------------------------------


def hw_factorize(b: KacElt) -> tuple[OddSet, tuple[int, ...], tuple[int, ...]]:
    """Raising words that rebuild a Kac-module element from its highest pieces.

    Returns (S0, xword, yword): applying lowering steps of xword left to
    right to the highest plus element rebuilds bplus, and applying yword the
    same way to the pair (S0, highest minus element) rebuilds (S, bminus).
    """
    m, n = b.S.m, b.S.n
    xword: list[int] = []
    cur = b.bplus.base
    progress = True
    while progress:
        progress = False
        for i in range(1, m):
            up = lusztig_op(i, "e", cur)
            if up is not ZERO:
                cur = up
                xword.append(i)
                progress = True
                break
    if any(cur.mult):
        raise AssertionError("plus block did not raise to the highest element")
    yword: list[int] = []
    S, minus = b.S, b.bminus
    progress = True
    while progress:
        progress = False
        for j in range(m + 1, m + n):
            out = tensor_op("upper", j, "e", (oddset_factor(S, j), hw_factor(minus, j)))
            if out is not ZERO:
                S, minus = out
                yword.append(j)
                progress = True
                break
    if any(minus.base.mult):
        raise AssertionError("minus block did not raise to the highest element")
    return S, tuple(reversed(xword)), tuple(reversed(yword))


def _rebuild_plus(word, shift: Weight, m: int):
    cur = HWElt(LusztigPlus.zero(m), shift)
    for i in word:
        cur = hw_factor(cur, i).apply("f")
        if cur is ZERO:
            return ZERO
    return cur


def _replay_pair(word, S: OddSet, minus: HWElt):
    for j in word:
        out = tensor_op("upper", j, "f", (oddset_factor(S, j), hw_factor(minus, j)))
        if out is ZERO:
            return ZERO
        S, minus = out
    return S, minus


def _check_shifts(b: KacElt, lam: Weight) -> None:
    m = b.S.m
    if b.bplus.shift != lam_plus(lam, m) or b.bminus.shift != lam_minus(lam, m):
        raise ValueError("element does not live over the given weight")


def theta(lam: Weight, mu: Weight, b: KacElt) -> KacElt:
    """Embed an element over lam into the crystal over a larger weight mu."""
    m, n = b.S.m, b.S.n
    _check_shifts(b, lam)
    if not is_dominant(lam, m) or not is_dominant(mu, m):
        raise ValueError("weights must be dominant")
    diff = mu - lam
    if not is_dominant(diff, m) or all(c == 0 for c in diff.coords):
        raise ValueError("target weight must strictly dominate the source")
    S0, xword, yword = hw_factorize(b)
    plus = _rebuild_plus(xword, lam_plus(mu, m), m)
    pair = _replay_pair(yword, S0, HWElt(LusztigMinus.zero(m, n), lam_minus(mu, m)))
    if plus is ZERO or pair is ZERO:
        raise AssertionError("replay over a larger weight must not die")
    return KacElt(pair[0], plus, pair[1])


def kappa(b: KacElt) -> BInfElt:
    """The limit class of a Kac-module element, as a triple of free data."""
    m, n = b.S.m, b.S.n
    S0, xword, yword = hw_factorize(b)
    plus = LusztigPlus.zero(m)
    for i in xword:
        plus = lusztig_op(i, "f", plus)
    minus = LusztigMinus.zero(m, n)
    for j in yword:
        minus = lusztig_op(j, "f", minus)
    return BInfElt(S0, plus, minus)


def kappa_inv(b: BInfElt, lam: Weight):
    """Cut a triple down to the Kac-module crystal over lam; ZERO when it dies.

    The result is the unique element over lam whose factorization data is b.
    It exists only when the plus data fits the plus truncation, the odd
    subset of b heads a raising-dead pair over the minus truncation, and
    lowering the pair along any word rebuilding the minus data survives.
    """
    m, n = b.S.m, b.S.n
    if not is_dominant(lam, m):
        raise ValueError("weight must be dominant")
    plus = HWElt(b.bplus, lam_plus(lam, m))
    if not plus.is_member():
        return ZERO
    lamm = lam_minus(lam, m)
    if any(oddset_eps(j, b.S) > cartan(lamm, j, m) for j in range(m + 1, m + n)):
        return ZERO
    yword: list[int] = []
    cur = b.bminus
    progress = True
    while progress:
        progress = False
        for j in range(m + 1, m + n):
            up = lusztig_op(j, "e", cur)
            if up is not ZERO:
                cur = up
                yword.append(j)
                progress = True
                break
    out = _replay_pair(
        tuple(reversed(yword)), b.S, HWElt(LusztigMinus.zero(m, n), lamm)
    )
    if out is ZERO:
        return ZERO
    return KacElt(out[0], plus, out[1])


# -- member enumeration ------------------------------------------------------------


def _hw_orbit(start: HWElt, indices) -> list[HWElt]:
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for h in frontier:
            for i in indices:
                moved = hw_factor(h, i).apply("f")
                if moved is not ZERO and moved not in seen:
                    seen.add(moved)
                    nxt.append(moved)
        frontier = nxt
    return sorted(seen, key=lambda h: (h.base.degree(), h.base.mult))


def _weyl_dimension(coords: tuple[int, ...]) -> int:
    num = den = 1
    for i, j in combinations(range(len(coords)), 2):
        num *= coords[i] - coords[j] + j - i
        den *= j - i
    return num // den


def kac_size(m: int, n: int, lam: Weight) -> int:
    """Size of the Kac-module crystal over a dominant lam.

    Every odd subset pairs with every member of the two highest-weight
    block crystals, whose sizes are the gl(m) and gl(n) Weyl dimensions.
    """
    return (
        2 ** (m * n)
        * _weyl_dimension(lam.coords[:m])
        * _weyl_dimension(lam.coords[m:])
    )


def kac_elements(m: int, n: int, lam: Weight) -> list[KacElt]:
    """Every member of the Kac-module crystal over lam, in a fixed order."""
    if not is_dominant(lam, m):
        raise ValueError("weight must be dominant")
    if kac_size(m, n, lam) > ENUMERATION_LIMIT:
        raise ValueError("Kac-module crystal exceeds the enumeration limit")
    ell = m + n
    pairs = [(a, b) for a in range(1, m + 1) for b in range(m + 1, ell + 1)]
    plus = _hw_orbit(HWElt(LusztigPlus.zero(m), lam_plus(lam, m)), range(1, m))
    minus = _hw_orbit(
        HWElt(LusztigMinus.zero(m, n), lam_minus(lam, m)), range(m + 1, ell)
    )
    out = []
    for mask in product((0, 1), repeat=len(pairs)):
        S = OddSet(m, n, frozenset(p for p, on in zip(pairs, mask) if on))
        for bp in plus:
            for bm in minus:
                out.append(KacElt(S, bp, bm))
    out.sort(key=lambda k: (sorted(k.S.bits), k.bplus.base.mult, k.bminus.base.mult))
    return out


def _block_vectors(roots, cap: int) -> list[tuple[int, ...]]:
    heights = [b - a for a, b in roots]
    out: list[tuple[int, ...]] = []

    def rec(pos: int, left: int, acc: list[int]) -> None:
        if pos == len(roots):
            out.append(tuple(acc))
            return
        for c in range(left // heights[pos] + 1):
            rec(pos + 1, left - c * heights[pos], acc + [c])

    rec(0, cap, [])
    return out


def enumerate_binf(m: int, n: int, cap: int) -> list[BInfElt]:
    """Every triple of degree at most cap, in a fixed order."""
    if cap < 0:
        raise ValueError("degree cap exceeded")
    ell = m + n
    pairs = [(a, b) for a in range(1, m + 1) for b in range(m + 1, ell + 1)]
    oddsets = []
    for mask in product((0, 1), repeat=len(pairs)):
        bits = frozenset(p for p, on in zip(pairs, mask) if on)
        d = sum(b - a for a, b in bits)
        if d <= cap:
            oddsets.append((d, OddSet(m, n, bits)))
    plus = [
        (LusztigPlus(m, t).degree(), LusztigPlus(m, t))
        for t in _block_vectors(plus_roots(m), cap)
    ]
    minus = [
        (LusztigMinus(m, n, t).degree(), LusztigMinus(m, n, t))
        for t in _block_vectors(minus_roots(m, n), cap)
    ]
    if len(oddsets) * len(plus) * len(minus) > ENUMERATION_LIMIT:
        raise ValueError("degree cap exceeded")
    out = []
    for ds, S in oddsets:
        for dp, bp in plus:
            if ds + dp > cap:
                continue
            for dm, bm in minus:
                if ds + dp + dm <= cap:
                    out.append(BInfElt(S, bp, bm))
    out.sort(
        key=lambda b: (b.degree(), sorted(b.S.bits), b.bplus.mult, b.bminus.mult)
    )
    return out


def enumerate_x(m: int, n: int, lam: Weight, cap: int) -> list[XElt]:
    """Every parabolic element of degree at most cap, in a fixed order."""
    if not is_dominant(lam, m):
        raise ValueError("weight must be dominant")
    if cap < 0:
        raise ValueError("degree cap exceeded")
    ell = m + n
    pairs = [(a, b) for a in range(1, m + 1) for b in range(m + 1, ell + 1)]
    oddsets = []
    for mask in product((0, 1), repeat=len(pairs)):
        bits = frozenset(p for p, on in zip(pairs, mask) if on)
        d = sum(b - a for a, b in bits)
        if d <= cap:
            oddsets.append((d, OddSet(m, n, bits)))
    plus = [
        (LusztigPlus(m, t).degree(), LusztigPlus(m, t))
        for t in _block_vectors(plus_roots(m), cap)
    ]
    minus = [
        (h.base.degree(), h)
        for h in _hw_orbit(
            HWElt(LusztigMinus.zero(m, n), lam_minus(lam, m)), range(m + 1, ell)
        )
    ]
    if len(oddsets) * len(plus) * len(minus) > ENUMERATION_LIMIT:
        raise ValueError("degree cap exceeded")
    shift = lam_plus(lam, m)
    out = []
    for ds, S in oddsets:
        for dp, bp in plus:
            if ds + dp > cap:
                continue
            for dm, bm in minus:
                if ds + dp + dm <= cap:
                    out.append(XElt(S, bp, bm, shift))
    out.sort(
        key=lambda b: (b.degree(), sorted(b.S.bits), b.bplus.mult, b.bminus.base.mult)
    )
    return out


# -- components of the limit crystal -----------------------------------------------


def split_map(S: OddSet) -> tuple[OddSet, OddSet]:
    """Partition an odd subset by the column next to the block boundary."""
    m, n = S.m, S.n
    xbits = frozenset(p for p in S.bits if p[1] == m + 1)
    return OddSet(m, n, xbits), OddSet(m, n, S.bits - xbits)


def split_op(i: int, dir: str, pair: tuple[OddSet, OddSet]):
    """The routed operator on a split pair, defined for indices up to m."""
    left, right = pair
    m = left.m
    if not 1 <= i <= m:
        raise ValueError(f"index {i} outside the split range")
    if i == m:
        moved = oddset_op(i, dir, left)
        if moved is ZERO:
            return ZERO
        return moved, right
    out = tensor_op("lower", i, dir, (oddset_factor(left, i), oddset_factor(right, i)))
    if out is ZERO:
        return ZERO
    return out


def binf_source(b: BInfElt) -> BInfElt:
    """The raising-dead element of the component containing b."""
    ell = b.S.m + b.S.n
    progress = True
    while progress:
        progress = False
        for i in range(1, ell):
            up = binf_op(i, "e", b)
            if up is not ZERO:
                b = up
                progress = True
                break
    return b


def component_label(b: BInfElt) -> OddSet:
    """The subset of Y labeling the component of b."""
    m = b.S.m
    src = binf_source(b)
    xpart, ypart = split_map(src.S)
    if xpart.bits:
        raise AssertionError("a raising-dead element keeps no boundary-column entry")
    word: list[int] = []
    cur = src.bplus
    progress = True
    while progress:
        progress = False
        for i in range(1, m):
            up = lusztig_star_op(i, "e", cur)
            if up is not ZERO:
                cur = up
                word.append(i)
                progress = True
                break
    label = ypart
    for i in reversed(word):
        label = oddset_op(i, "f", label)
        if label is ZERO:
            raise AssertionError("the label word left the Y subsets")
    return label


def component_census(m: int, n: int) -> dict[OddSet, BInfElt]:
    """One raising-dead element per subset of Y, keyed by its label."""
    ell = m + n
    ybits = [(a, b) for a in range(1, m + 1) for b in range(m + 2, ell + 1)]
    out: dict[OddSet, BInfElt] = {}
    for mask in product((0, 1), repeat=len(ybits)):
        c = OddSet(m, n, frozenset(p for p, on in zip(ybits, mask) if on))
        word: list[int] = []
        cur = c
        progress = True
        while progress:
            progress = False
            for i in range(1, m):
                up = oddset_op(i, "e", cur)
                if up is not ZERO:
                    cur = up
                    word.append(i)
                    progress = True
                    break
        plus = LusztigPlus.zero(m)
        for i in reversed(word):
            plus = lusztig_star_op(i, "f", plus)
        src = BInfElt(cur, plus, LusztigMinus.zero(m, n))
        for i in range(1, ell):
            if binf_op(i, "e", src) is not ZERO:
                raise AssertionError("constructed element fails to be raising-dead")
        if component_label(src) != c:
            raise AssertionError("label round trip failed for a constructed element")
        out[c] = src
    return out


# -- the model product crystal, the isomorphism target ------------------------------


@dataclass(frozen=True)
class ProductElt:
    """A pair: boundary-column data with free plus block, and a free minus block."""

    S1: OddSet
    bplus: LusztigPlus
    bminus: LusztigMinus

    def weight(self) -> Weight:
        ell = self.bminus.m + self.bminus.n
        return (
            _pad(self.S1.weight(), ell)
            + _pad(self.bplus.weight(), ell)
            + self.bminus.weight()
        )


def product_highest(m: int, n: int) -> ProductElt:
    return ProductElt(OddSet.empty(m, 1), LusztigPlus.zero(m), LusztigMinus.zero(m, n))


def product_op(i: int, dir: str, b: ProductElt):
    m = b.bplus.m
    if i > m:
        moved = lusztig_op(i, dir, b.bminus)
        if moved is ZERO:
            return ZERO
        return ProductElt(b.S1, b.bplus, moved)
    if i == m:
        moved = oddset_op(i, dir, b.S1)
        if moved is ZERO:
            return ZERO
        return ProductElt(moved, b.bplus, b.bminus)
    out = tensor_op(
        "boson", i, dir, (oddset_factor(b.S1, i), lusztig_factor(b.bplus, i))
    )
    if out is ZERO:
        return ZERO
    return ProductElt(out[0], out[1], b.bminus)


def _sync_bfs(a_start, a_op, b_start, b_op, ell: int, depth: int) -> None:
    """Pair two rooted crystals edge by edge; raises on any mismatch."""
    shift = b_start.weight() - a_start.weight()
    paired = {a_start: b_start}
    frontier = deque([(a_start, b_start, 0)])
    while frontier:
        x, y, d = frontier.popleft()
        if d == depth:
            continue
        for i in range(1, ell):
            xi = a_op(i, "f", x)
            yi = b_op(i, "f", y)
            if (xi is ZERO) != (yi is ZERO):
                raise AssertionError(f"edge pattern differs at color {i}")
            if xi is ZERO:
                continue
            if yi.weight() - xi.weight() != shift:
                raise AssertionError(f"weight shift differs at color {i}")
            if xi in paired:
                if paired[xi] != yi:
                    raise AssertionError("pairing is not a function")
            else:
                paired[xi] = yi
                frontier.append((xi, yi, d + 1))


def components(m: int, n: int, degree_cap: int) -> dict:
    """Component census report over the degree-truncated limit crystal.

    The label set is verified structurally (every subset of Y names exactly
    one raising-dead element), every enumerated element is labeled, labels
    are constant along edges, every component is covered downward from its
    dead element, and truncated balls of distinct components are paired by
    synchronized traversal, including against the model product crystal.
    """
    ell = m + n
    elements = enumerate_binf(m, n, degree_cap)
    census = component_census(m, n)
    observed: dict[OddSet, set[BInfElt]] = {}
    for b in elements:
        lab = component_label(b)
        if lab not in census:
            raise AssertionError("an enumerated element labels outside the census")
        observed.setdefault(lab, set()).add(b)
        for i in range(1, ell):
            down = binf_op(i, "f", b)
            if down is not ZERO and component_label(down) != lab:
                raise AssertionError("label changed along an edge")
    for lab, members in observed.items():
        src = census[lab]
        reached = {src}
        frontier = deque([src])
        while frontier:
            x = frontier.popleft()
            for i in range(1, ell):
                down = binf_op(i, "f", x)
                if down is not ZERO and down.degree() <= degree_cap and down not in reached:
                    reached.add(down)
                    frontier.append(down)
        if not members <= reached:
            raise AssertionError("a component member is unreachable from its source")
    srcs = sorted(observed, key=lambda lab: sorted(lab.bits))
    for a in range(len(srcs)):
        for b in range(a + 1, len(srcs)):
            sa, sb = census[srcs[a]], census[srcs[b]]
            depth = degree_cap - max(sa.degree(), sb.degree())
            _sync_bfs(sa, binf_op, sb, binf_op, ell, depth)
    _sync_bfs(binf_highest(m, n), binf_op, product_highest(m, n), product_op, ell, degree_cap)
    labels = sorted(sorted(lab.bits) for lab in census)
    return {
        "m": m,
        "n": n,
        "cap": degree_cap,
        "labels": [[list(p) for p in lab] for lab in labels],
        "count": len(labels),
        "expected": 2 ** (m * (n - 1)),
        "isomorphism_checked": True,
    }
