"""Limit crystal of the negative half, assembled from finite truncations.

Elements are triples of three kinds, defined with ``KacElt`` in
``combicrystal`` and imported from there: the limit crystal (``BInfElt``,
both even blocks free), the parabolic crystal (``XElt``, the minus block
truncated) and the model product crystal (``ProductElt``).  ``binf_op``,
``x_op`` and ``product_op`` all name the one ``triple_op``, and
``embed_dual`` and ``project_plus`` swap one field of a triple.  The limit
structure is exercised through finite data only: raising words factor a
Kac-module element through its highest-weight pieces (hw_factorize),
replaying those words over a larger dominant weight embeds one Kac-module
crystal into another (theta), and replaying them over a chosen weight cuts
a triple down to that truncation or kills it (kappa_inv).  The parabolic
variant keeps the minus block truncated while the plus block runs free.

The component census rests on splitting the odd roots into the column next
to the block boundary (entries (a, m+1), called X here) and the remaining
columns (Y): every connected component owns exactly one raising-dead triple,
and transporting that triple's plus data through its starred raising word
turns the Y-part into the subset of Y that labels the component uniquely.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from operator import itemgetter

from .combicrystal import (
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
    _capped_sums,
    _column_mask,
    _count_upto,
    _oddset,
    cartan,
    hw_op,
    kac_op,
    lam_minus,
    lam_plus,
    lower_along,
    lusztig_op,
    lusztig_star_op,
    minus_roots,
    odd_subsets,
    oddset_eps,
    oddset_op,
    pair_op,
    plus_roots,
    raise_step,
    raise_to_top,
    string_length,
    triple_op,
)
from .superpbw import RootData, Weight


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


# one operator for every kind of triple; the minus block of a BInfElt moves
# on its own, the truncated one of an XElt is coupled with the subset
binf_op = x_op = product_op = triple_op


def binf_highest(m: int, n: int) -> BInfElt:
    return BInfElt(OddSet.empty(m, n), LusztigPlus.zero(m), LusztigMinus.zero(m, n))


def binf_eps(i: int, b: BInfElt) -> int:
    return string_length(binf_op, i, "e", b)


def binf_phi(i: int, b: BInfElt) -> int:
    m = b.S.m
    if i == m:
        return 0 if binf_op(i, "f", b) is ZERO else 1
    return binf_eps(i, b) + cartan(b.weight(), i, m)


# -- the parabolic crystal ---------------------------------------------------------


def x_highest(m: int, n: int, lam: Weight) -> XElt:
    return XElt(
        OddSet.empty(m, n),
        LusztigPlus.zero(m),
        HWElt(LusztigMinus.zero(m, n), lam_minus(lam, m)),
        lam_plus(lam, m),
    )


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
    top, xword = raise_to_top(lusztig_op, range(1, m), b.bplus.base)
    if any(top.mult):
        raise AssertionError("plus block did not raise to the highest element")
    top, yword = raise_to_top(kac_op, range(m + 1, m + n), b)
    if any(top.bminus.base.mult):
        raise AssertionError("minus block did not raise to the highest element")
    return top.S, tuple(reversed(xword)), tuple(reversed(yword))


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
    plus = lower_along(hw_op, xword, HWElt(LusztigPlus.zero(m), lam_plus(mu, m)))
    minus = HWElt(LusztigMinus.zero(m, n), lam_minus(mu, m))
    out = ZERO if plus is ZERO else lower_along(kac_op, yword, KacElt(S0, plus, minus))
    if out is ZERO:
        raise AssertionError("replay over a larger weight must not die")
    return out


def kappa(b: KacElt) -> BInfElt:
    """The limit class of a Kac-module element, as a triple of free data."""
    m, n = b.S.m, b.S.n
    S0, xword, yword = hw_factorize(b)
    plus = lower_along(lusztig_op, xword, LusztigPlus.zero(m))
    minus = lower_along(lusztig_op, yword, LusztigMinus.zero(m, n))
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
    _, yword = raise_to_top(lusztig_op, range(m + 1, m + n), b.bminus)
    top = KacElt(b.S, plus, HWElt(LusztigMinus.zero(m, n), lamm))
    return lower_along(kac_op, reversed(yword), top)


# -- member enumeration ------------------------------------------------------------


def _reach(start, op, indices, keep) -> set:
    """Every element reached from start by the lowering steps op(i, "f", .),
    i in indices, through elements that satisfy keep."""
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for i in indices:
            down = op(i, "f", x)
            if down is not ZERO and down not in seen and keep(down):
                seen.add(down)
                frontier.append(down)
    return seen


def _hw_orbit(start: HWElt, indices) -> list[HWElt]:
    orbit = _reach(start, hw_op, indices, lambda h: True)
    return sorted(orbit, key=lambda h: (h.base.degree(), h.base.mult))


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
    plus = _hw_orbit(HWElt(LusztigPlus.zero(m), lam_plus(lam, m)), range(1, m))
    minus = _hw_orbit(
        HWElt(LusztigMinus.zero(m, n), lam_minus(lam, m)), range(m + 1, m + n)
    )
    out = []
    for S in odd_subsets(m, n):
        for bp in plus:
            for bm in minus:
                out.append(KacElt(S, bp, bm))
    out.sort(key=lambda k: (sorted(k.S.bits), k.bplus.base.mult, k.bminus.base.mult))
    return out


def _block_vectors(roots, cap: int) -> list[tuple[int, ...]]:
    """The multiplicity vectors over roots of degree at most cap, the ones
    a free _count_upto counts, in itertools.product order (the first root
    varies slowest)."""
    slots = ([((c,), c * (b - a)) for c in range(cap // (b - a) + 1)] for a, b in roots)
    return _capped_sums((), slots, cap)


def _refuse_oversized(m: int, n: int, cap: int, minus_count: int) -> None:
    """Refuse a degree ball before building it.

    The candidates are the odd subsets and the plus vectors of degree at
    most cap, counted by degree, times minus_count for the minus block.
    """
    if cap < 0:
        raise ValueError("degree cap exceeded")
    odd_heights = [b - a for a in range(1, m + 1) for b in range(m + 1, m + n + 1)]
    plus_heights = [b - a for a, b in plus_roots(m)]
    count = _count_upto(cap, odd_heights, False) * _count_upto(cap, plus_heights, True)
    if count * minus_count > ENUMERATION_LIMIT:
        raise ValueError("degree cap exceeded")


def _degree_ball(m: int, n: int, cap: int, minus, make) -> list:
    """Every make(S, plus, minus) of degree at most cap, ordered by degree,
    the entries of S, then the plus and minus multiplicities; minus holds
    the (degree, multiplicities, element) candidates of the minus block."""
    plus = [LusztigPlus(m, t) for t in _block_vectors(plus_roots(m), cap)]
    plus = [(bp.degree(), bp) for bp in plus]
    keyed = []
    for S in odd_subsets(m, n, cap):
        ds, bits = S.degree(), sorted(S.bits)
        for dp, bp in plus:
            if ds + dp > cap:
                continue
            for dm, mult, bm in minus:
                if ds + dp + dm <= cap:
                    keyed.append(((ds + dp + dm, bits, bp.mult, mult), S, bp, bm))
    keyed.sort(key=itemgetter(0))
    return [make(S, bp, bm) for _, S, bp, bm in keyed]


def enumerate_binf(m: int, n: int, cap: int) -> list[BInfElt]:
    """Every triple of degree at most cap, in a fixed order."""
    roots = minus_roots(m, n)
    _refuse_oversized(m, n, cap, _count_upto(cap, [b - a for a, b in roots], True))
    minus = [LusztigMinus(m, n, t) for t in _block_vectors(roots, cap)]
    return _degree_ball(m, n, cap, [(bm.degree(), bm.mult, bm) for bm in minus], BInfElt)


def pbw_label(rd: RootData, b: BInfElt) -> tuple[int, ...]:
    """The PBW exponent label of b in the root order of rd: 1 on the roots
    of its odd subset and the Lusztig data of its two blocks elsewhere.
    lattice_vector(rd, pbw_label(rd, b)) is b on the algebraic route."""
    lab = [0] * rd.nroots
    for root in b.S.bits:
        lab[rd.root_index[root]] = 1
    for block in (b.bplus, b.bminus):
        for root, e in zip(block.roots(), block.mult):
            lab[rd.root_index[root]] = e
    return tuple(lab)


def enumerate_x(m: int, n: int, lam: Weight, cap: int) -> list[XElt]:
    """Every parabolic element of degree at most cap, in a fixed order."""
    if not is_dominant(lam, m):
        raise ValueError("weight must be dominant")
    # the minus truncation is a gl(n) crystal of its Weyl dimension
    _refuse_oversized(m, n, cap, _weyl_dimension(lam.coords[m:]))
    top = HWElt(LusztigMinus.zero(m, n), lam_minus(lam, m))
    minus = [(h.degree(), h.base.mult, h) for h in _hw_orbit(top, range(m + 1, m + n))]
    shift = lam_plus(lam, m)
    return _degree_ball(m, n, cap, minus, lambda S, bp, bm: XElt(S, bp, bm, shift))


# -- components of the limit crystal -----------------------------------------------


def split_map(S: OddSet) -> tuple[OddSet, OddSet]:
    """Partition an odd subset by the column next to the block boundary."""
    m, n = S.m, S.n
    xmask = S.mask & _column_mask(m, n)
    return _oddset(m, n, xmask), _oddset(m, n, S.mask ^ xmask)


def split_op(i: int, dir: str, pair: tuple[OddSet, OddSet]):
    """The routed operator on a split pair, defined for indices up to m.

    Below m the pair is coupled by the lower tensor rule; at m the odd index
    toggles the box (m, m+1) of the left part.
    """
    left, right = pair
    if not 1 <= i <= left.m:
        raise ValueError(f"index {i} outside the split range")
    return pair_op(i, dir, left, right)


def binf_source(b: BInfElt) -> BInfElt:
    """The raising-dead element of the component containing b."""
    return raise_to_top(binf_op, range(1, b.S.m + b.S.n), b)[0]


def component_label(b: BInfElt) -> OddSet:
    """The subset of Y labeling the component of b."""
    return _source_label(binf_source(b))


def _source_label(src: BInfElt) -> OddSet:
    """The label of a raising-dead element, read off its own data."""
    m = src.S.m
    xpart, ypart = split_map(src.S)
    if xpart.mask:
        raise AssertionError("a raising-dead element keeps no boundary-column entry")
    _, word = raise_to_top(lusztig_star_op, range(1, m), src.bplus)
    label = lower_along(oddset_op, reversed(word), ypart)
    if label is ZERO:
        raise AssertionError("the label word left the Y subsets")
    return label


def _component_labeller():
    """component_label for one caller, memoised along raising paths.

    raise_to_top is deterministic, so every element met on the raising path
    of b has the source of b: each is mapped to it once, and each source to
    its label once.  Nothing is assumed about how many sources a component
    has.
    """
    source: dict[BInfElt, BInfElt] = {}
    labels: dict[BInfElt, OddSet] = {}

    def label(b: BInfElt) -> OddSet:
        indices = range(1, b.S.m + b.S.n)
        path = []
        while b not in source:
            path.append(b)
            step = raise_step(binf_op, indices, b)
            if step is None:
                source[b] = b
                labels[b] = _source_label(b)
            else:
                b = step[1]
        src = source[b]
        for x in path:
            source[x] = src
        return labels[src]

    return label


def _y_subsets(m: int, n: int) -> list[OddSet]:
    """Every subset of Y; odd_subsets refuses past the enumeration limit."""
    ybits = [(a, b) for a in range(1, m + 1) for b in range(m + 2, m + n + 1)]
    return odd_subsets(m, n, boxes=ybits)


def component_census(m: int, n: int) -> dict[OddSet, BInfElt]:
    """One raising-dead element per subset of Y, keyed by its label."""
    out: dict[OddSet, BInfElt] = {}
    for c in _y_subsets(m, n):
        cur, word = raise_to_top(oddset_op, range(1, m), c)
        plus = lower_along(lusztig_star_op, reversed(word), LusztigPlus.zero(m))
        src = BInfElt(cur, plus, LusztigMinus.zero(m, n))
        if binf_source(src) != src:
            raise AssertionError("constructed element fails to be raising-dead")
        if _source_label(src) != c:
            raise AssertionError("label round trip failed for a constructed element")
        out[c] = src
    return out


# -- the model product crystal, the isomorphism target ------------------------------


def product_highest(m: int, n: int) -> ProductElt:
    return ProductElt(OddSet.empty(m, 1), LusztigPlus.zero(m), LusztigMinus.zero(m, n))


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
    # both sizes are checked before the ball is built: the census labels
    # here, the ball by degree in enumerate_binf
    _y_subsets(m, n)
    elements = enumerate_binf(m, n, degree_cap)
    census = component_census(m, n)
    label = _component_labeller()
    observed: dict[OddSet, set[BInfElt]] = {}
    for b in elements:
        lab = label(b)
        if lab not in census:
            raise AssertionError("an enumerated element labels outside the census")
        observed.setdefault(lab, set()).add(b)
        for i in range(1, ell):
            down = binf_op(i, "f", b)
            if down is not ZERO and label(down) != lab:
                raise AssertionError("label changed along an edge")
    for lab, members in observed.items():
        reached = _reach(census[lab], binf_op, range(1, ell), lambda x: x.degree() <= degree_cap)
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
