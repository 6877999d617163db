"""Rank-one boson tensor modules behind the signature rule.

Couples a finite highest weight module (cutoff ``l``) with a free
rank-one boson module through the twisted coproduct and makes the
justification of the boson tensor rule executable: the kernel vectors
``E_t`` of the coupled raising action, exact expansion of divided
lowering powers, the coefficient family ``C(s, k)`` with its
order-of-vanishing pattern, and an exhaustive small-cutoff check that
string decomposition against the kernel basis induces exactly the
signature rule on residues.  Every value here is a Laurent polynomial
over a product D_i of factors q^(2(l-j)) - 1, so ``E_t`` builds each
coefficient with ``QRat.from_laurent``, and ``act_f_pow`` and ``C_sk``
hand their terms, each an integer numerator times a product of two
balanced binomials, to ``qfield.laurent_sum``, which adds them as one
packed integer over one denominator and reduces once.  The cells of one
grid share their inputs, so four bounded ``lru_cache`` memos hold what
they share: ``_binom_pair`` the binomial products (2,048 entries),
``E_t`` the kernel vectors per (l, t), ``_lift`` the common denominator
and cofactors of ``act_f_pow``'s input per tuple of distinct
denominators, and ``_chain_cofactors`` the cofactors D_hi / D_i of
``C_sk`` per (l, hi) (256 entries each).  The memoised vectors, like every
``QVec``, are read and never written.  The crystal check reads each
degree's images off one elimination, which ``qfield.row_reduce`` runs on
packed integers with no inverse formed.

Conventions: the left generator has weight ``l`` (so ``f^(i) v1`` has
weight ``l - 2i`` and vanishes for ``i > l``), the right generator has
weight ``0``, and divided powers multiply by balanced q-binomials.
"""

from __future__ import annotations

from functools import lru_cache

from .qfield import _PONE, Poly, QRat, _common_denominator, _padd, _pmul, _pneg, _pshift
from .qfield import QVec, add_into, laurent_sum, min_degree, q_binom, q_int, row_reduce

_Q0 = QRat.zero()
_Q1 = QRat.one()
_qp = QRat.q_power


class BosonTensorVec(QVec):
    """An element of the coupled tensor module with left cutoff ``l``.

    ``terms`` maps pairs ``(i, j)`` to nonzero QRat coefficients of the
    monomials ``f^(i) v1 (x) f^(j) v2`` with ``0 <= i <= l`` and
    ``j >= 0``; ``coeffs`` is a read-only alias of it.
    """

    __slots__ = ("l", "terms")

    def __init__(self, l: int, terms: dict[tuple[int, int], QRat] | None = None):
        if l < 0:
            raise ValueError("cutoff must be nonnegative")
        self.l = l
        clean: dict[tuple[int, int], QRat] = {}
        for (i, j), c in (terms or {}).items():
            if not 0 <= i <= l or j < 0:
                raise ValueError("monomial outside the module")
            if c:
                clean[(i, j)] = c
        self.terms = clean

    def space(self) -> int:
        return self.l

    @property
    def coeffs(self) -> dict[tuple[int, int], QRat]:
        """``terms`` under its old name, kept only for perfbench/workloads.py, which is fixed."""
        return self.terms

    @classmethod
    def monomial(cls, l: int, i: int, j: int) -> "BosonTensorVec":
        return cls(l, {(i, j): _Q1})

    def __repr__(self):
        body = " + ".join(f"({c})*[{i},{j}]" for (i, j), c in sorted(self.terms.items()))
        return f"BosonTensorVec(l={self.l}, {body or '0'})"


@lru_cache(maxsize=2048)
def _binom_pair(c1: int, d1: int, c2: int, d2: int) -> tuple[int, Poly]:
    # [c1, d1] [c2, d2] as (e, num) with num / q^e its value: balanced
    # q-binomials are Laurent polynomials num / q^k
    b1, b2 = q_binom(c1, d1), q_binom(c2, d2)
    return len(b1.den) + len(b2.den) - 2, _pmul(b1.num, b2.num)


def _add_term(terms: list, poly: Poly, e: int, c1: int, d1: int, c2: int, d2: int) -> None:
    # terms gets the laurent_sum term poly q^e [c1, d1] [c2, d2]
    k, num = _binom_pair(c1, d1, c2, d2)
    terms.append((e - k, (poly, num)))


@lru_cache(maxsize=1 << 8)
def E_t(l: int, t: int) -> BosonTensorVec:
    """The degree-``t`` kernel vector of the coupled raising action.

    Returns sum over i of q^(i(l-t+1)) / D_i f^(i) v1 (x) f^(t-i) v2, with D_i
    = prod over j < i of (q^(2(l-j)) - 1) built one factor per i; annihilated
    by act_eprime and congruent to v1 (x) f^(t) v2 modulo q times the lattice.
    Memoised per (l, t): the vector is shared, so read it and never write it.
    """
    if not 0 <= t <= l:
        raise ValueError("t out of range")
    coeffs, den = {}, _PONE  # den is D_i
    for i in range(t + 1):
        coeffs[(i, t - i)] = QRat.from_laurent({i * (l - t + 1): 1}, den)
        den = _padd(_pshift(den, 2 * (l - i)), _pneg(den))
    return BosonTensorVec(l, coeffs)


@lru_cache(maxsize=1 << 8)
def _lift(dens: tuple[Poly, ...]) -> tuple[Poly, dict[Poly, Poly]]:
    # the common denominator of distinct dens, with each den's cofactor; a
    # grid lowers each E_t for every s, so each chain D_0 | ... | D_t is
    # lifted once.  The cofactor dict is shared: read it, never write it
    return _common_denominator(dens)


def act_f_pow(s: int, v: BosonTensorVec) -> BosonTensorVec:
    """Apply the coproduct expansion of the divided power f^(s).

    The expansion is sum over i of q^(-i(s-i)) f^(s-i) k^i (x) f^(i);
    left monomials past the cutoff vanish.  The coefficients of ``v`` are
    lifted to a common denominator (D_t for E_t, found with no gcd, once
    per distinct tuple of denominators through ``_lift``), and each output
    coefficient is summed over it as integers and reduced once.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    l = v.l
    den, cofactor = _lift(tuple(dict.fromkeys(c.den for c in v.terms.values())))
    acc: dict[tuple[int, int], list] = {}
    for (a, b), c in v.terms.items():
        num = _pmul(c.num, cofactor[c.den])
        for i in range(max(0, a + s - l), s + 1):
            # k^i scales f^(a) v1 by q^(i(l-2a)); divided powers combine
            # with the balanced binomials on both factors
            na, nb = a + s - i, b + i
            terms = acc.setdefault((na, nb), [])
            _add_term(terms, num, i * (l - 2 * a) - i * (s - i), na, a, nb, b)
    return BosonTensorVec(l, {m: laurent_sum(terms, den) for m, terms in acc.items()})


def act_eprime(v: BosonTensorVec) -> BosonTensorVec:
    """Apply the coupled raising operator (q^-1 - q) k e (x) 1 + k (x) e'."""
    l = v.l
    out: dict[tuple[int, int], QRat] = {}
    bridge = _qp(-1) - _qp(1)
    for (a, b), c in v.terms.items():
        if a > 0:
            add_into(out, (a - 1, b), c * bridge * q_int(l - a + 1) * _qp(l - 2 * (a - 1)))
        if b > 0:
            add_into(out, (a, b - 1), c * _qp(l - 2 * a + 1 - b))
    return BosonTensorVec(l, out)


def C_sk(l: int, t: int, s: int, k: int) -> QRat:
    """Coefficient of f^(l-k) v1 (x) f^(t+s-l+k) v2 in act_f_pow(s, E_t).

    Computed as the closed double-sum collapse; meaningful in the deep
    regime s > l - t where the left factor saturates.  The i-th term is
    a(t, i) q^((k-i)(i-l+s+k)) [l-k, i] [t-l+s+k, t-i], and a(t, i) is
    q^(i(l-t+1)) over D_i = prod over j < i of (q^(2(l-j)) - 1).  The
    integer Laurent numerators, times D_hi / D_i, are summed over the one
    denominator D_hi of the last term and reduced once; the cofactors come
    from ``_chain_cofactors``, built once per (l, hi).
    """
    if not 0 <= t <= l or not 0 <= k <= l or s < 0:
        raise ValueError("C_sk arguments out of range")
    lo, hi = max(0, l - s - k), min(t, l - k)
    cofactors = _chain_cofactors(l, hi)
    terms: list = []
    for i in range(hi, lo - 1, -1):
        e = i * (l - t + 1) + (k - i) * (i - l + s + k)
        _add_term(terms, cofactors[i], e, l - k, i, t - l + s + k, t - i)
    return laurent_sum(terms, cofactors[0])


@lru_cache(maxsize=1 << 8)
def _chain_cofactors(l: int, hi: int) -> tuple[Poly, ...]:
    # D_hi / D_i for i = 0 .. hi, one factor q^(2(l-i+1)) - 1 per step down
    # from D_hi / D_hi = 1; entry 0 is D_hi itself.  Every C_sk with these
    # (l, hi) shares it
    out = [_PONE]
    for i in range(hi, 0, -1):
        out.append(_padd(_pshift(out[-1], 2 * (l - i + 1)), _pneg(out[-1])))
    return tuple(reversed(out))


# -- residue tests -----------------------------------------------------


def _residue_is(coeffs: dict[tuple[int, int], QRat], target: tuple[int, int] | None) -> bool:
    # coeffs is the monomial target modulo q times the lattice, or lies in q
    # times the lattice when target is None; a pole at target stays in lead
    lead = coeffs.get(target, _Q0) - (_Q0 if target is None else _Q1)
    if lead and min_degree(lead) < 1:
        return False
    return all(min_degree(c) >= 1 for m, c in coeffs.items() if m != target)


def congruence_grid(max_l: int, max_s: int) -> list[dict]:
    """Pass/fail grid for the lowering congruences over (l, t, s).

    Each entry records whether act_f_pow(s, E_t(l, t)) collapses to the
    predicted single monomial modulo q times the lattice: the shallow
    case lowers the left factor freely, the deep case saturates it.
    """
    grid = []
    for l in range(max_l + 1):
        for t in range(l + 1):
            for s in range(max_s + 1):
                v = act_f_pow(s, E_t(l, t))
                if s <= l - t:
                    case, target = 1, (s, t)
                else:
                    case, target = 2, (l - t, 2 * t + s - l)
                grid.append(
                    {"l": l, "t": t, "s": s, "case": case, "ok": _residue_is(v.terms, target)}
                )
    return grid


# -- exact linear algebra over the coefficient field -------------------


def _decompose(
    family: list[BosonTensorVec], moved: list[BosonTensorVec], monos: list[tuple[int, int]]
) -> list[dict[tuple[int, int], QRat]]:
    # the image of every monomial in monos under the map sending family[t] to
    # moved[t], from one elimination of [family | moved] with one row per
    # member; reduced row k is then e_k next to the image of monos[k]
    n = len(family)
    cols = sorted({m for v in moved for m in v.terms})
    rows = [
        [member.terms.get(m, _Q0) for m in monos] + [v.terms.get(m, _Q0) for m in cols]
        for member, v in zip(family, moved)
    ]
    row_reduce(rows)
    # the family is a basis exactly when it is square with a pivot in each of its columns
    if n != len(monos) or not all(rows[k][k] for k in range(n)):
        raise AssertionError("kernel family is not a basis")
    return [{m: c for m, c in zip(cols, row[n:]) if c} for row in rows]


def _rule_target(l: int, i: int, j: int, direction: str) -> tuple[int, int] | None:
    # signature comparison of phi(left) = l - i against eps(right) = j
    if direction == "f":
        return (i + 1, j) if l - i > j else (i, j + 1)
    if l - i >= j:
        return (i - 1, j) if i > 0 else None
    return (i, j - 1)


def boson_crystal_check(l: int, depth: int) -> dict:
    """Exhaustive crystal-base check of the coupled module up to ``depth``.

    Degree by degree: confirms the kernel of the raising action is one
    dimensional up to the cutoff and zero beyond, reads every monomial's
    f- and e-image off one elimination of the lowered kernel basis beside
    its moves, and checks that they stay in the lattice and reduce to the
    signature rule on residues.  Raises AssertionError on any mismatch.
    """
    if l < 0 or depth < 0:
        raise ValueError("l and depth must be nonnegative")
    if l > 6 or depth > 10:
        raise ValueError("check is sized for l <= 6 and depth <= 10")
    gens = [E_t(l, t) for t in range(min(l, depth) + 1)]
    # f^(s) E_t for every s the degrees meet, each lowered once: degree d
    # decomposes against s = d - t and moves to the sum over s = d - t +- 1,
    # whose parts lie in degrees d + 1 and d - 1
    powers = [[act_f_pow(s, g) for s in range(depth - t + 2)] for t, g in enumerate(gens)]
    nodes, zero = 0, BosonTensorVec.zero(l)
    for d in range(depth + 1):
        monos = [(i, d - i) for i in range(min(l, d) + 1)]
        below = [(i, d - 1 - i) for i in range(min(l, d - 1) + 1)] if d else []
        images = [act_eprime(BosonTensorVec.monomial(l, i, j)) for i, j in monos]
        rows = [[img.terms.get(m, _Q0) for m in below] for img in images]
        kernel = len(monos) - (row_reduce(rows) if below else 0)
        if kernel != (1 if d <= l else 0):
            raise AssertionError((l, d, kernel))
        if d <= l and not act_eprime(gens[d]).is_zero():
            raise AssertionError

        ts = range(min(l, d) + 1)
        lowered = [powers[t][d - t] for t in ts]
        moved = [powers[t][d - t + 1] + (powers[t][d - t - 1] if d > t else zero) for t in ts]
        for (i, j), image in zip(monos, _decompose(lowered, moved, monos)):
            fvec = {m: c for m, c in image.items() if sum(m) > d}
            if not _residue_is(fvec, _rule_target(l, i, j, "f")):
                raise AssertionError((l, d, i, j, "f"))
            evec = {m: c for m, c in image.items() if sum(m) < d}
            if not _residue_is(evec, _rule_target(l, i, j, "e")):
                raise AssertionError((l, d, i, j, "e"))
            nodes += 1
    return {
        "l": l,
        "depth": depth,
        "nodes": nodes,
        "edges": 2 * nodes,
        "kernel_basis_checked": True,
        "lattice_closed": True,
        "rule_matched": True,
    }
