"""Rank-one boson tensor modules behind the signature rule.

Couples a finite highest weight module (cutoff ``l``) with a free
rank-one boson module through the twisted coproduct and makes the
justification of the boson tensor rule executable: the kernel vectors
``E_t`` of the coupled raising action, exact expansion of divided
lowering powers, the coefficient family ``C(s, k)`` with its
order-of-vanishing pattern, and an exhaustive small-cutoff check that
string decomposition against the kernel basis induces exactly the
signature rule on residues.

Conventions: the left generator has weight ``l`` (so ``f^(i) v1`` has
weight ``l - 2i`` and vanishes for ``i > l``), the right generator has
weight ``0``, and divided powers multiply by balanced q-binomials.
"""

from __future__ import annotations

from .qfield import QRat, add_into, min_degree, q_binom, q_int, row_reduce

_Q0 = QRat.zero()
_Q1 = QRat.one()
_qp = QRat.q_power


class BosonTensorVec:
    """An element of the coupled tensor module with left cutoff ``l``.

    ``coeffs`` maps pairs ``(i, j)`` to nonzero QRat coefficients of the
    monomials ``f^(i) v1 (x) f^(j) v2`` with ``0 <= i <= l`` and
    ``j >= 0``.
    """

    __slots__ = ("l", "coeffs")

    def __init__(self, l: int, coeffs: dict[tuple[int, int], QRat] | None = None):
        if l < 0:
            raise ValueError("cutoff must be nonnegative")
        self.l = l
        clean: dict[tuple[int, int], QRat] = {}
        for (i, j), c in (coeffs or {}).items():
            if not 0 <= i <= l or j < 0:
                raise ValueError("monomial outside the module")
            if c:
                clean[(i, j)] = c
        self.coeffs = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, l: int) -> "BosonTensorVec":
        return cls(l)

    @classmethod
    def monomial(cls, l: int, i: int, j: int) -> "BosonTensorVec":
        return cls(l, {(i, j): _Q1})

    # -- linear structure --------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, BosonTensorVec):
            return NotImplemented
        return self.l == other.l and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.l, frozenset(self.coeffs.items())))

    def __add__(self, other: "BosonTensorVec") -> "BosonTensorVec":
        if self.l != other.l:
            raise ValueError("mixed cutoffs")
        out = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            add_into(out, mono, c)
        return BosonTensorVec(self.l, out)

    def __neg__(self) -> "BosonTensorVec":
        return BosonTensorVec(self.l, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "BosonTensorVec") -> "BosonTensorVec":
        return self + (-other)

    def scale(self, c: QRat | int) -> "BosonTensorVec":
        if isinstance(c, int):
            c = QRat.from_int(c)
        if not c:
            return BosonTensorVec.zero(self.l)
        return BosonTensorVec(self.l, {m: x * c for m, x in self.coeffs.items()})

    def __repr__(self):
        body = " + ".join(f"({c})*[{i},{j}]" for (i, j), c in sorted(self.coeffs.items()))
        return f"BosonTensorVec(l={self.l}, {body or '0'})"


def _kernel_coeff(l: int, t: int, i: int) -> QRat:
    # a(t, i) = prod over 0 <= j < i of q^(l-t+1) / (q^(2(l-j)) - 1),
    # taken as q^(i(l-t+1)) over the product D_i of the denominators
    den = _Q1
    for j in range(i):
        den = den * (_qp(2 * (l - j)) - _Q1)
    return _qp(i * (l - t + 1)) / den


def E_t(l: int, t: int) -> BosonTensorVec:
    """The degree-``t`` kernel vector of the coupled raising action.

    Returns sum over i of a(t, i) f^(i) v1 (x) f^(t-i) v2; annihilated
    by act_eprime and congruent to v1 (x) f^(t) v2 modulo q times the
    lattice.
    """
    if not 0 <= t <= l:
        raise ValueError("t out of range")
    coeffs = {(i, t - i): _kernel_coeff(l, t, i) for i in range(t + 1)}
    return BosonTensorVec(l, coeffs)


def act_f_pow(s: int, v: BosonTensorVec) -> BosonTensorVec:
    """Apply the coproduct expansion of the divided power f^(s).

    The expansion is sum over i of q^(-i(s-i)) f^(s-i) k^i (x) f^(i);
    left monomials past the cutoff vanish.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    l = v.l
    out: dict[tuple[int, int], QRat] = {}
    for (a, b), c in v.coeffs.items():
        for i in range(s + 1):
            na = a + s - i
            if na > l:
                continue
            nb = b + i
            # k^i scales f^(a) v1 by q^(i(l-2a)); divided powers combine
            # with the balanced binomials on both factors.  Their Laurent
            # product meets c's denominator in one gcd.
            cc = c * (_qp(i * (l - 2 * a) - i * (s - i)) * q_binom(na, a) * q_binom(nb, b))
            add_into(out, (na, nb), cc)
    return BosonTensorVec(l, out)


def act_eprime(v: BosonTensorVec) -> BosonTensorVec:
    """Apply the coupled raising operator (q^-1 - q) k e (x) 1 + k (x) e'."""
    l = v.l
    out: dict[tuple[int, int], QRat] = {}
    bridge = _qp(-1) - _qp(1)
    for (a, b), c in v.coeffs.items():
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
    numerators, Laurent polynomials times D_hi / D_i, are summed over the
    one denominator D_hi of the last term, so the sum is reduced once
    rather than at every term.
    """
    if not 0 <= t <= l or not 0 <= k <= l or s < 0:
        raise ValueError("C_sk arguments out of range")
    lo, hi = max(0, l - s - k), min(t, l - k)
    num, den = _Q0, _Q1  # den runs through D_hi / D_i as i falls to 0
    for i in range(hi, -1, -1):
        if i >= lo:
            num = num + den * (
                _qp(i * (l - t + 1) + (k - i) * (i - l + s + k))
                * q_binom(l - k, i)
                * q_binom(t - l + s + k, t - i)
            )
        if i:
            den = den * (_qp(2 * (l - i + 1)) - _Q1)
    return num / den


# -- residue tests -----------------------------------------------------


def _in_q_lattice(v: BosonTensorVec) -> bool:
    return all(min_degree(c) >= 1 for c in v.coeffs.values())


def _is_unit_residue(v: BosonTensorVec, target: tuple[int, int]) -> bool:
    if any(min_degree(c) < 0 for c in v.coeffs.values()):
        return False
    lead = v.coeffs.get(target, _Q0) - _Q1
    if lead and min_degree(lead) < 1:
        return False
    return all(
        min_degree(c) >= 1 for m, c in v.coeffs.items() if m != target
    )


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
                    {"l": l, "t": t, "s": s, "case": case, "ok": _is_unit_residue(v, target)}
                )
    return grid


# -- exact linear algebra over the coefficient field -------------------


def _decompose(v: BosonTensorVec, family: list[BosonTensorVec], monos: list[tuple[int, int]]) -> list[QRat]:
    # solve sum_t c_t family[t] = v in the monomial coordinates
    if any(m not in monos for m in v.coeffs):
        raise ValueError("vector leaves the degree slice")
    rows = [
        [member.coeffs.get(m, _Q0) for member in family] + [v.coeffs.get(m, _Q0)]
        for m in monos
    ]
    # a unique solution needs a pivot in every family column and none in v's;
    # reduced row k is then e_k next to the k-th coefficient
    rank = row_reduce(rows)
    assert rank == len(family) and all(rows[k][k] for k in range(rank)), (
        "kernel family is not a basis"
    )
    return [row[-1] for row in rows[:rank]]


def _combine(l: int, coeffs: list[QRat], family: list[BosonTensorVec]) -> BosonTensorVec:
    out = BosonTensorVec.zero(l)
    for c, member in zip(coeffs, family):
        out = out + member.scale(c)
    return out


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
    dimensional up to the cutoff and zero beyond, decomposes every
    monomial against the lowered kernel basis, and checks that the
    string-shifted operators stay in the lattice and reduce to the
    signature rule on residues.  Raises AssertionError on any mismatch.
    """
    if l < 0 or depth < 0:
        raise ValueError("l and depth must be nonnegative")
    if l > 6 or depth > 10:
        raise ValueError("check is sized for l <= 6 and depth <= 10")
    nodes = 0
    edges = 0
    for d in range(depth + 1):
        monos = [(i, d - i) for i in range(min(l, d) + 1)]
        below = [(i, d - 1 - i) for i in range(min(l, d - 1) + 1)] if d else []
        images = [act_eprime(BosonTensorVec.monomial(l, i, j)) for i, j in monos]
        rows = [[img.coeffs.get(m, _Q0) for m in below] for img in images]
        kernel = len(monos) - (row_reduce(rows) if below else 0)
        assert kernel == (1 if d <= l else 0), (l, d, kernel)
        if d <= l:
            assert act_eprime(E_t(l, d)).is_zero()

        gens = [E_t(l, t) for t in range(min(l, d) + 1)]
        lowered = [act_f_pow(d - t, g) for t, g in enumerate(gens)]
        flow = [act_f_pow(d - t + 1, g) for t, g in enumerate(gens)]
        fall = [
            act_f_pow(d - t - 1, g) if d - t >= 1 else BosonTensorVec.zero(l)
            for t, g in enumerate(gens)
        ]
        for i, j in monos:
            sol = _decompose(BosonTensorVec.monomial(l, i, j), lowered, monos)
            fvec = _combine(l, sol, flow)
            assert _is_unit_residue(fvec, _rule_target(l, i, j, "f")), (l, d, i, j, "f")
            evec = _combine(l, sol, fall)
            target = _rule_target(l, i, j, "e")
            if target is None:
                assert _in_q_lattice(evec), (l, d, i, j, "e")
            else:
                assert _is_unit_residue(evec, target), (l, d, i, j, "e")
            nodes += 1
            edges += 2
    return {
        "l": l,
        "depth": depth,
        "nodes": nodes,
        "edges": edges,
        "kernel_basis_checked": True,
        "lattice_closed": True,
        "rule_matched": True,
    }
