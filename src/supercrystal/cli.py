"""Batch entry points: graph export, verification suites, component census.

Three subcommands share the flags ``--m --n --cap --lambda --format
--out``.  ``graph`` enumerates one of the four crystals up to a degree
cap and writes it as JSON or DOT with deterministic ordering, ``verify``
runs named invariant suites and exits nonzero on any failure, and
``components`` wraps the component census report.  All output is byte
deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from itertools import product
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .combicrystal import (
    ZERO,
    HWElt,
    KacElt,
    LusztigMinus,
    LusztigPlus,
    OddSet,
    Triple,
    _count_upto,
    cartan,
    epsilon_star,
    kac_op,
    lam_minus,
    lam_plus,
    odd_subsets,
    oddset_eps,
    oddset_op,
    oddset_phi,
    string_length,
)
from .combicrystal import to_json as combi_json
from .limitcrystal import (
    BInfElt,
    XElt,
    binf_eps,
    binf_op,
    binf_phi,
    components,
    enumerate_binf,
    enumerate_x,
    is_dominant,
    kac_elements,
    kappa,
    kappa_inv,
    pbw_label,
    theta,
    x_op,
)
from .qboson import C_sk, E_t, act_eprime, act_f_pow, boson_crystal_check, congruence_grid
from .qfield import (
    QRat,
    akito_sum,
    full_product_reference,
    min_degree,
    q_binom,
    q_factorial,
    q_int,
)
from .superpbw import (
    PBWVector,
    RootData,
    Weight,
    alpha,
    crystal_e,
    crystal_f,
    f_divided,
    lattice_residue,
    lattice_vector,
    normal_form,
    sigma_0n,
    string_reference,
)
from .superpbw import from_json as pbw_from_json
from .superpbw import to_json as pbw_to_json

DEFAULT_COMPONENTS_CAP = 3
DEFAULT_CROSSCHECK_CAP = 4
# crosscheck work: checks times the cap squared, since a check's cost grows
# with its degree.  On a 2-vCPU host, (2,3) cap 8 weighs 1,238,016 and runs
# in 1.7 s, (1,4) cap 8 the same in 3.5 s (4.3 s and 10.4 s on a slower
# one); (2,1) cap 22, refused at 2,365,792, ran 6.4 s
CROSSCHECK_LIMIT = 2_000_000
LONG_PAIRS = 4  # long pairs in the qfield suite; their reference reductions cost about 10 ms each

# fixed palette for edge colors by acting index; the odd index stands out
EDGE_COLORS = ("#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02")
ODD_COLOR = "#e41a1c"

_QP = QRat.q_power

# rank (3,4) element used by the examples suite
_EX_S = OddSet.of(3, 4, [(3, 5), (3, 7), (2, 4), (2, 5), (2, 6), (1, 6)])
_EX_PLUS = LusztigPlus.of(3, {(2, 3): 2, (1, 3): 1, (1, 2): 2})
_EX_MINUS = LusztigMinus.of(
    3, 4, {(4, 5): 2, (4, 6): 1, (4, 7): 1, (5, 6): 1, (5, 7): 2, (6, 7): 1}
)
_EX_LAM = Weight((6, 4, 1, 3, 2, 0, -4))


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: ranks, cap, optional weight, command extras."""

    m: int
    n: int
    cap: int | None
    lam: Weight | None
    target: str | None
    suite: str | None
    fmt: str
    out: str | None


def _parse_weight(text: str, ell: int, m: int) -> Weight:
    try:
        coords = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"weight must be comma separated integers, got {text!r}")
    if len(coords) != ell:
        raise ValueError(f"weight needs {ell} entries, got {len(coords)}")
    lam = Weight(coords)
    if not is_dominant(lam, m):
        raise ValueError("weight must be dominant")
    return lam


def _config(ns: argparse.Namespace) -> RunConfig:
    if ns.m < 1 or ns.n < 1:
        raise ValueError("m and n must be at least 1")
    cap = getattr(ns, "cap", None)
    if cap is not None and cap < 0:
        raise ValueError("cap must be nonnegative")
    lam = None
    if getattr(ns, "lam", None) is not None:
        lam = _parse_weight(ns.lam, ns.m + ns.n, ns.m)
    return RunConfig(
        m=ns.m,
        n=ns.n,
        cap=cap,
        lam=lam,
        target=getattr(ns, "target", None),
        suite=getattr(ns, "suite", None),
        fmt=ns.format,
        out=ns.out,
    )


# -- graph export ----------------------------------------------------------


def _node_key(encoding: dict) -> str:
    return json.dumps(encoding, sort_keys=True, separators=(",", ":"))


def _mult_label(roots, mult) -> str:
    body = ",".join(f"{a}.{b}:{c}" for (a, b), c in zip(roots, mult) if c)
    return f"[{body}]"


def _short(elt) -> str:
    if isinstance(elt, OddSet):
        return "{" + ",".join(f"{a}.{b}" for a, b in sorted(elt.bits)) + "}"
    if isinstance(elt, (LusztigPlus, LusztigMinus)):
        return _mult_label(elt.roots(), elt.mult)
    if isinstance(elt, HWElt):
        return _short(elt.base)
    if isinstance(elt, Triple):
        return f"S={_short(elt.S)} p={_short(elt.bplus)} m={_short(elt.bminus)}"
    raise ValueError(f"no label for {type(elt).__name__}")


def _kac_ball(m: int, n: int, lam: Weight, cap: int | None) -> list[KacElt]:
    return [k for k in kac_elements(m, n, lam) if cap is None or k.degree() <= cap]


# each graph target: whether it needs --cap, whether it reports lambda, its
# elements at (m, n, lam, cap) and its operator
_GRAPHS = {
    "binf": (True, False, lambda m, n, lam, cap: enumerate_binf(m, n, cap), binf_op),
    "kac": (False, True, _kac_ball, kac_op),
    "xlambda": (True, True, enumerate_x, x_op),
    "oddset": (False, False, lambda m, n, lam, cap: odd_subsets(m, n, cap), oddset_op),
}
GRAPH_TARGETS = tuple(_GRAPHS)


def cmd_graph(cfg: RunConfig) -> dict:
    """Enumerate the requested crystal and return the graph as a dict."""
    m, n = cfg.m, cfg.n
    ell = m + n
    lam = cfg.lam if cfg.lam is not None else Weight((0,) * ell)
    if cfg.target not in _GRAPHS:
        raise ValueError(f"unknown graph target {cfg.target!r}")
    needs_cap, weighted, elements, op = _GRAPHS[cfg.target]
    if needs_cap and cfg.cap is None:
        raise ValueError(f"{cfg.target} graphs need --cap")
    elts = elements(m, n, lam, cfg.cap)

    ordered = sorted(((combi_json(e), e) for e in elts), key=lambda p: _node_key(p[0]))
    pos = {e: idx for idx, (_, e) in enumerate(ordered)}
    edges = []
    for idx, (_, e) in enumerate(ordered):
        for i in range(1, ell):
            moved = op(i, "f", e)
            if moved is not ZERO and moved in pos:
                edges.append((idx, pos[moved], i))
    edges.sort()
    return {
        "target": cfg.target,
        "m": m,
        "n": n,
        "cap": cfg.cap,
        "lambda": list(lam.coords) if weighted else None,
        "count": len(ordered),
        "nodes": [
            {"id": idx, "element": enc, "label": _short(e), "weight": list(e.weight().coords)}
            for idx, (enc, e) in enumerate(ordered)
        ],
        "edges": [{"source": a, "target": b, "i": i} for a, b, i in edges],
    }


def _edge_style(i: int, m: int) -> str:
    if i == m:
        return f'color="{ODD_COLOR}", penwidth=2.0'
    return f'color="{EDGE_COLORS[(i - 1) % len(EDGE_COLORS)]}"'


def _render_dot(graph: dict) -> str:
    m = graph["m"]
    lines = [
        f'digraph "{graph["target"]}_{m}_{graph["n"]}" {{',
        "  rankdir=TB;",
        "  node [shape=box, fontsize=10];",
    ]
    for node in graph["nodes"]:
        lines.append(f'  n{node["id"]} [label="{node["label"]}"];')
    for edge in graph["edges"]:
        style = _edge_style(edge["i"], m)
        lines.append(f'  n{edge["source"]} -> n{edge["target"]} [label="{edge["i"]}", {style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- verification suites ---------------------------------------------------


def _item(name: str, ok: bool, **extra) -> dict:
    out = {"name": name, "ok": bool(ok)}
    out.update(extra)
    return out


def _first_failure(name: str, failures, **extra) -> dict:
    """The check item for a sweep.  ``failures`` lazily describes each
    failing case, and the first description is the item's counterexample."""
    first = next(failures, None)
    if first is None:
        return _item(name, True, **extra)
    return _item(name, False, counterexample=first, **extra)


def _cyclotomic_pairs(count: int, seed: int, long: bool = False):
    """Seeded pairs of values whose sides are products of q-integers, [k]!,
    q^(2j) - 1 and q + 1, q - 1, q, so that denominators share factors as
    those of divided powers do.  Long values take up to six factors among
    [k] (k <= 12), [k]! (k <= 4) and q^(2j) - 1 (j <= 6) on each side, and
    keep 16 to 80 coefficients on each side once reduced, past both size
    crossovers of the arithmetic."""
    rng = random.Random(seed)
    if long:
        factors = (
            [QRat(q_int(k).num) for k in range(2, 13)]
            + [QRat(q_factorial(k).num) for k in (2, 3, 4)]
            + [_QP(2 * j) - 1 for j in range(1, 7)]
        )
        most, sizes = 6, range(16, 81)
    else:
        factors = (
            [QRat(q_int(k).num) for k in (2, 3, 4)]
            + [QRat(q_factorial(k).num) for k in (2, 3)]
            + [_QP(2 * j) - 1 for j in (1, 2, 3)]
            + [_QP(1) + 1, _QP(1) - 1, _QP(1)]
        )
        most, sizes = 3, None

    def side():
        out = QRat.from_int(rng.choice((1, -1, 2, 3, -6)))
        for _ in range(rng.randint(0, most)):
            out = out * rng.choice(factors)
        return out.num

    def value():
        while True:
            x = QRat(side(), side())
            if sizes is None or (len(x.num) in sizes and len(x.den) in sizes):
                return x

    for _ in range(count):
        yield value(), value()


def _accidental_pairs():
    """Pairs built on a = 1 + q^2 + ... + q^8 and b = q^12 - 1, which are
    coprime although a(2^k) and b(2^k) share the factor 5 whenever 4 | k."""
    a, b = QRat((1, 0, 1, 0, 1, 0, 1, 0, 1)), _QP(12) - 1
    return [(a, b), (a.inverse(), b.inverse()), (a / b, b / a)]


def _arithmetic_failures(pairs):
    # (x + y, y) adds a pair whose sum cancels part of the shared denominator
    for x, y in pairs:
        for u, v in ((x, y), (x + y, y)):
            for op, got in (("+", u + v), ("-", u - v), ("*", u * v), ("/", u / v)):
                want = full_product_reference(op, u, v)
                if got != want:
                    yield f"({u}) {op} ({v}): expected {want}, found {got}"


def _suite_qfield(cfg: RunConfig) -> list[dict]:
    contraction = all(
        q_binom(c, d) == _QP(-d) * q_binom(c - 1, d) + _QP(c - d) * q_binom(c - 1, d - 1)
        for c in range(1, 16)
        for d in range(c + 1)
    )
    collapse = all(
        akito_sum(a, b) == _QP(2 * a * b) for a in range(16) for b in range(16)
    )
    return [
        _item("gaussian binomial contraction (c,d <= 15)", contraction),
        _item("telescoping sum collapse to q^(2ab) (a,b <= 15)", collapse),
        _first_failure(
            "+ - * / on 120 seeded cyclotomic-shaped pairs match full-product reduction",
            _arithmetic_failures(_cyclotomic_pairs(60, 20261019)),
        ),
        _first_failure(
            f"+ - * / on {2 * LONG_PAIRS} seeded long cyclotomic-shaped pairs (16-80 "
            "coefficients) match full-product reduction",
            _arithmetic_failures(_cyclotomic_pairs(LONG_PAIRS, 20261020, long=True)),
        ),
        _first_failure(
            "+ - * / on the coprime pair 1 + q^2 + ... + q^8, q^12 - 1, whose values at "
            "q = 2^(4j) share the factor 5, match full-product reduction",
            _arithmetic_failures(_accidental_pairs()),
        ),
    ]


def _strategy_failures(rds):
    rng = random.Random(20240821)
    for rd in rds:
        ell = rd.m + rd.n
        words = [[rng.randint(1, ell - 1) for _ in range(k)] for k in range(5) for _ in range(6)]
        for word in words:
            u = normal_form(rd, word)
            for strategy in ("leftmost", "rightmost"):
                if normal_form(rd, word, strategy=strategy) != u:
                    yield (
                        f"rank ({rd.m},{rd.n}), word {word}: strategies latest and "
                        f"{strategy} give different normal forms"
                    )


def _involution_failures():
    rd = RootData(1, 3)
    u = normal_form(rd, [2, 3])
    if sigma_0n(rd, u) != normal_form(rd, [3, 2], -_QP(1)):
        yield "rank (1,3), word [2, 3]: sigma_0n(f_2 f_3) = -q f_3 f_2 fails"
    if sigma_0n(rd, sigma_0n(rd, u)) != u:
        yield "rank (1,3), word [2, 3]: sigma_0n(sigma_0n(u)) = u fails"


def _ladder_failures(rds):
    for rd in rds:
        m, where = rd.m, f"rank ({rd.m},{rd.n}), index {rd.m}"
        if crystal_f(rd, m, PBWVector.unit(rd)) != PBWVector.generator(rd, m):
            yield f"{where}: f_i(1) = f_i fails"
        if crystal_e(rd, m, PBWVector.generator(rd, m)) != PBWVector.unit(rd):
            yield f"{where}: e_i(f_i) = 1 fails"
    rd = RootData(2, 1)
    for c in range(4):
        if crystal_f(rd, 1, f_divided(rd, 1, c)) != f_divided(rd, 1, c + 1):
            yield f"rank (2,1), index 1: f_i(f_i^({c})) = f_i^({c + 1}) fails"


def _round_trip_failures(rds):
    for rd in rds:
        for word in ([1], [1, 2] if rd.m + rd.n > 2 else [1]):
            u = normal_form(rd, word)
            if pbw_from_json(rd, pbw_to_json(u)) != u:
                yield f"rank ({rd.m},{rd.n}), word {word}: {u} does not survive the JSON round trip"


def _string_recursion_failures():
    # every PBW monomial of degree at most 3, then each two neighbours of one
    # weight summed with a q-dependent coefficient, through the operators'
    # term by term path
    c = _QP(1) - _QP(-2)
    for rd in (RootData(2, 2), RootData(1, 3)):
        by_weight: dict[Weight, list] = {}
        for lab in product(range(4), repeat=rd.nroots):
            if rd.monomial_height(lab) <= 3 and max(lab[: rd.odd_count]) <= 1:
                by_weight.setdefault(rd.monomial_weight(lab), []).append(lab)
        cases = [(f"label {lab}", {lab: QRat.one()}) for labs in by_weight.values() for lab in labs]
        cases += [
            (f"sum {a} + ({c}) {b}", {a: QRat.one(), b: c})
            for labs in by_weight.values()
            for a, b in zip(labs, labs[1:])
        ]
        for name, terms in cases:
            u = PBWVector(rd, terms)
            for i, (dir, op) in product(rd.index_set, (("e", crystal_e), ("f", crystal_f))):
                if i != rd.m and op(rd, i, u) != string_reference(rd, i, u, dir == "f"):
                    yield f"rank ({rd.m},{rd.n}), {name}, index {i}, {dir}: off the recursion"


def _suite_pbw(cfg: RunConfig) -> list[dict]:
    rds = [RootData(1, 1), RootData(2, 1), RootData(1, 2)]
    return [
        _first_failure("straightening strategies agree on sampled words", _strategy_failures(rds)),
        _first_failure(
            "odd block involution: swap picks up -q and squares to one", _involution_failures()
        ),
        _first_failure("crystal ladders on divided powers", _ladder_failures(rds)),
        _first_failure("serialization round trip", _round_trip_failures(rds)),
        _first_failure(
            "crystal operators match the string recursion on (2,2), (1,3) up to degree 3, "
            "on monomials and on same-weight sums",
            _string_recursion_failures(),
        ),
    ]


def _crosscheck_work(m: int, n: int, cap: int) -> int:
    """An upper bound on the crosscheck's checks, an e and an f per index
    and element of the ball, times the cap squared, plus the set-up.  The
    ball is counted with the odd roots free, which only adds elements; roots
    higher than the cap cannot occur, and a rank whose single element is
    already over the limit is refused before any list of heights is built.
    The set-up, paid at any cap, is the first e'_i along each index, which
    straightens the free words of every root vector: 3^(h+3) per root of
    height h (fit to (5,5), (5,6) and (6,6) at cap 1, which took 1.9 s,
    6.3 s and 22.5 s on a 2-vCPU host), summed until it passes the limit."""
    ell = m + n
    per_element = 2 * (ell - 1) * max(cap, 1) ** 2
    if per_element > CROSSCHECK_LIMIT:
        return per_element
    setup = 0
    for h in range(1, ell):  # ell - h roots of height h
        setup += (ell - h) * 3 ** (h + 3)
        if setup > CROSSCHECK_LIMIT:
            return setup
    heights = [h for h in range(1, min(cap, ell - 1) + 1) for _ in range(ell - h)]
    return setup + per_element * _count_upto(cap, heights, True)


def _residue_text(closed: bool, res) -> str:
    if not closed:
        return "a coefficient with a pole at q = 0"
    return "{" + ", ".join(f"{lab}: {x}" for lab, x in sorted(res.items())) + "}"


def _crosscheck_failures(m: int, n: int, cap: int):
    # the lattice residue of each PBW image is the binf_op image, up to sign
    rd = RootData(m, n)
    for b in enumerate_binf(m, n, cap):
        u = lattice_vector(rd, pbw_label(rd, b))
        for i, (dir, op) in product(rd.index_set, (("e", crystal_e), ("f", crystal_f))):
            closed, res = lattice_residue(rd, op(rd, i, u))
            moved = binf_op(i, dir, b)
            want = set() if moved is ZERO else {pbw_label(rd, moved)}
            if not closed or set(res) != want or any(x not in (1, -1) for x in res.values()):
                expected = "no residue" if moved is ZERO else f"+-1 times {pbw_label(rd, moved)}"
                yield (
                    f"element {_short(b)}, index {i}, {dir}: expected {expected}, "
                    f"found {_residue_text(closed, res)}"
                )


def _suite_crosscheck(cfg: RunConfig) -> list[dict]:
    m, n = cfg.m, cfg.n
    cap = cfg.cap if cfg.cap is not None else DEFAULT_CROSSCHECK_CAP
    work = _crosscheck_work(m, n, cap)
    if work > CROSSCHECK_LIMIT:
        raise ValueError(
            f"crosscheck at ({m},{n}) cap {cap} weighs {work} checks times cap squared, "
            f"over the limit {CROSSCHECK_LIMIT}"
        )
    return [
        _first_failure(
            f"lattice residues of crystal_e/crystal_f match binf_op on ({m},{n}) cap {cap}",
            _crosscheck_failures(m, n, cap),
        )
    ]


def _suite_weight(cfg: RunConfig) -> Weight:
    """--lambda, or the weight (1, 0, ..., 0 | 1, 0, ..., 0) by default."""
    if cfg.lam is not None:
        return cfg.lam
    return Weight((1,) + (0,) * (cfg.m - 1) + (1,) + (0,) * (cfg.n - 1))


def _axiom_sweep(name: str, elements, op, eps, phi, m: int, ell: int) -> dict:
    """The check item for the crystal axioms on elements.  A failed item
    names its first counterexample: the element, the index, the direction
    and the law that broke."""

    def failures():
        for b in elements:
            w = b.weight()
            for i in range(1, ell):
                up, down, root = op(i, "e", b), op(i, "f", b), alpha(i, ell)
                laws = (
                    (
                        "e/f",
                        "phi = eps + <wt,h_i>",
                        i == m or phi(i, b) == eps(i, b) + cartan(w, i, m),
                    ),
                    ("e/f", "eps + phi in {0, 1}", i != m or eps(i, b) + phi(i, b) in (0, 1)),
                    ("e", "f(e(b)) = b", up is ZERO or op(i, "f", up) == b),
                    ("e", "wt(e(b)) = wt(b) + alpha_i", up is ZERO or up.weight() - w == root),
                    ("f", "e(f(b)) = b", down is ZERO or op(i, "e", down) == b),
                    ("f", "wt(f(b)) = wt(b) - alpha_i", down is ZERO or w - down.weight() == root),
                )
                for dir, law, ok in laws:
                    if not ok:
                        yield f"element {_short(b)}, index {i}, {dir}: {law} fails"

    return _first_failure(name, failures())


def _suite_crystal_axioms(cfg: RunConfig) -> list[dict]:
    m, n = cfg.m, cfg.n
    ell = m + n
    cap = cfg.cap if cfg.cap is not None else 4
    odds = odd_subsets(m, n)
    ball = enumerate_binf(m, n, cap)
    lam = _suite_weight(cfg)
    members = kac_elements(m, n, lam)
    return [
        _axiom_sweep(
            f"odd subset axioms on all {len(odds)} subsets",
            odds, oddset_op, oddset_eps, oddset_phi, m, ell,
        ),
        _axiom_sweep(
            f"limit crystal axioms through degree {cap} ({len(ball)} elements)",
            ball, binf_op, binf_eps, binf_phi, m, ell,
        ),
        _axiom_sweep(
            f"finite quotient axioms over weight {list(lam.coords)} ({len(members)} elements)",
            members,
            kac_op,
            lambda i, b: string_length(kac_op, i, "e", b),
            lambda i, b: string_length(kac_op, i, "f", b),
            m,
            ell,
        ),
    ]


def _suite_kappa(cfg: RunConfig) -> list[dict]:
    m, n = cfg.m, cfg.n
    ell = m + n
    lam = _suite_weight(cfg)
    members = kac_elements(m, n, lam)
    mu = lam + Weight((1,) * ell)
    nu = lam + Weight((2,) * ell)

    def fails(law: str, holds):
        return (f"element {_short(k)}: {law} fails" for k in members if not holds(k))

    def intertwining_failures():
        for k in members:
            b = kappa(k)
            for i in range(1, ell):
                if i == m:
                    continue
                moved = kac_op(i, "f", k)
                if moved is not ZERO and kappa(moved) != binf_op(i, "f", b):
                    yield f"element {_short(k)}, index {i}, f: kappa(f_i b) = f_i kappa(b) fails"

    return [
        _first_failure(
            f"normal form round trips over weight {list(lam.coords)}",
            fails("kappa_inv(kappa(b)) = b", lambda k: kappa_inv(kappa(k), lam) == k),
        ),
        _first_failure(
            "enlargement transitivity",
            fails(
                "theta(mu,nu,theta(lam,mu,b)) = theta(lam,nu,b)",
                lambda k: theta(mu, nu, theta(lam, mu, k)) == theta(lam, nu, k),
            ),
        ),
        _first_failure(
            "normal form invariant under enlargement",
            fails(
                "kappa(theta(lam,mu,b)) = kappa(b)",
                lambda k: kappa(theta(lam, mu, k)) == kappa(k),
            ),
        ),
        _first_failure(
            "even-index lowering intertwines with the normal form", intertwining_failures()
        ),
    ]


def _suite_components(cfg: RunConfig) -> list[dict]:
    report = cmd_components(cfg)
    return [
        _item(
            f"component count {report['count']} matches 2^(m(n-1)) = {report['expected']}",
            report["count"] == report["expected"],
            labels=report["labels"],
        ),
        _item("pairwise isomorphism and product model", report["isomorphism_checked"]),
    ]


# the deep-regime cells (l, t, s) with l <= 4 and l - t < s <= l - t + 3
_DEEP_CELLS = [(l, t, s) for l in range(5) for t in range(l + 1) for s in range(l - t + 1, l - t + 4)]


def _valuation_failures():
    for l, t, s in _DEEP_CELLS:
        for k in range(l + 1):
            want = 0 if k == t else (s + k - l) * (k - t) if k > t else (s + t + 1 - l) * (t - k)
            c = C_sk(l, t, s, k)
            found = min_degree(c) if c else "none (the coefficient is zero)"
            if found != want:
                yield f"(l, t, s, k) = ({l}, {t}, {s}, {k}): expected degree {want}, found {found}"


def _expansion_failures():
    for l, t, s in _DEEP_CELLS:
        v = act_f_pow(s, E_t(l, t))
        for k in range(l + 1):
            got, want = v.terms.get((l - k, t + s - l + k), QRat.zero()), C_sk(l, t, s, k)
            if got != want:
                yield f"(l, t, s, k) = ({l}, {t}, {s}, {k}): f^(s) E_t has {got}, C(s, k) {want}"


def _suite_boson(cfg: RunConfig) -> list[dict]:
    grid = congruence_grid(6, 10)
    items = [
        _first_failure(
            "lowering congruence grid (l <= 6, t <= l, s <= 10)",
            (
                f"cell (l, t, s) = ({e['l']}, {e['t']}, {e['s']}): f^(s) E_t is not the "
                f"case {e['case']} monomial modulo q times the lattice"
                for e in grid
                if not e["ok"]
            ),
            grid=grid,
        ),
        _first_failure(
            "kernel vectors die under the coupled raising action",
            (
                f"(l, t) = ({l}, {t}): the raising action does not kill E_t"
                for l in range(7)
                for t in range(l + 1)
                if not act_eprime(E_t(l, t)).is_zero()
            ),
        ),
        _first_failure("coefficient family valuations (l <= 4)", _valuation_failures()),
        _first_failure("f^(s) E_t expands over C(s, k) (l <= 4)", _expansion_failures()),
    ]
    name = "string decomposition induces the signature rule (l=2, depth 6)"
    try:
        report = boson_crystal_check(2, 6)
        ok = report["rule_matched"] and report["lattice_closed"]
        items.append(_item(name, ok))
    except AssertionError as exc:
        items.append(_item(name, False, counterexample=f"first failed assertion: {exc}"))
    return items


def _suite_examples(cfg: RunConfig) -> list[dict]:
    b = BInfElt(_EX_S, _EX_PLUS, _EX_MINUS)
    items = []

    f3 = binf_op(3, "f", b)
    items.append(
        _item(
            "odd lowering adds the boundary box",
            f3 is not ZERO
            and f3.S.bits == _EX_S.bits | {(3, 4)}
            and binf_op(3, "e", b) is ZERO,
        )
    )
    f1 = binf_op(1, "f", b)
    f11 = binf_op(1, "f", f1) if f1 is not ZERO else ZERO
    items.append(
        _item(
            "first-row lowering moves a box then feeds the even block",
            f1 is not ZERO
            and f1.S.bits == (_EX_S.bits - {(2, 4)}) | {(1, 4)}
            and f11 is not ZERO
            and f11.bplus.entry(1, 2) == 3,
        )
    )
    f5 = binf_op(5, "f", b)
    items.append(
        _item(
            "minus block lowering shifts the block data",
            f5 is not ZERO and f5.bminus.entry(4, 5) == 1 and f5.bminus.entry(4, 6) == 2,
        )
    )
    items.append(
        _item(
            "starred string lengths at the minus indices are (1, 2, 1)",
            [epsilon_star(i, _EX_MINUS) for i in (4, 5, 6)] == [1, 2, 1],
        )
    )
    bprime = XElt(_EX_S, _EX_PLUS, HWElt(_EX_MINUS, lam_minus(_EX_LAM, 3)), lam_plus(_EX_LAM, 3))
    f5p = x_op(5, "f", bprime)
    items.append(
        _item(
            "truncated minus block reroutes the lowering onto the odd subset",
            f5p is not ZERO
            and f5p.S.bits == (_EX_S.bits - {(3, 5)}) | {(3, 6)}
            and (f5 is ZERO or f5p.S != f5.S),
        )
    )
    bsecond = KacElt(
        _EX_S, HWElt(_EX_PLUS, lam_plus(_EX_LAM, 3)), HWElt(_EX_MINUS, lam_minus(_EX_LAM, 3))
    )
    k1 = kac_op(1, "f", bsecond)
    items.append(
        _item(
            "plus truncation kills the second lowering over the fixed weight",
            k1 is not ZERO and kac_op(1, "f", k1) is ZERO,
        )
    )
    return items


_SUITE_RUNNERS = {
    "qfield": _suite_qfield,
    "pbw": _suite_pbw,
    "crosscheck": _suite_crosscheck,
    "crystal-axioms": _suite_crystal_axioms,
    "kappa": _suite_kappa,
    "components": _suite_components,
    "boson": _suite_boson,
    "examples": _suite_examples,
}
VERIFY_SUITES = tuple(_SUITE_RUNNERS)


def _run_suite(name: str, cfg: RunConfig) -> list[dict]:
    # a suite's own invariant checks raise AssertionError; report it as a
    # failed check so the remaining suites still run
    try:
        return _SUITE_RUNNERS[name](cfg)
    except AssertionError as exc:
        return [_item(f"raised AssertionError: {exc}", False)]


def cmd_verify(cfg: RunConfig) -> dict:
    """Run the requested suites and return the structured report."""
    names = VERIFY_SUITES if cfg.suite in (None, "all") else (cfg.suite,)
    for name in names:
        if name not in _SUITE_RUNNERS:
            raise ValueError(f"unknown suite {name!r}")
    suites = {name: _run_suite(name, cfg) for name in names}
    checks = sum(len(items) for items in suites.values())
    failures = sum(1 for items in suites.values() for item in items if not item["ok"])
    return {
        "suites": suites,
        "checks": checks,
        "failures": failures,
        "ok": failures == 0,
    }


def _render_verify_text(report: dict) -> str:
    lines = []
    for name, items in report["suites"].items():
        for item in items:
            line = f"{'PASS' if item['ok'] else 'FAIL'} [{name}] {item['name']}"
            if "counterexample" in item:
                line += f": {item['counterexample']}"
            lines.append(line)
    if report["ok"]:
        lines.append(f"all {report['checks']} checks passed")
    else:
        lines.append(f"{report['failures']} of {report['checks']} checks failed")
    return "\n".join(lines) + "\n"


# -- components ------------------------------------------------------------


def cmd_components(cfg: RunConfig) -> dict:
    """Run the component census at the configured rank and cap."""
    cap = cfg.cap if cfg.cap is not None else DEFAULT_COMPONENTS_CAP
    return components(cfg.m, cfg.n, cap)


def _render_components_text(report: dict) -> str:
    labels = " ".join(
        "{" + ",".join(f"{a}.{b}" for a, b in label) + "}" for label in report["labels"]
    )
    return (
        f"rank ({report['m']},{report['n']}) cap {report['cap']}: "
        f"{report['count']} components (expected {report['expected']}), "
        f"isomorphism checked: {str(report['isomorphism_checked']).lower()}\n"
        f"labels: {labels}\n"
    )


# -- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercrystal",
        description="crystal graph export, verification suites, and component census",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    graph = subs.add_parser("graph", help="export a crystal graph")
    graph.add_argument("--target", choices=GRAPH_TARGETS, required=True)
    verify = subs.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", choices=VERIFY_SUITES + ("all",), default="all")
    subs.add_parser("components", help="component census of the limit crystal")
    for name, sub in subs.choices.items():
        default_format = next(iter(_COMMANDS[name][1]))
        sub.add_argument("--m", type=int, default=2)
        sub.add_argument("--n", type=int, default=2)
        sub.add_argument("--cap", type=int, default=None)
        sub.add_argument("--lambda", dest="lam", default=None, metavar="C1,C2,...")
        sub.add_argument("--format", choices=("json", "dot", "text"), default=default_format)
        sub.add_argument("--out", default=None)
    return parser


def _dumps_indented(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for the values the
    commands report: dicts with str keys, lists, tuples, str, int, bool and
    None.  In Python 3.11 an indent makes ``json`` take its pure-Python
    encoder, which took as long as building a graph; this writer takes
    about half that."""
    chunks: list[str] = []
    _write_indented(obj, "\n", chunks.append)
    return "".join(chunks)


def _write_indented(obj, newline: str, emit) -> None:
    if isinstance(obj, str):
        emit(_quote(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    elif isinstance(obj, (dict, list, tuple)):
        if not obj:
            emit("{}" if isinstance(obj, dict) else "[]")
            return
        inner = newline + "  "
        if isinstance(obj, dict):
            sep = "{" + inner
            for key, value in obj.items():
                if not isinstance(key, str):
                    raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
                emit(sep + _quote(key) + ": ")
                _write_indented(value, inner, emit)
                sep = "," + inner
            emit(newline + "}")
        else:
            sep = "[" + inner
            for value in obj:
                emit(sep)
                _write_indented(value, inner, emit)
                sep = "," + inner
            emit(newline + "]")
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _emit(payload: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(payload)
        return
    try:
        Path(out).write_text(payload)
    except OSError as exc:
        raise ValueError(f"cannot write --out {out}: {exc.strerror or exc}") from exc


def _json_text(report: dict) -> str:
    return _dumps_indented(report) + "\n"


# each command: its runner, and its writer for each --format it supports,
# the default first
_COMMANDS = {
    "graph": (cmd_graph, {"json": _json_text, "dot": _render_dot}),
    "verify": (cmd_verify, {"text": _render_verify_text, "json": _json_text}),
    "components": (cmd_components, {"text": _render_components_text, "json": _json_text}),
}


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        cfg = _config(ns)
        run, writers = _COMMANDS[ns.command]
        if cfg.fmt not in writers:
            raise ValueError(f"{ns.command} supports --format {' or '.join(writers)}")
        report = run(cfg)
        _emit(writers[cfg.fmt](report), cfg.out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.get("ok", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
