"""The three benchmark workloads and their exact references.

Each workload turns a seed into a fixed list of checks (its *plan*).  A
check is one input whose output is computed through the package's public
functions and compared exactly against a reference that does not share
that code path.  The harness runs the plan in whole passes; every pass
runs the same checks in the same seeded order.

Checks whose input set does not depend on the seed (the ball crosscheck,
the boson grid cells, the component census and the graph exports) also
return a canonical encoding of their output.  The harness hashes those
into one digest per pass and compares it with ``DIGESTS``, recorded from
the unoptimised program, so a change that alters any such result fails
the run even where the per-check reference would not notice.
"""

from __future__ import annotations

import contextlib
import io
import json
from hashlib import sha256
from itertools import product
from types import SimpleNamespace

from tracing import counting

# sha256 over the sorted (key, output) lines of one pass, recorded when the
# benchmark was added
DIGESTS = {
    "pbw-crosscheck": "d980852d2268f90e9766a5c093cf59049a693d9c0e80bc055022f490db254c62",
    "boson-grid": "d1dab05b6f166682d2e1f5a23e2df0bc319883ef241d153ec4b244e805de4489",
    "crystal-sweep": "423cbf2ca20826630c23b1b440a3aa40a6fa0930b4feee4dcc7a26f0d0089aa9",
}


class Plan:
    """A workload's checks plus the hook that starts a pass.

    ``checks`` holds ``(kind, key, fn, args)``: ``fn(ctx, *args)`` returns
    ``(ok, output)``, and ``key`` is None for checks left out of the digest.
    ``start_pass(F, tr)`` returns the per-pass context handed to every fn.
    """

    def __init__(self, checks, start_pass, size: str):
        self.checks = checks
        self.start_pass = start_pass
        self.size = size


def bind(mods, tracer) -> SimpleNamespace:
    """The layer functions the checks call, counted where the trace asks."""
    cc, lc, sp, qb, qf = (
        mods.combicrystal, mods.limitcrystal, mods.superpbw, mods.qboson, mods.qfield,
    )
    F = SimpleNamespace(
        ZERO=cc.ZERO,
        oddset_op=cc.oddset_op, oddset_eps=cc.oddset_eps, oddset_phi=cc.oddset_phi,
        kac_op=cc.kac_op, cartan=cc.cartan,
        binf_op=lc.binf_op, binf_eps=lc.binf_eps, binf_phi=lc.binf_phi,
        enumerate_binf=lc.enumerate_binf, kac_elements=lc.kac_elements,
        theta=lc.theta, kappa=lc.kappa, kappa_inv=lc.kappa_inv,
        components=lc.components,
        RootData=sp.RootData, lattice_vector=sp.lattice_vector,
        crystal_e=sp.crystal_e, crystal_f=sp.crystal_f,
        lattice_residue=sp.lattice_residue, normal_form=sp.normal_form,
        E_t=qb.E_t, act_f_pow=qb.act_f_pow, C_sk=qb.C_sk,
        boson_crystal_check=qb.boson_crystal_check,
        q_binom=qb.q_binom, q_int=qf.q_int, akito_sum=qf.akito_sum,
        min_degree=qf.min_degree, QP=qf.QRat.q_power,
        cli_main=mods.cli.main,
    )
    if tracer.enabled:
        for name in ("oddset_op", "oddset_eps", "oddset_phi", "kac_op", "cartan"):
            setattr(F, name, counting(getattr(F, name), tracer, "combicrystal.calls"))
    return F


def _alpha(Weight, i: int, ell: int):
    c = [0] * ell
    c[i - 1], c[i] = 1, -1
    return Weight(tuple(c))


def ball_size(m: int, n: int, cap: int, free_minus: bool = True) -> int:
    """Triples of degree <= cap, counted by a truncated generating function.

    Odd roots contribute (1 + x^h), even roots 1 / (1 - x^h), where h is
    the root height; the count is the sum of coefficients up to x^cap.
    Without ``free_minus`` the minus block is held at zero.
    """
    poly = [1] + [0] * cap
    ell = m + n
    for a in range(1, m + 1):
        for b in range(m + 1, ell + 1):
            h = b - a
            poly = [poly[d] + (poly[d - h] if d >= h else 0) for d in range(cap + 1)]
    even = [(a, b) for b in range(2, m + 1) for a in range(1, b)]
    if free_minus:
        even += [(a, b) for a in range(m + 1, ell) for b in range(a + 1, ell + 1)]
    for a, b in even:
        h = b - a
        for d in range(h, cap + 1):
            poly[d] += poly[d - h]
    return sum(poly)


def digest(items) -> str:
    h = sha256()
    for key, out in sorted(items):
        h.update(f"{key}\t{out}\n".encode())
    return h.hexdigest()


# -- pbw-crosscheck -------------------------------------------------------------

PBW_BALLS = ((2, 2, 6), (2, 3, 5))
PBW_WORDS_PER_RANK = 40
PBW_WORD_LENGTHS = (5, 6, 7)
NF_STRATEGIES = ("latest", "leftmost", "rightmost")


def _full_label(root_index, Root, b) -> tuple[int, ...]:
    lab = [0] * len(root_index)
    for a, bb in b.S.bits:
        lab[root_index[Root(a, bb)]] = 1
    for block in (b.bplus, b.bminus):
        for (a, bb), c in zip(block.roots(), block.mult):
            lab[root_index[Root(a, bb)]] = c
    return tuple(lab)


def _pbw_crosscheck(ctx, rank, b, label, i, d):
    F, tr = ctx.F, ctx.tr
    rd = ctx.rds[rank]
    with tr.span("superpbw.lattice_vector"):
        u = F.lattice_vector(rd, label)
    op = F.crystal_e if d == "e" else F.crystal_f
    with tr.span("superpbw.crystal_op"):
        v = op(rd, i, u)
    if tr.enabled:
        wt = v.weight()
        if wt is not None and wt not in ctx.seen[rank]:
            ctx.seen[rank].add(wt)
            tr.count("superpbw.residue_new_weight")
        tr.count("superpbw.residue_calls")
    with tr.span("superpbw.residue"):
        closed, res = F.lattice_residue(rd, v)
    with tr.span("limitcrystal.binf_op"):
        moved = F.binf_op(i, d, b)
    if not closed:
        return False, None
    want = set() if moved is F.ZERO else {_full_label(rd.root_index, ctx.Root, moved)}
    ok = set(res) == want and all(x in (1, -1) for x in res.values())
    return ok, repr(sorted(res.items()))


def _pbw_normal_form(ctx, rank, word):
    F, tr = ctx.F, ctx.tr
    rd = ctx.rds[rank]
    outs = []
    for strategy in NF_STRATEGIES:
        with tr.span("superpbw.normal_form"):
            outs.append(F.normal_form(rd, word, 1, strategy))
    return outs[0] == outs[1] == outs[2], None


def plan_pbw(mods, rng) -> Plan:
    """Residues of crystal operators on the lattice against the triple model.

    Every (ball element, index, direction) of both balls, plus seeded
    random generator words straightened by all three strategies.
    """
    Root = mods.superpbw.Root
    checks = []
    for m, n, cap in PBW_BALLS:
        rd = mods.superpbw.RootData(m, n)
        for b in mods.limitcrystal.enumerate_binf(m, n, cap):
            label = _full_label(rd.root_index, Root, b)
            for i in range(1, m + n):
                for d in ("e", "f"):
                    key = f"ball {m},{n} {label} {i}{d}"
                    checks.append(
                        ("crosscheck", key, _pbw_crosscheck, ((m, n), b, label, i, d))
                    )
        for _ in range(PBW_WORDS_PER_RANK):
            word = tuple(rng.randrange(1, m + n) for _ in range(rng.choice(PBW_WORD_LENGTHS)))
            checks.append(("normal_form", None, _pbw_normal_form, ((m, n), word)))
    rng.shuffle(checks)

    def start_pass(F, tr):
        # a fresh RootData per pass: every CLI process pays the cache fill
        rds = {(m, n): F.RootData(m, n) for m, n, _ in PBW_BALLS}
        return SimpleNamespace(F=F, tr=tr, Root=Root, rds=rds, seen={r: set() for r in rds})

    sizes = " + ".join(f"ball ({m},{n}) cap {c}" for m, n, c in PBW_BALLS)
    return Plan(
        checks, start_pass,
        f"{sizes} x every index and direction, {2 * PBW_WORDS_PER_RANK} words",
    )


# -- boson-grid ---------------------------------------------------------------

BOSON_MAX_L = 6
BOSON_MAX_S = 10
IDENTITY_RANGE = 16
CRYSTAL_CHECKS = ((2, 6), (3, 6), (4, 6))


def _boson_cell(ctx, l, t, s):
    F, tr = ctx.F, ctx.tr
    e = F.E_t(l, t)
    with tr.span("qboson.act_f_pow"):
        v = F.act_f_pow(s, e)
    with tr.span("qboson.c_sk"):
        cs = [F.C_sk(l, t, s, k) for k in range(l + 1)]
    want = {(l - k, t + s - l + k): c for k, c in enumerate(cs) if c}
    ok = v.coeffs == want
    for k, c in enumerate(cs):
        # order of vanishing at q = 0 of each deep-regime coefficient
        val = 0 if k == t else (s + k - l) * (k - t) if k > t else (s + t + 1 - l) * (t - k)
        ok = ok and bool(c) and F.min_degree(c) == val
    return ok, repr(sorted((ij, str(c)) for ij, c in v.coeffs.items()))


def _pascal(ctx, c, d):
    F, tr = ctx.F, ctx.tr
    QP = F.QP
    with tr.span("qfield.identity"):
        lhs = F.q_binom(c, d)
        rhs = QP(-d) * F.q_binom(c - 1, d) + QP(c - d) * F.q_binom(c - 1, d - 1)
    if (c, d) == (0, 0):  # both right-hand binomials vanish at the corner
        return lhs == QP(0) and not rhs, None
    return lhs == rhs, None


def _akito(ctx, a, b):
    F, tr = ctx.F, ctx.tr
    with tr.span("qfield.identity"):
        total = F.akito_sum(a, b)
    return total == F.QP(2 * a * b), None


def _q_int_add(ctx, a, b):
    # [a + b] = q^b [a] + q^-a [b]
    F, tr = ctx.F, ctx.tr
    QP = F.QP
    with tr.span("qfield.identity"):
        ok = F.q_int(a + b) == QP(b) * F.q_int(a) + QP(-a) * F.q_int(b)
    return ok, None


def _boson_crystal(ctx, l, depth):
    F, tr = ctx.F, ctx.tr
    with tr.span("qboson.crystal_check"):
        report = F.boson_crystal_check(l, depth)
    nodes = sum(min(l, d) + 1 for d in range(depth + 1))
    ok = (
        report["nodes"] == nodes
        and report["edges"] == 2 * nodes
        and report["kernel_basis_checked"] is True
        and report["lattice_closed"] is True
        and report["rule_matched"] is True
    )
    return ok, json.dumps(report, sort_keys=True)


def plan_boson(mods, rng) -> Plan:
    """The deep-regime (l, t, s) grid against the C_sk expansion, the
    Gaussian-binomial identities, and whole small crystal-base checks."""
    checks = []
    for l in range(BOSON_MAX_L + 1):
        for t in range(l + 1):
            for s in range(l - t + 1, BOSON_MAX_S + 1):
                checks.append(("cell", f"cell {l},{t},{s}", _boson_cell, (l, t, s)))
    for a, b in product(range(IDENTITY_RANGE), repeat=2):
        checks.append(("pascal", None, _pascal, (a, b)))
        checks.append(("akito", None, _akito, (a, b)))
        checks.append(("q_int", None, _q_int_add, (a, b)))
    for l, depth in CRYSTAL_CHECKS:
        checks.append(("crystal_check", f"crystal {l},{depth}", _boson_crystal, (l, depth)))
    rng.shuffle(checks)

    def start_pass(F, tr):
        return SimpleNamespace(F=F, tr=tr)

    ncells = sum(1 for c in checks if c[0] == "cell")
    return Plan(
        checks, start_pass,
        f"{ncells} cells l<={BOSON_MAX_L} s<={BOSON_MAX_S}, "
        f"3 x {IDENTITY_RANGE}^2 identities, crystal checks {list(CRYSTAL_CHECKS)}",
    )


# -- crystal-sweep ------------------------------------------------------------

# every rank with mn = 16 (the top of criterion 5's sweep) and with mn = 14, 15
ODDSET_RANKS = ((1, 16), (2, 8), (4, 4), (8, 2), (16, 1), (2, 7), (7, 2), (3, 5), (5, 3))
ODDSETS_PER_RANK = 200
BINF_BALLS = ((2, 2, 5), (2, 3, 4))
KAC_SAMPLE = 300
COMPONENT_RUNS = ((1, 2, 4), (2, 2, 4), (1, 3, 4), (2, 3, 3), (3, 2, 3), (3, 3, 2), (3, 3, 3))
ENUMERATIONS = ((2, 2, 6), (2, 3, 5), (3, 3, 4))
# cli arguments of each export and its node count from an independent formula
GRAPHS = (
    (("--m", "2", "--n", "2", "--target", "binf", "--cap", "4"), ball_size(2, 2, 4)),
    (("--m", "2", "--n", "3", "--target", "binf", "--cap", "4"), ball_size(2, 3, 4)),
    # 2^(mn) odd subsets times the two gl(2) strings of (1,0 | 1,0)
    (("--m", "2", "--n", "2", "--target", "kac", "--lambda", "1,0,1,0", "--format", "dot"), 16 * 2 * 2),
    # the minus truncation over (2,1 | 0,0) is a single point
    (("--m", "2", "--n", "2", "--target", "xlambda", "--cap", "3", "--lambda", "2,1,0,0"),
     ball_size(2, 2, 3, free_minus=False)),
    (("--m", "3", "--n", "3", "--target", "oddset"), 2 ** 9),
)
# beyond ENUMERATION_LIMIT: the only correct answer is a refusal
REFUSALS = ((3, 4, 12), (3, 4, 14))


def _oddset_axioms(ctx, S):
    F, tr = ctx.F, ctx.tr
    m, ell = S.m, S.m + S.n
    ZERO = F.ZERO
    with tr.span("combicrystal.oddset"):
        wt = S.weight()
        for i in range(1, ell):
            eps, phi = F.oddset_eps(i, S), F.oddset_phi(i, S)
            if i == m:
                if eps + phi not in (0, 1):
                    return False, None
            elif phi - eps != F.cartan(wt, i, m):
                return False, None
            down = F.oddset_op(i, "f", S)
            if (down is ZERO) != (phi == 0):
                return False, None
            if down is not ZERO:
                if F.oddset_op(i, "e", down) != S:
                    return False, None
                if down.weight() != wt - _alpha(ctx.Weight, i, ell):
                    return False, None
                if i != m and (F.oddset_eps(i, down) != eps + 1 or F.oddset_phi(i, down) != phi - 1):
                    return False, None
            up = F.oddset_op(i, "e", S)
            if (up is ZERO) != (eps == 0):
                return False, None
            if up is not ZERO and F.oddset_op(i, "f", up) != S:
                return False, None
    return True, None


def _binf_axioms(ctx, b):
    F, tr = ctx.F, ctx.tr
    m, ell = b.S.m, b.S.m + b.S.n
    ZERO = F.ZERO
    with tr.span("limitcrystal.binf_op"):
        wt = b.weight()
        for i in range(1, ell):
            eps, phi = F.binf_eps(i, b), F.binf_phi(i, b)
            if i == m:
                if eps + phi not in (0, 1):
                    return False, None
            elif phi - eps != F.cartan(wt, i, m) or F.binf_op(i, "f", b) is ZERO:
                return False, None
            down = F.binf_op(i, "f", b)
            if down is not ZERO and (
                F.binf_op(i, "e", down) != b or down.weight() != wt - _alpha(ctx.Weight, i, ell)
            ):
                return False, None
            up = F.binf_op(i, "e", b)
            if (up is ZERO) != (eps == 0):
                return False, None
            if up is not ZERO and (
                F.binf_op(i, "f", up) != b or up.weight() != wt + _alpha(ctx.Weight, i, ell)
            ):
                return False, None
    return True, None


def _string_length(op, ZERO, i, d, b) -> int:
    k = 0
    while True:
        b = op(i, d, b)
        if b is ZERO:
            return k
        k += 1


def _kac_roundtrip(ctx, lam, mu, nu, k):
    F, tr = ctx.F, ctx.tr
    ZERO, m, ell = F.ZERO, 2, 4
    wt = k.weight()
    with tr.span("combicrystal.kac_op"):
        for i in range(1, ell):
            eps = _string_length(F.kac_op, ZERO, i, "e", k)
            phi = _string_length(F.kac_op, ZERO, i, "f", k)
            if i == m:
                if eps + phi not in (0, 1):
                    return False, None
            elif phi - eps != F.cartan(wt, i, m):
                return False, None
            down = F.kac_op(i, "f", k)
            if down is not ZERO and F.kac_op(i, "e", down) != k:
                return False, None
            up = F.kac_op(i, "e", k)
            if up is not ZERO and F.kac_op(i, "f", up) != k:
                return False, None
    with tr.span("limitcrystal.kappa_theta"):
        t = F.theta(lam, mu, k)
        ok = F.theta(mu, nu, t) == F.theta(lam, nu, k)
        limit = F.kappa(k)
        ok = ok and F.kappa(t) == limit and F.kappa_inv(limit, lam) == k
    return ok, None


def _kac_enumeration(ctx, lam):
    # |B(lam)| = 2^(mn) times the two gl(2) string lengths
    F, tr = ctx.F, ctx.tr
    p1, p2, q1, q2 = lam.coords
    with tr.span("limitcrystal.enumerate"):
        count = len(F.kac_elements(2, 2, lam))
    return count == 16 * (p1 - p2 + 1) * (q1 - q2 + 1), None


def _binf_enumeration(ctx, m, n, cap):
    F, tr = ctx.F, ctx.tr
    with tr.span("limitcrystal.enumerate"):
        ball = F.enumerate_binf(m, n, cap)
    return len(ball) == ball_size(m, n, cap), str(len(ball))


def _components(ctx, m, n, cap):
    F, tr = ctx.F, ctx.tr
    with tr.span("limitcrystal.components"):
        report = F.components(m, n, cap)
    expected = 2 ** (m * (n - 1))
    ok = (
        report["count"] == expected
        and report["expected"] == expected
        and len(report["labels"]) == expected
        and report["isomorphism_checked"] is True
    )
    return ok, json.dumps(report["labels"])


def _graph(ctx, argv, expected_count):
    F, tr = ctx.F, ctx.tr
    path = ctx.outdir / "graph.out"
    err = io.StringIO()
    with tr.span("cli.graph"), contextlib.redirect_stderr(err):
        rc = F.cli_main(list(argv) + ["--out", str(path)])
    data = path.read_bytes()
    path.unlink()
    tr.count("cli.graph_bytes", len(data))
    if rc != 0 or err.getvalue():
        return False, None
    if "dot" in argv:
        nodes = sum(1 for line in data.splitlines() if b"->" not in line and b"[label=" in line)
    else:
        nodes = json.loads(data)["count"]
    return nodes == expected_count, sha256(data).hexdigest()


def _refuse_components(ctx, m, n, cap):
    F, tr = ctx.F, ctx.tr
    try:
        with tr.span("limitcrystal.refuse"):
            F.components(m, n, cap)
    except ValueError as exc:
        return str(exc) == "degree cap exceeded", None
    return False, None


def _refuse_graph(ctx, m, n, cap):
    F, tr = ctx.F, ctx.tr
    path = ctx.outdir / "refused.out"
    err = io.StringIO()
    argv = ["graph", "--m", str(m), "--n", str(n), "--target", "binf", "--cap", str(cap)]
    with tr.span("limitcrystal.refuse"), contextlib.redirect_stderr(err):
        rc = F.cli_main(argv + ["--out", str(path)])
    return rc == 2 and err.getvalue() == "error: degree cap exceeded\n" and not path.exists(), None


def plan_sweep(mods, rng, outdir) -> Plan:
    """The combinatorial route alone: crystal axioms, Kac-module round
    trips, enumerations, the component census, graph export and refusals."""
    cc, lc, sp = mods.combicrystal, mods.limitcrystal, mods.superpbw
    Weight = sp.Weight
    checks = []
    for m, n in ODDSET_RANKS:
        boxes = [(a, b) for a in range(1, m + 1) for b in range(m + 1, m + n + 1)]
        for _ in range(ODDSETS_PER_RANK):
            mask = rng.getrandbits(len(boxes))
            S = cc.OddSet(m, n, frozenset(p for k, p in enumerate(boxes) if mask >> k & 1))
            checks.append(("oddset", None, _oddset_axioms, (S,)))
    for m, n, cap in BINF_BALLS:
        for b in lc.enumerate_binf(m, n, cap):
            checks.append(("binf", None, _binf_axioms, (b,)))
    dominant = [
        Weight(c) for c in product(range(3), repeat=4) if c[0] >= c[1] and c[2] >= c[3]
    ]
    ones, twos = Weight((1, 1, 1, 1)), Weight((2, 2, 2, 2))
    kac = []
    for lam in dominant:
        checks.append(("enumerate", None, _kac_enumeration, (lam,)))
        kac += [(lam, lam + ones, lam + twos, k) for k in lc.kac_elements(2, 2, lam)]
    for args in rng.sample(kac, KAC_SAMPLE):
        checks.append(("kac", None, _kac_roundtrip, args))
    for m, n, cap in ENUMERATIONS:
        checks.append(("enumerate", f"ball {m},{n},{cap}", _binf_enumeration, (m, n, cap)))
    for m, n, cap in COMPONENT_RUNS:
        checks.append(("components", f"components {m},{n},{cap}", _components, (m, n, cap)))
    for argv, count in GRAPHS:
        argv = ("graph",) + argv
        checks.append(("graph", " ".join(argv), _graph, (argv, count)))
    for m, n, cap in REFUSALS:
        checks.append(("refuse", None, _refuse_components, (m, n, cap)))
        checks.append(("refuse", None, _refuse_graph, (m, n, cap)))
    rng.shuffle(checks)

    def start_pass(F, tr):
        return SimpleNamespace(F=F, tr=tr, Weight=Weight, outdir=outdir)

    return Plan(
        checks, start_pass,
        f"{ODDSETS_PER_RANK} odd subsets at each of {len(ODDSET_RANKS)} ranks with mn >= 14, "
        f"binf balls {list(BINF_BALLS)}, {KAC_SAMPLE} Kac round trips at rank (2,2), "
        f"components {list(COMPONENT_RUNS)}, {len(GRAPHS)} graphs, {2 * len(REFUSALS)} refusals",
    )

