"""PBW straightening, derivations, strings, the reversal, crystal ops, lattice."""

from __future__ import annotations

import random
from functools import cache
from itertools import combinations, product

import pytest

from free_oracle import (
    defining_relations,
    equal_in_quotient,
    free_eprime,
    free_mul,
    free_of_pbw,
    free_sigma,
    gram_rank,
    words_of_weight,
)
from supercrystal import superpbw
from supercrystal.qfield import QRat, add_into, q_factorial, q_int
from supercrystal.superpbw import (
    PBWVector,
    Root,
    RootData,
    Weight,
    crystal_e,
    crystal_f,
    edoubleprime,
    eprime,
    f_divided,
    from_json,
    in_lattice,
    labels_of_weight,
    lattice_coefficients,
    lattice_residue,
    lattice_vector,
    normal_form,
    qform,
    sigma_0n,
    string_decompose,
    string_reference,
    to_json,
)

_Q1 = QRat.one()

RANKS = [(2, 1), (1, 2), (2, 2)]
RDS = {mn: RootData(*mn) for mn in RANKS}
RD11 = RootData(1, 1)
RD13 = RootData(1, 3)


def qp(e: int) -> QRat:
    return QRat.q_power(e)


def rvec(rd: RootData, a: int, b: int) -> PBWVector:
    return PBWVector.root_monomial(rd, rd.root_index[Root(a, b)])


def random_word(rng: random.Random, rd: RootData, maxlen: int) -> tuple[int, ...]:
    k = rng.randint(1, maxlen)
    return tuple(rng.choice(rd.index_set) for _ in range(k))


def labels_up_to(rd: RootData, deg: int) -> list[tuple[int, ...]]:
    """Every PBW monomial with at most deg generator letters, sorted."""
    return sorted(
        lab
        for d in range(deg + 1)
        for mu in weights_of_degree(rd, d)
        for lab in labels_of_weight(rd, Weight(mu))
    )


def weights_of_degree(rd: RootData, deg: int) -> list[tuple[int, ...]]:
    """Negative weights reachable by words with deg letters, as coord tuples."""
    out = []
    for counts in product(range(deg + 1), repeat=rd.ell - 1):
        if sum(counts) != deg:
            continue
        padded = (0,) + counts + (0,)
        out.append(tuple(padded[k] - padded[k + 1] for k in range(rd.ell)))
    return out


# -- straightening against the oracle ---------------------------------------


def test_defining_relations_straighten_to_zero():
    for (m, n), rd in RDS.items():
        for rel in defining_relations(m, n):
            acc = PBWVector.zero(rd)
            for word, c in rel.items():
                acc = acc + normal_form(rd, word, c)
            assert acc.is_zero(), (m, n, rel)


def test_defining_relations_pair_to_zero():
    for (m, n), _ in RDS.items():
        for rel in defining_relations(m, n):
            assert equal_in_quotient(m, rel, {}), (m, n, rel)


def test_gram_rank_matches_pbw_monomial_count():
    for (m, n), rd in RDS.items():
        for deg in range(1, 5):
            for mu in weights_of_degree(rd, deg):
                words = words_of_weight(mu)
                expected = len(labels_of_weight(rd, Weight(mu)))
                assert gram_rank(m, words) == expected, (m, n, mu)


def test_root_vector_products_match_oracle():
    # every out-of-order pair exercises its row of the rewrite table
    for (m, n), rd in RDS.items():
        for hi in range(rd.nroots):
            fhi = rd.free_root_vector(hi)
            for lo in range(hi + 1):
                if lo == hi and not rd.is_odd_index(hi):
                    continue
                u = PBWVector.root_monomial(rd, hi) * PBWVector.root_monomial(rd, lo)
                fu = free_mul(fhi, rd.free_root_vector(lo))
                assert equal_in_quotient(m, fu, free_of_pbw(u)), (m, n, hi, lo)


def test_normal_form_examples():
    for (m, n), rd in RDS.items():
        for i in rd.index_set:
            assert normal_form(rd, [i]) == PBWVector.generator(rd, i)
    assert normal_form(RD11, [1, 1]).is_zero()
    rd = RDS[(2, 1)]
    got = rvec(rd, 1, 3) * rvec(rd, 2, 3)
    want = (rvec(rd, 2, 3) * rvec(rd, 1, 3)).scale(-qp(1))
    assert got == want


def test_normal_form_matches_oracle():
    rng = random.Random(8821)
    for (m, n), rd in RDS.items():
        for _ in range(60):
            word = random_word(rng, rd, 4)
            v = normal_form(rd, word)
            assert equal_in_quotient(m, {word: _Q1}, free_of_pbw(v)), (m, n, word)
            if v:
                expect = Weight.zero(rd.ell)
                for i in word:
                    expect = expect - rd.alpha(i)
                assert v.weight() == expect


def test_strategies_agree():
    rng = random.Random(40317)
    for (m, n), rd in RDS.items():
        for _ in range(200):
            word = random_word(rng, rd, 8)
            a = normal_form(rd, word, strategy="latest")
            b = normal_form(rd, word, strategy="leftmost")
            c = normal_form(rd, word, strategy="rightmost")
            assert a == b == c, (m, n, word)
    with pytest.raises(ValueError):
        normal_form(RD11, [1], strategy="fastest")


def qrat_pair_table(rd: RootData) -> dict:
    """The rewrite table with QRat structure constants: per out-of-order
    pair (hi, lo), the twist q(hi, lo)^(-1) and the extra words."""
    table = {}
    for hi_i in range(rd.nroots):
        for lo_i in range(hi_i):
            lo, hi = rd.roots[lo_i], rd.roots[hi_i]
            twist = rd.qform(rd.root_weight(hi), rd.root_weight(lo)).inverse()
            crossed = rd._crossed_pair(lo, hi)
            extras = ()
            if crossed:
                extras = ((tuple(rd.root_index[r] for r in crossed), qp(-1) - qp(1)),)
            elif lo.b == hi.a or hi.b == lo.a:
                total = Root(lo.a, hi.b) if lo.b == hi.a else Root(hi.a, lo.b)
                extras = (((rd.root_index[total],), _Q1),)
            table[(hi_i, lo_i)] = (twist, extras)
    return table


def qrat_straightening(rd: RootData, table: dict, word, coeff: QRat, strategy: str) -> dict:
    """reduce_root_word as a stack of (word, QRat coefficient) pairs with no
    table of straightened words: the reference for the Laurent straightening."""
    out: dict = {}
    stack = [(word, coeff)]
    while stack:
        w, c = stack.pop()
        if not c:
            continue
        p = rd._find_inversion(w, strategy)
        if p is None:
            add_into(out, rd.word_monomial(w), c)
            continue
        a, b = w[p], w[p + 1]
        if a == b:
            continue  # square of an odd root vector
        twist, extras = table[(a, b)]
        stack.append((w[:p] + (b, a) + w[p + 2 :], c * twist))
        for mid, k in extras:
            stack.append((w[:p] + mid + w[p + 2 :], c * k))
    return out


STRATEGIES = ("latest", "leftmost", "rightmost")
STRAIGHTENING_COEFFS = (_Q1, -qp(1), q_int(3).inverse())


def assert_straightening_matches(rd: RootData, words) -> None:
    # the same monomials, coefficients and order as the reference
    table = qrat_pair_table(rd)
    for k, word in enumerate(words):
        c = STRAIGHTENING_COEFFS[k % len(STRAIGHTENING_COEFFS)]
        for strategy in STRATEGIES:
            want = qrat_straightening(rd, table, word, c, strategy)
            got = rd.reduce_root_word(word, c, strategy)
            assert list(got.items()) == list(want.items()), (rd.m, rd.n, word, c, strategy)


@pytest.mark.parametrize("mn", RANKS)
def test_straightening_matches_the_qrat_stack(mn):
    # every word of root letters up to length 5
    rd = RootData(*mn)
    words = [w for k in range(1, 6) for w in product(range(rd.nroots), repeat=k)]
    assert_straightening_matches(rd, words)


def test_straightening_matches_the_qrat_stack_on_long_words():
    rng = random.Random(20)
    rd = RootData(2, 3)
    words = [
        tuple(rng.randrange(rd.nroots) for _ in range(rng.randint(1, 8))) for _ in range(200)
    ]
    assert_straightening_matches(rd, words)


# -- bicharacter and derivations ---------------------------------------------


def test_qform_examples():
    rd = RDS[(2, 1)]
    d1 = Weight((1, 0, 0))
    d2 = Weight((0, 1, 0))
    assert qform(rd, d1, d1) == qp(1)
    assert qform(rd, d1, d2) == _Q1
    assert qform(rd, rd.root_weight(Root(1, 3)), rd.root_weight(Root(2, 3))) == -qp(-1)
    rd12 = RDS[(1, 2)]
    assert qform(rd12, Weight((0, 1, 0)), Weight((0, 1, 0))) == -qp(-1)


def test_eprime_on_unit_and_generators():
    for (m, n), rd in RDS.items():
        for i in rd.index_set:
            assert eprime(rd, i, PBWVector.unit(rd)).is_zero()
            for j in rd.index_set:
                got = eprime(rd, i, PBWVector.generator(rd, j))
                want = PBWVector.unit(rd) if i == j else PBWVector.zero(rd)
                assert got == want


def test_eprime_examples():
    rd = RDS[(2, 2)]
    assert eprime(rd, 1, rvec(rd, 2, 3)).is_zero()
    u, v = rvec(rd, 2, 3), rvec(rd, 1, 3)
    direct = eprime(rd, 2, u * v)
    twist = rd.qform(rd.alpha(2), rd.root_weight(Root(2, 3))).inverse()
    leibniz = eprime(rd, 2, u) * v + (u * eprime(rd, 2, v)).scale(twist)
    assert direct == leibniz
    rd21 = RDS[(2, 1)]
    assert eprime(rd21, 1, rvec(rd21, 1, 3)) == PBWVector.generator(rd21, 2).scale(
        _Q1 - qp(2)
    )


def test_edoubleprime_kills_odd_root_vectors():
    rd = RDS[(2, 2)]
    for idx in range(rd.odd_count):
        assert edoubleprime(rd, 1, PBWVector.root_monomial(rd, idx)).is_zero()


@pytest.mark.parametrize("mn", [(2, 2), (2, 3), (1, 3), (3, 1)])
def test_twisted_leibniz_rules(mn):
    # e'_i(uv) = e'_i(u) v + q(a_i, |u|) u e'_i(v), and e''_i with the inverse
    # twist, on every product of two root vectors
    rd = RDS.get(mn) or RootData(*mn)
    roots = [PBWVector.root_monomial(rd, idx) for idx in range(rd.nroots)]
    for u, v in product(roots, repeat=2):
        uv = u * v
        for i in rd.index_set:
            twist = rd.qform(rd.alpha(i), u.weight())
            for op, tw in ((eprime, twist), (edoubleprime, twist.inverse())):
                want = op(rd, i, u) * v + (u * op(rd, i, v)).scale(tw)
                assert op(rd, i, uv) == want, (mn, u, v, i, op.__name__)


@pytest.mark.parametrize("mn", [(2, 2), (2, 3), (1, 3), (3, 1)])
def test_derivations_match_free_oracle(mn):
    # the free-word derivation deletes each letter f_i with its twist; the
    # package never expands a whole monomial, so this is its reference
    rd = RDS.get(mn) or RootData(*mn)
    for lab in labels_up_to(rd, 4):
        u = PBWVector(rd, {lab: _Q1})
        fu = free_of_pbw(u)
        for i in rd.index_set:
            for op, inverse in ((eprime, False), (edoubleprime, True)):
                want = free_eprime(rd.m, i, fu, inverse_twist=inverse)
                got = free_of_pbw(op(rd, i, u))
                assert equal_in_quotient(rd.m, got, want), (mn, lab, i, op.__name__)


def test_eprime_divided_powers():
    rd = RDS[(2, 2)]
    for k in range(1, 5):
        assert eprime(rd, 1, f_divided(rd, 1, k)) == f_divided(rd, 1, k - 1).scale(
            qp(1 - k)
        )
        assert eprime(rd, 3, f_divided(rd, 3, k)) == f_divided(rd, 3, k - 1).scale(
            qp(k - 1)
        )


# -- string decompositions ----------------------------------------------------


def test_string_examples():
    rd = RDS[(2, 1)]
    f2 = PBWVector.generator(rd, 2)
    assert string_decompose(rd, 1, f2) == [f2]
    f1 = PBWVector.generator(rd, 1)
    assert string_decompose(rd, 1, f1) == [
        PBWVector.zero(rd),
        PBWVector.unit(rd),
    ]
    u = f1 * rvec(rd, 2, 3)
    assert string_decompose(rd, 1, u) == [PBWVector.zero(rd), f2]


def test_string_errors():
    rd = RDS[(2, 1)]
    u = PBWVector.generator(rd, 1)
    with pytest.raises(ValueError):
        string_decompose(rd, 2, u)


def test_string_reconstruction_and_kernel():
    rng = random.Random(515)
    for (m, n), rd in RDS.items():
        for _ in range(40):
            word = random_word(rng, rd, 5)
            u = normal_form(rd, word)
            if u.is_zero():
                continue
            for i in rd.index_set:
                if i == m:
                    continue
                comps = string_decompose(rd, i, u)
                acc = PBWVector.zero(rd)
                for k, uk in enumerate(comps):
                    assert eprime(rd, i, uk).is_zero(), (m, n, word, i, k)
                    if i < m:
                        acc = acc + f_divided(rd, i, k) * uk
                    else:
                        acc = acc + uk * f_divided(rd, i, k)
                assert acc == u, (m, n, word, i)


# -- the reversal of the 0|n subalgebra ----------------------------------------


def test_sigma_fixes_generators_and_twists_pairs():
    for i in (2, 3):
        g = PBWVector.generator(RD13, i)
        assert sigma_0n(RD13, g) == g
    u = normal_form(RD13, [2, 3])
    assert sigma_0n(RD13, u) == normal_form(RD13, [3, 2], -qp(1))


def test_sigma_involution_and_commutes_with_eprime():
    rng = random.Random(9190)
    for rd in (RDS[(1, 2)], RD13):
        letters = [i for i in rd.index_set if i > rd.m]
        for _ in range(30):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            u = normal_form(rd, word)
            su = sigma_0n(rd, u)
            assert sigma_0n(rd, su) == u
            for i in letters:
                assert sigma_0n(rd, eprime(rd, i, su)) == eprime(rd, i, u)


@pytest.mark.parametrize("mn", [(1, 3), (1, 4), (2, 3)])
def test_sigma_matches_free_reversal(mn):
    rd = RootData(*mn)
    lo = rd.odd_count + rd.plus_count
    for lab in labels_up_to(rd, 4):
        if any(lab[:lo]):
            continue
        u = PBWVector(rd, {lab: _Q1})
        su = sigma_0n(rd, u)
        assert equal_in_quotient(rd.m, free_of_pbw(su), free_sigma(free_of_pbw(u))), (mn, lab)
        assert sigma_0n(rd, su) == u, (mn, lab)


def test_sigma_divided_power_and_domain():
    rd = RDS[(1, 2)]
    for c in range(1, 5):
        assert sigma_0n(rd, f_divided(rd, 2, c)) == f_divided(rd, 2, c).scale(
            qp(-c * (c - 1))
        )
    with pytest.raises(ValueError):
        sigma_0n(rd, PBWVector.generator(rd, 1))


# -- crystal operators ----------------------------------------------------------


def test_crystal_examples():
    for (m, n), rd in RDS.items():
        assert crystal_f(rd, m, PBWVector.unit(rd)) == PBWVector.generator(rd, m)
        assert crystal_e(rd, m, PBWVector.generator(rd, m)) == PBWVector.unit(rd)
    assert crystal_f(RD11, 1, PBWVector.generator(RD11, 1)).is_zero()


def test_crystal_rank_one_ladders():
    rd21 = RDS[(2, 1)]
    for c in range(5):
        assert crystal_f(rd21, 1, f_divided(rd21, 1, c)) == f_divided(rd21, 1, c + 1)
        if c >= 1:
            assert crystal_e(rd21, 1, f_divided(rd21, 1, c)) == f_divided(
                rd21, 1, c - 1
            )
    rd12 = RDS[(1, 2)]
    for c in range(5):
        assert crystal_f(rd12, 2, f_divided(rd12, 2, c)) == f_divided(
            rd12, 2, c + 1
        ).scale(qp(-2 * c))
        if c >= 1:
            assert crystal_e(rd12, 2, f_divided(rd12, 2, c)) == f_divided(
                rd12, 2, c - 1
            ).scale(qp(2 * c - 2))


def test_crystal_lattice_ladders_are_exact():
    rd21 = RDS[(2, 1)]
    rd12 = RDS[(1, 2)]
    for c in range(5):
        assert crystal_f(rd21, 1, lattice_vector(rd21, (0, 0, c))) == lattice_vector(
            rd21, (0, 0, c + 1)
        )
        assert crystal_f(rd12, 2, lattice_vector(rd12, (0, 0, c))) == lattice_vector(
            rd12, (0, 0, c + 1)
        )


@pytest.mark.parametrize("mn,deg", [((2, 2), 5), ((1, 3), 5), ((3, 2), 4), ((4, 1), 5)])
def test_ladder_operators_match_the_string_recursion(mn, deg):
    rd = RootData(*mn)
    for lab in labels_up_to(rd, deg):
        v = lattice_vector(rd, lab)
        for i in rd.index_set:
            if i == rd.m:
                continue
            assert crystal_f(rd, i, v) == string_reference(rd, i, v, True), (mn, lab, i, "f")
            assert crystal_e(rd, i, v) == string_reference(rd, i, v, False), (mn, lab, i, "e")


def test_left_ladder_coefficients_are_pinned_and_weight_free():
    # Kashiwara's boson-algebra scalars: f~ = sum_N a_N f^(N+1) e'^N and
    # e~ = sum_N b_N f^(N-1) e'^N, the same at every rank and weight
    a = [_Q1, -(qp(2) - qp(1) + 1) / qp(1)]
    b = [_Q1, qp(1) - 1]
    for rd in (RDS[(2, 1)], RootData(3, 2), RootData(4, 1)):
        for i in range(1, rd.m):
            for p in range(-6, 7):
                lower = superpbw._ladder_coefficients(rd, i, True, p, 2)[:2]
                assert [s * q_factorial(N + 1) for N, s in enumerate(lower)] == a
                raising = superpbw._ladder_coefficients(rd, i, False, p, 3)
                assert not raising[0]
                assert [raising[N] * q_factorial(N - 1) for N in (1, 2)] == b


@cache
def solved_rung_scalars(left: bool, lower: bool, p: int, length: int) -> tuple[QRat, ...]:
    """The rung scalars of _ladder_coefficients solved from their triangular
    system, the reference for its closed forms.

    With d = 1 to lower, -1 to raise: e'_i^M(f_i^(k) u_k) = lam(k, M)
    f_i^(k-M) u_k, so sum_N s_N f_i^(N+d) e'_i^N(u) moves each string
    component to tau_k f_i^(k+d) u_k once sum_{M<=k} s_M lam(k, M) [k+d]! /
    [k-M]! = tau_k, which is triangular in s_k.  Left strings: lam(k, M) =
    prod_{t<M} q^(1-k+t), tau_k = 1.  Right strings, where p = (wt, alpha_i)
    for the part's weight wt, so (wt + k alpha_i, alpha_i) = p - 2k = pk:
    lam(k, M) = prod_{t<M} q(alpha_i, wt + k alpha_i) q^(k-t-1), tau_k =
    q^(-pk-2k) lowering and q^(pk+2k-2) raising.
    """
    table, d = [], 1 if lower else -1
    for k in range(length):
        pk = p - 2 * k
        tau = _Q1 if left else qp(-pk - 2 * k if lower else pk + 2 * k - 2)
        rest, lam = (tau / q_factorial(k + d) if k + d >= 0 else QRat.zero()), _Q1
        for t in range(k):
            rest = rest - table[t] * lam / q_factorial(k - t)
            lam = lam * (qp(1 - k + t) if left else superpbw._signed_q_power(pk + k - t - 1, pk))
        table.append(rest / lam)
    return tuple(table)


@pytest.mark.parametrize("mn", [(2, 1), (3, 2), (4, 1), (1, 2), (1, 3), (2, 3)])
def test_rung_scalars_match_the_solved_system(mn):
    # left strings for N < 16; right strings for N < 14 at every p in -6..6
    rd = RootData(*mn)
    for i, lower in product(rd.index_set, (True, False)):
        if i == rd.m:
            continue
        left = i < rd.m
        length, pairings = (16, [0]) if left else (14, range(-6, 7))
        for p in pairings:
            want = solved_rung_scalars(left, lower, p, length)
            assert superpbw._ladder_coefficients(rd, i, lower, p, length) == list(want), (i, p)


# -- lattice -----------------------------------------------------------------


def test_lattice_residue_examples():
    rd = RD11
    ok, res = lattice_residue(rd, PBWVector.unit(rd))
    assert ok and res == {(0,): 1}
    ok, res = lattice_residue(rd, PBWVector.generator(rd, 1).scale(qp(1)))
    assert ok and res == {}
    ok, res = lattice_residue(rd, PBWVector.generator(rd, 1).scale(qp(-1)))
    assert not ok and res is None
    assert not in_lattice(rd, PBWVector.generator(rd, 1).scale(qp(-1)))


def reduced_residue(rd: RootData, u: PBWVector):
    """lattice_residue read off the reduced lattice_coefficients."""
    coeffs = lattice_coefficients(rd, u)
    if not all(c.is_regular_at_zero() for c in coeffs.values()):
        return False, None
    return True, {lab: c.eval_at_zero() for lab, c in coeffs.items() if c.eval_at_zero()}


@pytest.mark.parametrize("mn", [(2, 2), (1, 3)])
def test_residue_from_valuations_matches_the_reduced_coefficients(mn):
    # every crystal_e/crystal_f image of the cap 4 ball, and the same over q,
    # which has a pole wherever the image has a nonzero residue
    rd = RootData(*mn)
    for lab in labels_up_to(rd, 4):
        v = lattice_vector(rd, lab)
        for i, op in product(rd.index_set, (crystal_f, crystal_e)):
            image = op(rd, i, v)
            for u in (image, image.scale(qp(-1))):
                want = reduced_residue(rd, u)
                assert lattice_residue(rd, u) == want, (mn, lab, i, op.__name__)
                assert in_lattice(rd, u) == want[0], (mn, lab, i, op.__name__)


def test_residue_sums_each_label_before_its_valuation():
    # at (1,3), f_24 expands to -q^-2 b(f_24) and f_23 f_34 to b(f_23 f_34) -
    # q^-1 b(f_24), so in each u below the q^-1 parts of the two terms for
    # b(f_24) cancel, exactly or down to -1
    rd = RD13
    f24, f23_f34 = rvec(rd, 2, 4), rvec(rd, 2, 3) * rvec(rd, 3, 4)
    b24, b23_34 = max(f24.terms), max(f23_f34.terms)
    u = crystal_f(rd, 2, PBWVector.generator(rd, 3))
    assert u == f24.scale(qp(1)) - f23_f34
    assert lattice_residue(rd, u) == (True, {b23_34: -1})
    w = f24.scale(qp(1) + qp(2)) - f23_f34
    assert lattice_residue(rd, w) == (True, {b24: -1, b23_34: -1})
    for x in (u, w):
        terms = [
            c * y
            for mono, c in x.terms.items()
            for lab, y in superpbw._expansion(rd, mono)
            if lab == b24
        ]
        assert len(terms) == 2 and all(t.min_degree() == -1 for t in terms)
        assert in_lattice(rd, x)
    # and a pole: the same sum over q
    assert lattice_residue(rd, w.scale(qp(-1))) == (False, None)
    assert not in_lattice(rd, w.scale(qp(-1)))


def test_weight_space_solver_refuses_dependent_vectors(monkeypatch):
    rd = RootData(2, 1)  # fresh, since each RootData caches its solvers
    both = rvec(rd, 1, 3) + rvec(rd, 2, 3) * PBWVector.generator(rd, 1)
    assert len(both.terms) == len(labels_of_weight(rd, both.weight())) == 2
    monkeypatch.setattr(superpbw, "lattice_vector", lambda rd, label: both)
    with pytest.raises(AssertionError, match="linearly dependent"):
        lattice_residue(rd, both)


@pytest.mark.parametrize("mn,deg", [((1, 4), 5), ((1, 5), 4), ((2, 4), 4), ((3, 3), 4)])
def test_lattice_basis_is_triangular(mn, deg):
    # lattice coordinates are peeled off lex-largest monomial first, which is
    # exact only when every lattice vector leads with its own label
    rd = RootData(*mn)
    for d in range(deg + 1):
        for mu in weights_of_degree(rd, d):
            for lab in labels_of_weight(rd, Weight(mu)):
                assert max(lattice_vector(rd, lab).terms) == lab, (mn, lab)


def test_lattice_coefficients_rebuild_crystal_images():
    for rd, deg in ((RDS[(2, 2)], 3), (RootData(1, 4), 3)):
        for lab in labels_up_to(rd, deg):
            v = lattice_vector(rd, lab)
            for i in rd.index_set:
                for u in (crystal_f(rd, i, v), crystal_e(rd, i, v)):
                    total = PBWVector.zero(rd)
                    for label, c in lattice_coefficients(rd, u).items():
                        total = total + lattice_vector(rd, label).scale(c)
                    assert total == u, (rd.m, rd.n, lab, i)


def test_lattice_basis_residues():
    rd = RDS[(2, 2)]
    for lab in labels_up_to(rd, 3):
        ok, res = lattice_residue(rd, lattice_vector(rd, lab))
        assert ok and res == {lab: 1}, lab


def test_kappa_style_residue_example():
    rd = RDS[(1, 2)]
    u = crystal_f(rd, 2, crystal_f(rd, 1, PBWVector.unit(rd)))
    ok, res = lattice_residue(rd, u)
    assert ok and res == {(1, 0, 1): 1}


def test_crystal_ops_preserve_lattice():
    cases = [(RD11, 5), (RDS[(2, 1)], 5), (RDS[(1, 2)], 5), (RDS[(2, 2)], 4)]
    for rd, deg in cases:
        for lab in labels_up_to(rd, deg):
            v = lattice_vector(rd, lab)
            for i in rd.index_set:
                assert in_lattice(rd, crystal_f(rd, i, v)), (rd.m, rd.n, lab, i)
                assert in_lattice(rd, crystal_e(rd, i, v)), (rd.m, rd.n, lab, i)


def test_crystal_residue_bidirectional():
    for (m, n), rd in RDS.items():
        for lab in labels_up_to(rd, 3):
            v = lattice_vector(rd, lab)
            for i in rd.index_set:
                fv = crystal_f(rd, i, v)
                if fv.is_zero():
                    continue
                ev = crystal_e(rd, i, fv)
                if ev.is_zero():
                    continue
                ok, back = lattice_residue(rd, ev)
                assert ok
                neg = {k: -x for k, x in back.items()}
                assert back == {lab: 1} or neg == {lab: 1}, (m, n, lab, i)


def whole_vector_peeling(rd: RootData, u: PBWVector) -> dict:
    """lattice_coefficients peeled over each whole homogeneous part: the
    lex-largest monomial of the remainder first."""
    out = {}
    for part in u.homogeneous_parts().values():
        rest = dict(part.terms)
        while rest:
            lab = max(rest)
            vec = lattice_vector(rd, lab)
            c = rest[lab] / vec.terms[lab]
            out[lab] = c
            for mono, x in vec.terms.items():
                add_into(rest, mono, -c * x)
    return out


def random_coefficient(rng: random.Random) -> QRat:
    c = qp(rng.randint(-2, 2)) * rng.choice((1, -1, 2, -3))
    c = c + rng.choice((0, 1, qp(1), -qp(-1)))
    return c / rng.choice((1, qp(1) + 1, qp(2) - 1, q_factorial(2))) if c else _Q1


def lattice_combinations(rd: RootData, deg: int, seed: int) -> list[PBWVector]:
    """Seeded Q(q) combinations of 2-4 lattice vectors: six of one weight,
    six of mixed weights, and a pair whose f-images share a monomial that
    cancels from the image of the combination."""
    rng = random.Random(seed)
    by_weight: dict = {}
    for lab in labels_up_to(rd, deg):
        by_weight.setdefault(rd.monomial_weight(lab), []).append(lab)
    wide = [labs for labs in by_weight.values() if len(labs) >= 2]
    everything = sorted(lab for labs in by_weight.values() for lab in labs)
    combos = []
    for pool in [rng.choice(wide) for _ in range(6)] + [everything] * 6:
        labs = rng.sample(pool, min(len(pool), rng.randint(2, 4)))
        u = PBWVector.zero(rd)
        for lab in labs:
            u = u + lattice_vector(rd, lab).scale(random_coefficient(rng))
        combos.append(u)
    # v - c w, with c chosen so that a monomial shared by the two f-images
    # along some index cancels from the image of the sum
    i, v, w, mono = next(
        (i, v, w, mono)
        for labs in wide
        for v, w in combinations([lattice_vector(rd, lab) for lab in labs], 2)
        for i in rd.index_set
        if i != rd.m
        for mono in sorted(set(crystal_f(rd, i, v).terms) & set(crystal_f(rd, i, w).terms))
    )
    fv, fw = crystal_f(rd, i, v), crystal_f(rd, i, w)
    u = v - w.scale(fv.terms[mono] / fw.terms[mono])
    assert u and mono not in string_reference(rd, i, u, True).terms
    return combos + [u]


@pytest.mark.parametrize("mn,deg,seed", [((2, 2), 5, 1407), ((2, 3), 4, 1408)])
def test_operators_and_expansion_are_linear(mn, deg, seed):
    rd = RootData(*mn)
    assert not (rd._eladder or rd._image or rd._expansion)
    combos = lattice_combinations(rd, deg, seed)
    assert any(len(u.homogeneous_parts()) > 1 for u in combos)
    for u in combos:
        for i in rd.index_set:
            if i == rd.m:
                continue
            assert crystal_f(rd, i, u) == string_reference(rd, i, u, True), (mn, u, i, "f")
            assert crystal_e(rd, i, u) == string_reference(rd, i, u, False), (mn, u, i, "e")
        assert lattice_coefficients(rd, u) == whole_vector_peeling(rd, u), (mn, u)
    # a second instance of the rank starts cold and gives the same results
    twin = RootData(*mn)
    assert not (twin._eladder or twin._image or twin._expansion)
    for u in combos:
        v = PBWVector(twin, u.terms)
        for i in rd.index_set:
            assert crystal_f(twin, i, v).terms == crystal_f(rd, i, u).terms
            assert crystal_e(twin, i, v).terms == crystal_e(rd, i, u).terms
        assert lattice_coefficients(twin, v) == lattice_coefficients(rd, u)


TABLES = (
    "_straightened", "_words", "_free_root", "_derivative", "_sigma",
    "_lattice_vec", "_eladder", "_image", "_expansion", "_triangular",
)


def test_monomial_tables_hold_each_distinct_key_once():
    # one sweep of the (2,3) cap 5 ball, every index and direction, with the
    # residue of each image; the tables must hold exactly the distinct keys
    rd = RootData(2, 3)
    words = set()
    straighten = rd.reduce_root_word

    def recording(word, coeff, strategy="latest"):
        words.add((word, strategy))
        return straighten(word, coeff, strategy)

    rd.reduce_root_word = recording
    # every table fills through its own fill, and each fill is logged
    fills = {name: [] for name in TABLES}
    for name in TABLES:
        table = getattr(rd, name)
        assert isinstance(table, superpbw._Table) and not table

        def logged(rd, key, log=fills[name], fill=table.fill):
            log.append(key)
            return fill(rd, key)

        table.fill = logged

    def sweep():
        ladders, images, monomials, labels = set(), set(), set(), set()
        for lab in labels_up_to(rd, 5):
            labels.add(lab)
            v = lattice_vector(rd, lab)
            for i, lower in product(rd.index_set, (True, False)):
                lo = rd.minus_start if i > rd.m else 0
                if i != rd.m:
                    for mono in v.terms:
                        key = (0,) * lo + mono[lo:]
                        ladders.add((i, key))
                        images.add((i, lower, key))
                image = crystal_f(rd, i, v) if lower else crystal_e(rd, i, v)
                monomials.update(image.terms)
                lattice_coefficients(rd, image)
        return ladders, images, monomials, labels

    ladders, images, monomials, labels = sweep()
    assert set(rd._eladder) == ladders
    assert set(rd._image) == images
    assert set(rd._expansion) == monomials
    assert set(rd._straightened) == words
    # each expansion checks its weight space, whose labels it may peel
    weights = {rd.monomial_weight(mono) for mono in monomials}
    assert set(rd._triangular) == weights
    peeled = {lab for wt in weights for lab in labels_of_weight(rd, wt)}
    assert set(rd._lattice_vec) == labels | peeled
    # root by root: e'_i along every index, sigma on the whole 0|n block,
    # and the free-word expansion of every root read above a generator
    assert {(i, sign) for i, sign, _ in rd._derivative} == {(i, -1) for i in rd.index_set}
    assert set(rd._sigma) == set(range(rd.minus_start, rd.nroots))
    read = {idx for _, _, idx in rd._derivative} | set(rd._sigma)
    assert set(rd._free_root) == {idx for idx in read if rd.roots[idx].height > 1}
    # the rung scalars: one table per direction, free of index and weight
    assert set(rd._ladder) == {True, False}
    for name in TABLES:
        log = fills[name]
        assert log and len(log) == len(set(log)) and set(log) == set(getattr(rd, name)), name
    tables = [getattr(rd, name) for name in TABLES]
    sizes = tuple(map(len, tables))
    sweep()
    assert tuple(map(len, tables)) == sizes


def touch_every_table(rd: RootData, cap: int) -> list:
    """Crystal images, their lattice coefficients, both derivations and
    the reversal, for every label up to cap."""
    out = []
    for lab in labels_up_to(rd, cap):
        v = lattice_vector(rd, lab)
        for i in rd.index_set:
            out += [crystal_f(rd, i, v), crystal_e(rd, i, v), edoubleprime(rd, i, v)]
            out.append(lattice_coefficients(rd, out[-3]))
        minus = PBWVector(rd, {(0,) * rd.minus_start + lab[rd.minus_start :]: _Q1})
        out.append(sigma_0n(rd, minus))
    return out


def test_a_filled_key_is_not_filled_again(monkeypatch):
    # after one sweep, a second over the same inputs reads every table
    # without calling a fill, and gives the same results
    rd = RootData(2, 2)
    first = touch_every_table(rd, 4)
    sizes = {name: len(getattr(rd, name)) for name in TABLES}
    assert all(sizes.values()), sizes

    def refill(rd, key):
        raise AssertionError(f"filled again: {key!r}")

    for name in TABLES:
        monkeypatch.setattr(getattr(rd, name), "fill", refill)
    assert touch_every_table(rd, 4) == first
    assert {name: len(getattr(rd, name)) for name in TABLES} == sizes


# -- grading and serialization --------------------------------------------------


def test_a_root_is_its_pair():
    # both routes hold roots as (a, b) pairs, and index root_index with them
    r = Root(2, 4)
    assert r == (2, 4) and hash(r) == hash((2, 4)) and r.height == 2
    assert repr(r) == "Root(a=2, b=4)"
    rd = RDS[(2, 2)]
    assert all(rd.root_index[(x.a, x.b)] == k for k, x in enumerate(rd.roots))


def test_weight_equality_hash_and_repr_are_pinned():
    # the ones a frozen dataclass over coords gave: set and dict orders keyed
    # by weights, and so every output, depend on them
    w = Weight((1, 2))
    assert w == Weight((1, 2)) and w != Weight((2, 1))
    assert w != (1, 2) and (1, 2) != w
    for c in ((), (0,), (1, 2), (3, -1, 0, 2)):
        assert hash(Weight(c)) == hash((c,))
    assert repr(Weight((1, -1))) == "Weight(coords=(1, -1))"
    assert Weight(coords=(1, 2)) == w and len({w, Weight((1, 2))}) == 1


def test_labels_of_weight_match_a_brute_force_enumeration():
    # every exponent tuple up to degree 4, grouped by weight, against the
    # labels the recursion lists; each label's word rebuilds it
    for rd in [*RDS.values(), RootData(2, 3)]:
        heights = [r.height for r in rd.roots]
        by_weight: dict = {}
        caps = [range(2 if rd.is_odd_index(k) else 5) for k in range(rd.nroots)]
        for mono in product(*caps):
            if sum(e * h for e, h in zip(mono, heights)) <= 4:
                by_weight.setdefault(rd.monomial_weight(mono), []).append(mono)
        for wt, monos in by_weight.items():
            assert labels_of_weight(rd, wt) == sorted(monos)
            for mono in monos:
                word = rd.monomial_word(mono)
                assert list(word) == sorted(word) and rd.word_monomial(word) == mono


def test_weight_grading_of_products():
    rng = random.Random(2741)
    for (m, n), rd in RDS.items():
        for _ in range(25):
            u = normal_form(rd, random_word(rng, rd, 3))
            v = normal_form(rd, random_word(rng, rd, 3))
            if u.is_zero() or v.is_zero() or (u * v).is_zero():
                continue
            assert (u * v).weight() == u.weight() + v.weight()


def test_sums_need_one_root_data():
    # two instances of one rank are two spaces: their vectors neither
    # compare equal nor add
    a, b = RootData(2, 2), RootData(2, 2)
    u, v = PBWVector.generator(a, 1), PBWVector.generator(b, 1)
    assert u != v
    with pytest.raises(ValueError):
        u + v
    with pytest.raises(ValueError):
        u - v


def test_products_need_one_root_data():
    # two instances of one rank used to multiply silently, and two ranks
    # ended in an IndexError
    a, b = RootData(2, 2), RootData(2, 2)
    with pytest.raises(ValueError):
        PBWVector.generator(a, 1) * PBWVector.generator(b, 3)
    with pytest.raises(ValueError):
        PBWVector.generator(RootData(2, 3), 1) * PBWVector.generator(a, 1)
    u = PBWVector.generator(a, 1)
    assert (u * PBWVector.generator(a, 3)).rd is a


def test_json_round_trip():
    rng = random.Random(606)
    rd = RDS[(2, 2)]
    labs = labels_up_to(rd, 4)
    for _ in range(20):
        terms = {}
        for lab in rng.sample(labs, 4):
            terms[lab] = qp(rng.randint(-3, 3)) * QRat.from_int(rng.randint(1, 5))
        u = PBWVector(rd, terms)
        assert from_json(rd, to_json(u)) == u
    # a monomial repeated across items adds up, and may cancel
    item = {"exponents": [[4, 1]], "coeff": "q"}
    assert from_json(rd, [item, item]) == rvec(rd, 1, 2).scale(2 * qp(1))
    assert from_json(rd, [item, {"exponents": [[4, 1]], "coeff": "-q"}]).is_zero()


@pytest.mark.parametrize(
    "exponents",
    [
        [[0, 2]],  # odd exponent above 1
        [[-1, 2]],  # negative root index
        [[9, 1]],  # root index past the last root
        [[4, -1]],  # negative exponent
        [[4, 1], [4, 2]],  # root index repeated in one monomial
    ],
)
def test_from_json_rejects_bad_monomials(exponents):
    with pytest.raises(ValueError):
        from_json(RDS[(2, 2)], [{"exponents": exponents, "coeff": "1"}])


@pytest.mark.parametrize("pair", [[0, 1.7], [4, 1.0], ["1", 1], [4, "1"], [True, 1], [4, True]])
def test_from_json_reads_only_int_indices_and_exponents(pair):
    # int() would read 1.7 as 1 and "1" as 1
    with pytest.raises(ValueError, match="must be ints"):
        from_json(RDS[(2, 2)], [{"exponents": [pair], "coeff": "1"}])
