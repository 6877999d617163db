"""Exact q-arithmetic: canonical forms, q-combinatorics, bar, valuations."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from rref_oracle import qrat_row_reduce
from supercrystal import qfield
from supercrystal.qfield import (
    QRat,
    akito_sum,
    bar,
    eval_at_infinity,
    eval_at_zero,
    full_product_reference,
    is_regular_at_infinity,
    is_regular_at_zero,
    laurent_sum,
    min_degree,
    q_binom,
    q_factorial,
    q_int,
    row_reduce,
)


def qp(e: int) -> QRat:
    return QRat.q_power(e)


def random_poly(rng: random.Random, nonzero: bool = False) -> tuple[int, ...]:
    while True:
        p = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 6)))
        if not nonzero or any(p):
            return p


def random_qrat(rng: random.Random) -> QRat:
    return QRat(random_poly(rng), random_poly(rng, nonzero=True))


def test_canonical_form():
    assert QRat((0, 2), (0, 0, 4)) == QRat((1,), (0, 2))
    assert QRat((2, 2), (1, 1)) == 2
    assert QRat((1,), (-1,)) == -1
    assert QRat(()) == QRat.zero()
    with pytest.raises(ZeroDivisionError):
        QRat((1,), ())
    r = QRat((0, 0, 3), (0, 6, 6))
    assert r.num == (0, 1) and r.den == (2, 2)


def test_arithmetic_basics():
    q = qp(1)
    assert q * qp(-1) == 1
    assert (q + 1) * (q - 1) == qp(2) - 1
    assert (qp(2) - 1) / (q - 1) == q + 1
    assert q - q == QRat.zero()
    assert not (q - q)
    assert (1 - q) ** 2 == 1 - 2 * q + qp(2)
    assert qp(3) ** -2 == qp(-6)
    with pytest.raises(ZeroDivisionError):
        (q - q).inverse()
    assert hash(qp(2) / qp(1)) == hash(qp(1))


def test_q_int():
    assert q_int(0) == QRat.zero()
    assert q_int(1) == QRat.one()
    assert q_int(2) == qp(1) + qp(-1)
    assert q_int(3) == qp(2) + 1 + qp(-2)
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_factorial():
    assert q_factorial(0) == 1
    assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)


def test_q_binom():
    assert q_binom(2, 3) == QRat.zero()
    assert q_binom(5, 0) == QRat.one()
    assert q_binom(4, 2) == qp(4) + qp(2) + 2 + qp(-2) + qp(-4)
    assert q_binom(3, 1) == q_int(3)
    assert q_binom(4, -1) == QRat.zero()
    assert q_binom(-2, -3) == QRat.zero()


def test_pascal_grid():
    for c in range(1, 16):
        for d in range(0, c + 1):
            lhs = q_binom(c, d)
            rhs = qp(-d) * q_binom(c - 1, d) + qp(c - d) * q_binom(c - 1, d - 1)
            assert lhs == rhs, (c, d)


def test_akito_examples():
    assert akito_sum(0, 7) == QRat.one()
    assert akito_sum(1, 1) == qp(2)
    assert akito_sum(3, 2) == qp(12)
    with pytest.raises(ValueError):
        akito_sum(-1, 2)


def test_akito_grid():
    for a in range(16):
        for b in range(16):
            assert akito_sum(a, b) == qp(2 * a * b), (a, b)


def _binom_by_q_ints(c: int, d: int) -> QRat:
    # the product of q-integer ratios over QRat, independent of q_binom
    if not c >= d >= 0:
        return QRat.zero()
    out = QRat.one()
    for j in range(1, d + 1):
        out = out * q_int(c - d + j) / q_int(j)
    return out


def test_q_binom_matches_q_integer_ratios():
    for c in range(-2, 31):
        for d in range(-2, 31):
            got, want = q_binom(c, d), _binom_by_q_ints(c, d)
            assert (got.num, got.den) == (want.num, want.den), (c, d)


def test_q_binom_of_a_long_row():
    # built without recursion, so a long row stays in reach
    b = q_binom(1500, 3)
    assert b == b.bar()
    assert b.den == (0,) * (3 * 1497) + (1,)
    assert sum(b.num) == 1500 * 1499 * 1498 // 6


def _sum_by_qrat(terms, den) -> QRat:
    # the laurent_sum oracle: schoolbook products summed as QRat values
    total = QRat.zero()
    for e, polys in terms:
        p = (1,)
        for x in polys:
            p = _ipoly_mul(p, x)
        total = total + qp(e) * QRat(p)
    return total / QRat(den)


def _l1_bound(terms) -> int:
    bound = 0
    for _, polys in terms:
        b = 1
        for p in polys:
            b *= sum(map(abs, p))
        bound += b
    return bound


def test_laurent_sum_packs_every_width(monkeypatch):
    rng = random.Random(2718)
    lists = counting(monkeypatch, "_sum_in_list")
    widths = set()
    for bits in (2, 10, 14, 20):
        for _ in range(25):
            terms = [
                (
                    rng.randint(-6, 6),
                    tuple(
                        tuple(rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, 5)))
                        for _ in range(rng.randint(1, 2))
                    ),
                )
                for _ in range(rng.randint(1, 4))
            ]
            den = random_poly(rng, nonzero=True)
            widths.add(qfield._width(_l1_bound(terms)))
            assert laurent_sum(terms, den) == _sum_by_qrat(terms, den), (terms, den)
    assert widths == {16, 32, 64}
    assert lists[0] == 0


def test_laurent_sum_past_the_packed_widths(monkeypatch):
    rng = random.Random(3141)
    lists = counting(monkeypatch, "_sum_in_list")
    for _ in range(20):
        terms = [
            (rng.randint(-4, 4), tuple(random_poly(rng) for _ in range(2)))
            for _ in range(rng.randint(1, 3))
        ]
        terms.append((rng.randint(-4, 4), ((2**40, 0, -(2**40)), (2**30 + 1, 2**30))))
        assert _l1_bound(terms) >= 2**63
        den = random_poly(rng, nonzero=True)
        assert laurent_sum(terms, den) == _sum_by_qrat(terms, den), (terms, den)
    assert lists[0] == 20


def test_laurent_sum_memo_keys_each_polynomial_by_its_width():
    # the same polynomial objects, scaled into each width in turn, narrow
    # first and then wide, then the reverse: a pack memoised by the
    # polynomial alone would hand a narrow value to a wide sum
    qfield._packed.cache_clear()
    qfield._l1.cache_clear()
    polys = [(1, -2, 3), (-4, 0, 5, 1), (7,), (0, 0, -1, 2)]
    scales = {16: 1, 32: 2**20, 64: 2**45, None: 2**62}
    den = (3, 0, -1, 2)
    order = [16, 32, 64, None]
    for width in order + order[::-1]:
        c = (scales[width],)
        terms = [(e - 2, (p, c)) for e, p in enumerate(polys)]
        terms += [(3, (polys[0], polys[1], c)), (-1, (polys[1], polys[0]))]
        assert qfield._width(_l1_bound(terms)) == width
        assert laurent_sum(terms, den) == _sum_by_qrat(terms, den), width
    packed, norms = qfield._packed.cache_info(), qfield._l1.cache_info()
    # each polynomial once per packed width, each scale once at its own
    assert packed.currsize == len(polys) * 3 + 3 and packed.hits > 0
    assert norms.currsize == len(polys) + len(scales) and norms.hits > 0


def test_laurent_sum_cancelling_to_zero(monkeypatch):
    lists = counting(monkeypatch, "_sum_in_list")
    # q^-1 (1 + q) - 1 - q^-1, packed
    terms = [(-1, ((1, 1),)), (0, ((-1,),)), (-1, ((-1,),))]
    assert laurent_sum(terms, (1, 1)) == QRat.zero()
    assert lists[0] == 0
    big = 2**70
    assert laurent_sum([(2, ((big, 1),)), (2, ((-big, -1),))]) == QRat.zero()
    assert lists[0] == 1
    # zero polynomials and no terms at all
    assert laurent_sum([(3, ((1, 2), ()))]) == QRat.zero()
    assert laurent_sum([]) == QRat.zero()


def test_laurent_sum_with_negative_exponents_over_a_denominator():
    q2m1 = (-1, 0, 1)  # q^2 - 1
    terms = [(-3, ((1, 2, 1),)), (-1, (q2m1, (1, 1))), (2, ((0, 0, 5),))]
    for den in (q2m1, (0, 1, 1), (1, 1), (0, 0, 3), (2,)):
        got = laurent_sum(terms, den)
        assert got == _sum_by_qrat(terms, den), den
        assert got == QRat.from_laurent({-3: 1, -2: 2, 0: -1, 1: 1, 2: 1, 4: 5}, den)
    # (q^2 - 1) q^-2 / (q^2 - 1) leaves q^-2
    assert laurent_sum([(-2, (q2m1,))], q2m1) == qp(-2)


def test_akito_sum_past_the_packed_widths(monkeypatch):
    # the coefficients of akito_sum(a, b) are bounded by 3^a, which passes
    # 2^63 at a = 40
    lists = counting(monkeypatch, "_sum_in_list")
    assert 3**39 < 2**63 <= 3**40
    assert akito_sum(39, 2) == qp(156)
    assert lists[0] == 0
    assert akito_sum(41, 2) == qp(164)
    assert akito_sum(40, 0) == QRat.one()
    assert lists[0] == 2


def test_regularity_at_zero():
    r = qp(1) / (1 + qp(1))
    assert is_regular_at_zero(r)
    assert eval_at_zero(r) == 0
    s = qp(-1)
    assert not is_regular_at_zero(s)
    with pytest.raises(ZeroDivisionError):
        eval_at_zero(s)
    u = (1 + qp(1)) / (2 + qp(3))
    assert eval_at_zero(u) == Fraction(1, 2)


def test_regularity_at_infinity():
    t = q_binom(4, 2)
    assert not is_regular_at_zero(t)
    assert not is_regular_at_infinity(t)
    with pytest.raises(ZeroDivisionError):
        eval_at_infinity(t)
    assert is_regular_at_infinity(qp(-1))
    assert eval_at_infinity(qp(-1)) == 0
    assert eval_at_infinity((QRat.from_int(3) + qp(2)) / (qp(2) - 1)) == 1


def test_min_degree():
    assert min_degree(q_binom(4, 2)) == -4
    assert min_degree(q_int(3)) == -2
    assert min_degree(qp(3) - qp(4)) == 3
    assert min_degree(QRat.one()) == 0
    with pytest.raises(ValueError):
        min_degree(QRat.zero())


def test_bar_examples():
    assert bar(qp(1)) == qp(-1)
    assert bar(q_int(3)) == q_int(3)
    assert bar(qp(2) - 1) == qp(-2) - 1
    assert bar(q_binom(4, 2)) == q_binom(4, 2)


def test_bar_is_ring_involution():
    rng = random.Random(20240811)
    vals = [random_qrat(rng) for _ in range(200)]
    for r in vals:
        assert bar(bar(r)) == r
    for r, s in zip(vals[::2], vals[1::2]):
        assert bar(r * s) == bar(r) * bar(s)
        assert bar(r + s) == bar(r) + bar(s)


def test_eval_at_zero_multiplicative():
    rng = random.Random(1105)
    made = 0
    while made < 100:
        r, s = random_qrat(rng), random_qrat(rng)
        if not (is_regular_at_zero(r) and is_regular_at_zero(s)):
            continue
        made += 1
        assert eval_at_zero(r * s) == eval_at_zero(r) * eval_at_zero(s)


def test_str_forms():
    assert str(QRat.zero()) == "0"
    assert str(QRat.one()) == "1"
    assert str(qp(2) + 1) == "q^2+1"
    assert str(-qp(1)) == "-q"
    assert str(qp(-1)) == "(1)/(q)"
    assert str(q_int(2)) == "(q^2+1)/(q)"
    assert str(QRat.from_int(-3) * (qp(2) + 1)) == "-3*q^2-3"
    assert str(QRat((1, -2), (5, 0, 7))) == "(-2*q+1)/(7*q^2+5)"


def test_parse_round_trip():
    rng = random.Random(77)
    vals = [random_qrat(rng) for _ in range(200)]
    vals += [QRat.zero(), QRat.one(), qp(-3), q_binom(5, 2), -q_int(4)]
    for r in vals:
        assert QRat.parse(str(r)) == r


@pytest.mark.parametrize("text", ["2*", "-2*", "q+3*", "(2*)/(q)", "2*3", "*q", "2*q^"])
def test_parse_refuses_a_factor_that_is_not_a_power_of_q(text):
    # what follows a "*" is q or q^e; an empty factor is not q^0
    with pytest.raises(ValueError):
        QRat.parse(text)


# -- normal form against an independent slow reduction -----------------------


# a Mersenne prime far above the coefficients of every gcd met here; a gcd
# read off modulo it is kept only once it divides both sides exactly
_GCD_PRIME = 2**127 - 1


def _ipoly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _ipoly_exact_quo(a, b) -> list | None:
    """a / b over the integers, or None when b does not divide a there."""
    a, out = list(a), [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c, r = divmod(a[-1], b[-1])
        if r:
            return None
        off = len(a) - len(b)
        out[off] = c
        for k, x in enumerate(b):
            a[off + k] -= c * x
        _ipoly_trim(a)
    return None if a else _ipoly_trim(out)


def _monic_gcd_mod(a, b, p: int) -> list:
    """The monic gcd of a and b modulo p, by Euclid over GF(p)."""
    a, b = _ipoly_trim([x % p for x in a]), _ipoly_trim([x % p for x in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c, off = a[-1] * inv % p, len(a) - len(b)
            for k, x in enumerate(b):
                a[off + k] = (a[off + k] - c * x) % p
            _ipoly_trim(a)
        a, b = b, a
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _ipoly_gcd(a, b) -> list:
    """The primitive gcd over the integers, leading coefficient positive.

    Modulo a prime that divides neither leading coefficient, the gcd has at
    least the true degree.  Scaled by the gcd of the leading coefficients
    and read in symmetric residues it is a multiple of the true gcd when the
    prime is lucky and large enough.  The candidate is certified by exact
    division: a common divisor of a and b of at least the true degree is
    the gcd itself."""
    p, lead = _GCD_PRIME, gcd(a[-1], b[-1])
    g = [x * lead % p for x in _monic_gcd_mod(a, b, p)]
    g = [x - p if 2 * x > p else x for x in g]
    c = gcd(*g) if g[-1] > 0 else -gcd(*g)
    g = [x // c for x in g]
    assert _ipoly_exact_quo(a, g) is not None and _ipoly_exact_quo(b, g) is not None, (a, b)
    return g


def slow_normal_form(num, den) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Divide out the modular gcd, then the integer content and the sign."""
    num, den = _ipoly_trim(list(num)), _ipoly_trim(list(den))
    if not num:
        return (), (1,)
    g = _ipoly_gcd(num, den)
    num, den = _ipoly_exact_quo(num, g), _ipoly_exact_quo(den, g)
    c = gcd(*num, *den) if den[-1] > 0 else -gcd(*num, *den)
    return tuple(x // c for x in num), tuple(x // c for x in den)


def _ipoly_mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j + k] += x * y
    return tuple(out)


def _ipoly_add(a, b):
    out = [0] * max(len(a), len(b))
    for k, x in enumerate(a):
        out[k] += x
    for k, y in enumerate(b):
        out[k] += y
    return tuple(out)


SHAPES = ("zero", "monomial", "laurent", "polynomial", "general")


def raw_operand(rng: random.Random, shape: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """An unreduced (num, den) pair of the given shape.

    Both sides are multiplied by a random integer (possibly negative, so
    the denominator can lead negative, and content above 1) and, now and
    then, by a common polynomial factor, so the constructor has to cancel.
    """
    def coeff() -> int:
        return rng.choice([-3, -2, -1, 1, 2, 3, 5])

    def qpow(c: int) -> tuple[int, ...]:
        return (0,) * rng.randint(0, 4) + (c,)

    if shape == "zero":
        num, den = (), random_poly(rng, nonzero=True)
    elif shape == "monomial":
        num, den = qpow(coeff()), qpow(coeff())
    elif shape == "laurent":
        num, den = random_poly(rng, nonzero=True), qpow(coeff())
    elif shape == "polynomial":
        num, den = random_poly(rng, nonzero=True), (coeff(),)
    else:
        num, den = random_poly(rng, nonzero=True), random_poly(rng, nonzero=True)
    k = rng.choice([-6, -2, -1, 1, 1, 1, 2, 4])
    common = rng.choice([(1,), (1,), (1,), (1, 1), (0, 1), (-1, 0, 1), (2, 0, 3)])
    return (
        _ipoly_mul(_ipoly_mul(num, (k,)), common),
        _ipoly_mul(_ipoly_mul(den, (k,)), common),
    )


def assert_ops_match_slow_reduction(a, b, context) -> None:
    """Build x and y from the raw pairs a and b, then check the normal form
    of each, and of x + y, x - y, x * y and x / y both from the arithmetic
    and from full_product_reference, against slow_normal_form of the full
    cross products."""
    x, y = QRat(*a), QRat(*b)
    assert (x.num, x.den) == slow_normal_form(*a), (context, a)
    assert (y.num, y.den) == slow_normal_form(*b), (context, b)
    (xn, xd), (yn, yd) = (x.num, x.den), (y.num, y.den)
    cross = _ipoly_mul(xn, yd), _ipoly_mul(yn, xd)
    want = {
        "+": slow_normal_form(_ipoly_add(*cross), _ipoly_mul(xd, yd)),
        "-": slow_normal_form(
            _ipoly_add(cross[0], tuple(-c for c in cross[1])), _ipoly_mul(xd, yd)
        ),
        "*": slow_normal_form(_ipoly_mul(xn, yn), _ipoly_mul(xd, yd)),
    }
    got = {"+": x + y, "-": x - y, "*": x * y}
    if y:
        want["/"] = slow_normal_form(_ipoly_mul(xn, yd), _ipoly_mul(xd, yn))
        got["/"] = x / y
    for op, z in got.items():
        assert (z.num, z.den) == want[op], (context, a, b, op)
        ref = full_product_reference(op, x, y)
        assert (ref.num, ref.den) == want[op], (context, a, b, op, "reference")


def test_normal_form_matches_slow_reduction():
    rng = random.Random(31337)
    for _ in range(600):
        sa, sb = rng.choice(SHAPES), rng.choice(SHAPES)
        assert_ops_match_slow_reduction(raw_operand(rng, sa), raw_operand(rng, sb), (sa, sb))


# -- sums and products whose denominators share cyclotomic factors -------------
#
# The divided powers put [k]! and (q^(2j) - 1) in denominators, so operands
# met in practice share factors.  These pairs exercise every branch of the
# reduced-fraction sum and product: coprime denominators, a common factor
# that survives or cancels, cross-cancellation in a product, and zero.


def _q_int_poly(k: int) -> tuple[int, ...]:
    # q^(k-1) [k] = 1 + q^2 + ... + q^(2k-2)
    return tuple(1 - e % 2 for e in range(2 * k - 1))


def _q_factorial_poly(k: int) -> tuple[int, ...]:
    out: tuple[int, ...] = (1,)
    for j in range(1, k + 1):
        out = _ipoly_mul(out, _q_int_poly(j))
    return out


def _q2j_minus_one(j: int) -> tuple[int, ...]:
    return (-1,) + (0,) * (2 * j - 1) + (1,)


CYCLOTOMIC_FACTORS = (
    [_q_int_poly(k) for k in (2, 3, 4)]
    + [_q_factorial_poly(k) for k in (2, 3)]
    + [_q2j_minus_one(j) for j in (1, 2, 3)]
    + [(0, 1), (1, 1), (-1, 1)]
)


def cyclotomic_product(rng: random.Random) -> tuple[int, ...]:
    out: tuple[int, ...] = (rng.choice([1, 1, -1, 2, 3, -6]),)
    for _ in range(rng.randint(0, 3)):
        out = _ipoly_mul(out, rng.choice(CYCLOTOMIC_FACTORS))
    return out


def _slow_gcd_degree(a, b) -> int:
    return len(_ipoly_gcd(list(a), list(b))) - 1


P2, P3 = _q_int_poly(2), _q_int_poly(3)  # 1 + q^2 and 1 + q^2 + q^4
QP1, QM1 = (1, 1), (-1, 1)  # q + 1 and q - 1


def test_sum_with_coprime_denominators():
    x, y = QRat(QM1, P2), QRat(QP1, P3)
    assert _slow_gcd_degree(x.den, y.den) == 0
    assert_ops_match_slow_reduction((QM1, P2), (QP1, P3), "g = 1")
    assert x + y == QRat(
        _ipoly_add(_ipoly_mul(QM1, P3), _ipoly_mul(QP1, P2)), _ipoly_mul(P2, P3)
    )


def test_sum_with_a_common_factor_that_survives():
    # g = q + 1; t = [3] + [2] (polynomial parts) is 5 at q = -1, so h = 1
    b, d = _ipoly_mul(QP1, P2), _ipoly_mul(QP1, P3)
    x, y = QRat((1,), b), QRat((1,), d)
    assert _slow_gcd_degree(b, d) == 1
    assert _slow_gcd_degree(_ipoly_add(P3, P2), QP1) == 0
    assert_ops_match_slow_reduction(((1,), b), ((1,), d), "h = 1")
    assert (x + y).den == _ipoly_mul(_ipoly_mul(QP1, P2), P3)


def test_sum_with_a_common_factor_that_cancels():
    # 1/(q - 1) - 2/(q^2 - 1): g = q - 1, t = (q + 1) - 2 = q - 1 = h
    b, d = QM1, _q2j_minus_one(1)
    assert _slow_gcd_degree(b, d) == 1
    assert_ops_match_slow_reduction(((1,), b), ((-2,), d), "h != 1")
    assert QRat((1,), b) + QRat((-2,), d) == QRat((1,), QP1)
    # over one shared denominator: q/(q^2 - 1) - 1/(q^2 - 1) = 1/(q + 1)
    assert QRat((0, 1), d) - QRat((1,), d) == QRat((1,), QP1)


def test_product_cross_cancels_on_each_side():
    x, y = QRat(QP1, P2), QRat((1,), _q2j_minus_one(1))
    assert _slow_gcd_degree(x.num, y.den) == 1 and _slow_gcd_degree(y.num, x.den) == 0
    want = QRat((1,), _ipoly_mul(QM1, P2))
    assert x * y == want and y * x == want
    assert_ops_match_slow_reduction((QP1, P2), ((1,), _q2j_minus_one(1)), "one side")
    # both sides cancel: (q^2 - 1)/[2] * [2]/(q + 1) = q - 1
    u, v = QRat(_q2j_minus_one(1), P2), QRat(P2, QP1)
    assert u * v == QRat(QM1) and v * u == QRat(QM1)


def test_sums_that_cancel_to_zero():
    x = QRat(QP1, _q_factorial_poly(3))
    assert not (x - x) and (x + (-x)).den == (1,)
    # 1/(q - 1) - 1/(q + 1) = 2/(q^2 - 1), reached by a different route
    split = QRat((1,), QM1) - QRat((1,), QP1)
    z = split - QRat((2,), _q2j_minus_one(1))
    assert not z and (z.num, z.den) == ((), (1,))


def test_sum_of_single_term_denominators():
    binom = q_binom(5, 2)
    assert_ops_match_slow_reduction((binom.num, binom.den), ((0, 0, 0, 1), (1,)), "binom + q^3")
    assert (binom + qp(3)) - qp(3) == binom
    assert qp(-2) + qp(-5) == QRat((1, 0, 0, 1), (0, 0, 0, 0, 0, 1))
    # coefficients 2 and 3 meet at their least common multiple
    assert_ops_match_slow_reduction(((1, 1), (0, 2)), ((-1, 0, 1), (0, 0, 3)), "powers")
    assert QRat((1,), (0, 2)) + QRat((1,), (0, 0, 3)) == QRat((2, 3), (0, 0, 6))
    # at one power of q the sum can lose its q: (2 + q)/(2q) + (q - 3)/(3q) = 5/6
    assert QRat((2, 1), (0, 2)) + QRat((-3, 1), (0, 3)) == QRat((5,), (6,))
    # raw denominators c*q^k, with short random numerators
    rng = random.Random(20261021)
    seen = set()
    for k in range(300):
        (c1, ja), (c2, jb) = ((rng.choice([1, -1, 2, 3, -6]), rng.randint(0, 6)) for _ in "ab")
        da, db = (0,) * ja + (c1,), (0,) * jb + (c2,)
        r, s = random_poly(rng, nonzero=True), random_poly(rng, nonzero=True)
        for a, b in ((r, da), (s, db)), ((r, da), (s, da)):
            x, y = QRat(*a), QRat(*b)
            seen.add("equal" if x.den == y.den else "distinct")
            assert_ops_match_slow_reduction(a, b, (k, a, b))
        # a + b is the constant c, or zero: a = c1 q^e r / (c1 q^ja) and
        # b = (c c2 q^jb - c2 q^(e+jb-ja) r) / (c2 q^jb), with e + jb - ja >= 0
        c, e = rng.choice([0, 0, 1, -2, 5]), max(0, ja - jb)
        a = _ipoly_mul((0,) * e + (c1,), r), da
        b = _ipoly_add((0,) * jb + (c * c2,), _ipoly_mul((0,) * (e + jb - ja) + (-c2,), r)), db
        assert QRat(*a) + QRat(*b) == QRat.from_int(c)
        seen.add("cancels to zero" if c == 0 else "cancels to a constant")
        assert_ops_match_slow_reduction(a, b, (k, a, b, c))
    assert seen == {"equal", "distinct", "cancels to zero", "cancels to a constant"}


def test_cyclotomic_products_match_slow_reduction():
    rng = random.Random(20261019)
    for k in range(400):
        a = (cyclotomic_product(rng), cyclotomic_product(rng))
        b = (cyclotomic_product(rng), cyclotomic_product(rng))
        assert_ops_match_slow_reduction(a, b, k)


def test_adding_zero_returns_the_operand():
    rng = random.Random(4242)
    zero = QRat.zero()
    for shape in SHAPES:
        for _ in range(20):
            x = QRat(*raw_operand(rng, shape))
            for z in (x + zero, zero + x, x + 0, 0 + x, x - zero):
                assert z == x and hash(z) == hash(x)
                assert (z.num, z.den) == (x.num, x.den)


def test_multiplying_by_a_unit_passes_the_operand_through():
    rng = random.Random(4243)
    one, minus_one = QRat.one(), QRat.from_int(-1)
    for shape in SHAPES:
        for k in range(20):
            a = raw_operand(rng, shape)
            x = QRat(*a)
            if x:
                assert x * one is x and one * x is x and x * 1 is x and 1 * x is x
            for z in (x * minus_one, minus_one * x, x * -1, -1 * x):
                assert z == -x and (z.num, z.den) == ((-x).num, (-x).den)
            for unit in ((1,), (-1,)):
                assert_ops_match_slow_reduction(a, (unit, (1,)), (shape, k, unit))
                assert_ops_match_slow_reduction((unit, (1,)), a, (shape, k, unit))


# -- the size-gated kernels: heuristic gcd with cofactors, Kronecker products --
#
# Long operands (at least qfield.HEU_GCD_MIN_LEN coefficients between the two
# sides of a gcd, at least qfield.KRONECKER_MIN_PAIRS coefficient pairs in a
# product) take the big-integer kernels; every result must still be the
# normal form that the slow modular reduction gives.

LONG_FACTORS = (
    [_q_int_poly(k) for k in range(2, 13)]
    + [_q_factorial_poly(k) for k in range(2, 6)]
    + [_q2j_minus_one(j) for j in range(1, 7)]
)


def long_cyclotomic_product(rng: random.Random) -> tuple[int, ...]:
    out: tuple[int, ...] = (rng.choice([1, 1, -1, 2, 3, -6]),)
    for _ in range(rng.randint(0, 6)):
        out = _ipoly_mul(out, rng.choice(LONG_FACTORS))
    return out


def long_pairs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield (
            (long_cyclotomic_product(rng), long_cyclotomic_product(rng)),
            (long_cyclotomic_product(rng), long_cyclotomic_product(rng)),
        )


def counting(monkeypatch, name: str) -> list:
    """Count the calls of a qfield kernel; returns the one-slot counter."""
    calls, real = [0], getattr(qfield, name)

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(qfield, name, counted)
    return calls


def test_long_cyclotomic_pairs_match_slow_reduction(monkeypatch):
    heuristic, packs = counting(monkeypatch, "_heu_cancel"), counting(monkeypatch, "_pack")
    for k, (a, b) in enumerate(long_pairs(20261020, 300)):
        assert_ops_match_slow_reduction(a, b, k)
    # both size gates were crossed, many times over
    assert heuristic[0] > 1000 and packs[0] > 1000


def test_heuristic_gcd_is_not_fooled_by_an_accidental_common_factor():
    a, b = _q_int_poly(5), _q2j_minus_one(6)  # 1 + q^2 + ... + q^8 and q^12 - 1
    assert _slow_gcd_degree(a, b) == 0
    for k in qfield._HEU_WIDTHS:  # every limb width is a multiple of 4
        assert qfield._pack(a, k) % 5 == 0 and qfield._pack(b, k) % 5 == 0
    assert len(a) + len(b) >= qfield.HEU_GCD_MIN_LEN
    assert qfield._heu_cancel(a, b) == ((1,), a, b)
    assert qfield._cancel(a, b) == ((1,), a, b)
    assert_ops_match_slow_reduction((a, (1,)), (b, (1,)), "accidental factor")
    assert_ops_match_slow_reduction(((1,), a), ((1,), b), "accidental factor, inverted")
    # a real common factor is found exactly, with the cofactors
    c = _q_int_poly(3)
    assert qfield._heu_cancel(_ipoly_mul(a, c), _ipoly_mul((-2,), _ipoly_mul(b, c))) == (
        c, a, _ipoly_mul((-2,), b)
    )


def test_prs_fallback_gives_the_same_normal_forms(monkeypatch):
    pairs = list(long_pairs(4711, 40))
    fast = [(QRat(*a), QRat(*b)) for a, b in pairs]
    monkeypatch.setattr(qfield, "_HEU_WIDTHS", ())
    assert qfield._heu_cancel(_q_int_poly(12), _q2j_minus_one(6)) is None
    for k, ((a, b), (x, y)) in enumerate(zip(pairs, fast)):
        u, v = QRat(*a), QRat(*b)
        assert (u.num, u.den, v.num, v.den) == (x.num, x.den, y.num, y.den), k
        assert_ops_match_slow_reduction(a, b, k)


def test_kronecker_product_matches_schoolbook(monkeypatch):
    rng = random.Random(8128)
    packs = counting(monkeypatch, "_pack")
    for bits in (4, 16, 40, 70):
        for _ in range(40):
            a = tuple(rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, 120)))
            b = tuple(rng.randint(-(2**bits), 2**bits) for _ in range(rng.randint(1, 120)))
            a, b = a[:-1] + (a[-1] or 1,), b[:-1] + (b[-1] or -1,)
            assert qfield._pmul(a, b) == _ipoly_mul(a, b), (bits, a, b)
            # a single-term side c*q^k, on either side, is a shift and a scaling
            for c in (1, -1, 3):
                t = (0,) * rng.randint(0, 9) + (c,)
                assert qfield._pmul(t, a) == _ipoly_mul(t, a), (bits, t, a)
                assert qfield._pmul(b, t) == _ipoly_mul(b, t), (bits, b, t)
    assert packs[0] > 0
    # coefficients at the edges of a limb, and sparse operands
    for h in (2**15 - 1, 2**31 - 1, 2**63 - 1, 2**63, 2**64 + 3):
        a, b = (h, 0, -h) * 10, (-1,) + (0,) * 28 + (1,)
        assert qfield._pmul(a, b) == _ipoly_mul(a, b)
        assert qfield._pmul(b, a) == _ipoly_mul(a, b)
    for bits in qfield._HEU_WIDTHS:
        digits = [-(2 ** (bits - 1)), 2 ** (bits - 1) - 1, 0, -1, 1]
        assert qfield._unpack(qfield._pack(tuple(digits), bits), bits, 5) == digits


# -- exact row reduction ------------------------------------------------------


def _small_entry(rng: random.Random) -> QRat:
    # Laurent and general values, small enough to keep elimination quick
    shape = rng.randrange(4)
    if shape == 0:
        return QRat.from_int(rng.randint(-3, 3))
    if shape == 1:
        return rng.choice((1, -1)) * qp(rng.randint(-2, 2))
    if shape == 2:
        return qp(rng.randint(-2, 2)) + rng.randint(-2, 2)
    return QRat((rng.randint(-2, 2), 1), (1, rng.choice((1, 2))))


def _matmul(a: list[list[QRat]], b: list[list[QRat]]) -> list[list[QRat]]:
    out = []
    for row in a:
        out.append([])
        for col in zip(*b):
            acc = QRat.zero()
            for x, y in zip(row, col):
                acc = acc + x * y
            out[-1].append(acc)
    return out


def _unit_triangular(rng: random.Random, size: int, upper: bool) -> list[list[QRat]]:
    # ones on the diagonal, random entries above it (or below it), zeros elsewhere
    mat = [[QRat.one() if r == c else QRat.zero() for c in range(size)] for r in range(size)]
    for r in range(size):
        for c in range(size):
            if (c > r) if upper else (c < r):
                mat[r][c] = _small_entry(rng)
    return mat


def _known_rank_matrix(rng: random.Random, nrows: int, ncols: int, rank: int):
    # L * D * U with unit-triangular L, U and exactly `rank` nonzero pivots in D
    lower = _unit_triangular(rng, nrows, upper=False)
    upper = _unit_triangular(rng, ncols, upper=True)
    pivots = set(rng.sample(range(min(nrows, ncols)), rank))
    diag = [[QRat.zero()] * ncols for _ in range(nrows)]
    for k in pivots:
        while not diag[k][k]:
            diag[k][k] = _small_entry(rng)
    return _matmul(_matmul(lower, diag), upper)


@pytest.mark.parametrize(
    "shape", [(1, 1), (3, 3), (4, 4), (5, 5), (2, 5), (5, 2), (3, 4), (4, 3)]
)
def test_row_reduce_rank(shape):
    nrows, ncols = shape
    rng = random.Random(10 * nrows + ncols)
    for rank in range(min(shape) + 1):
        for _ in range(3):
            mat = _known_rank_matrix(rng, nrows, ncols, rank)
            assert row_reduce([row[:] for row in mat]) == rank, (shape, rank, mat)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 5), (5, 3)])
def test_row_reduce_solves_full_rank_systems(shape):
    # b = M x0 lies in the column space, so [M | b] reduces to [I | x] over 0
    nrows, ncols = shape
    rng = random.Random(100 + 10 * nrows + ncols)
    for _ in range(4):
        mat = _known_rank_matrix(rng, nrows, ncols, ncols)
        x0 = [[_small_entry(rng)] for _ in range(ncols)]
        b = [row[0] for row in _matmul(mat, x0)]
        rows = [row + [bi] for row, bi in zip(mat, b)]
        assert row_reduce(rows) == ncols
        x = [[row[-1]] for row in rows[:ncols]]
        assert not any(v for row in rows[ncols:] for v in row)
        assert [row[0] for row in _matmul(mat, x)] == b


def _matches_the_oracle(mat: list[list[QRat]]) -> int:
    """Check row_reduce of mat against the QRat elimination: the same rank
    and the same reduced rows.  Every entry of the fraction-free matrix is
    then det times the oracle's entry, with no coefficient above the
    certified bound and digits that pack back to it.  Returns the width k."""
    want = [row[:] for row in mat]
    rank = qrat_row_reduce(want)
    got = [row[:] for row in mat]
    assert row_reduce(got) == rank, mat
    assert got == want, mat
    ints, ff_rank, det, k, bound = qfield._fraction_free(mat)
    assert ff_rank == rank
    den = qfield._digits(det, k)
    assert max(map(abs, den)) <= bound
    for ff_row, want_row in zip(ints, want):
        for x, w in zip(ff_row, want_row):
            poly = qfield._digits(x, k) if x else ()
            assert max(map(abs, poly), default=0) <= bound, (mat, poly, bound)
            assert qfield._pack(poly, k) == x
            assert QRat(poly, den) == w
    return k


@pytest.mark.parametrize(
    "shape", [(1, 1), (3, 3), (4, 4), (5, 5), (2, 5), (5, 2), (3, 4), (4, 3), (5, 3)]
)
def test_row_reduce_matches_the_qrat_oracle(shape):
    nrows, ncols = shape
    rng = random.Random(1000 + 10 * nrows + ncols)
    for rank in range(min(shape) + 1):
        for _ in range(3):
            _matches_the_oracle(_known_rank_matrix(rng, nrows, ncols, rank))


def test_row_reduce_skips_pivot_columns_and_zero_lines():
    # columns: zero, a, a/q, b, zero, a + 2b, c; a zero row goes in anywhere,
    # so the third and sixth columns never get a pivot
    rng = random.Random(27)
    zero = QRat.zero()
    for rank in (0, 1, 2, 2, 3, 3):
        base = _known_rank_matrix(rng, 4, 3, rank)
        mat = [[zero, a, a * qp(-1), b, zero, a + 2 * b, c] for a, b, c in base]
        mat.insert(rng.randrange(5), [zero] * 7)
        _matches_the_oracle(mat)
        assert row_reduce(mat) == rank
        assert not any(mat[r][c] for r in range(5) for c in (0, 4))
    assert row_reduce([[zero] * 3] * 2) == 0
    assert row_reduce([]) == 0 and row_reduce([[], []]) == 0


def test_row_reduce_clears_every_kind_of_denominator():
    # over 2, over powers of q and over non-monic polynomials, with some rows
    # a combination of the others
    rng = random.Random(31)
    dens = [(1,), (2,), (0, 0, 1), (0, 0, 0, 1), (3, 1), (2, 0, 3), (1, -1, 2), (-1, 0, 0, 5)]
    for nrows, ncols in ((3, 4), (4, 4), (4, 3), (5, 5)):
        for _ in range(6):
            mat = [
                [QRat(random_poly(rng), rng.choice(dens)) for _ in range(ncols)]
                for _ in range(nrows)
            ]
            if rng.random() < 0.5:
                x, y = QRat((1, 1), rng.choice(dens)), QRat(random_poly(rng), rng.choice(dens))
                mat[-1] = [x * u + y * v for u, v in zip(mat[0], mat[1])]
            _matches_the_oracle(mat)


def test_row_reduce_at_the_minor_bound():
    # det [[c, c], [-c, c]] = 2! c^2 reaches the bound; at c = 181 it needs
    # 32-bit digits, where c^2 alone would fit 16
    for c in (1, 181, 2**20):
        mat = [[QRat.from_int(x) for x in row] for row in ((c, c, 1), (-c, c, 0))]
        _matches_the_oracle(mat)
        _, _, det, _, bound = qfield._fraction_free(mat)
        assert abs(det) == bound == 2 * c * c


def test_row_reduce_past_the_machine_limbs():
    # a minor bound beyond 2^63 packs by shifts at a width past 64 bits
    rng = random.Random(2**20)
    big = 2**20
    for _ in range(3):
        mat = [
            [QRat((rng.randint(-big, big), rng.randint(-big, big)), (3, 1)) for _ in range(4)]
            for _ in range(4)
        ]
        assert _matches_the_oracle(mat) > 64


def test_wide_packing_round_trips():
    for bits in (65, 90, 128):
        h = 2 ** (bits - 1)
        digits = [-h, h - 1, 0, -1, 1, h - 1]
        v = qfield._pack(tuple(digits), bits)
        assert v == sum(c << bits * e for e, c in enumerate(digits))
        assert qfield._unpack(v, bits, 6) == digits
        assert qfield._unpack(v, bits, 5) is None


def test_common_denominator_of_a_chain_runs_no_gcd(monkeypatch):
    # D_i = prod over j < i of (q^(2(6-j)) - 1), the chain of E_t(6, t), repeated
    cancels = counting(monkeypatch, "_cancel")
    chain = [(1,)]
    for j in range(4):
        chain.append(qfield._pmul(chain[-1], (-1,) + (0,) * (2 * (6 - j) - 1) + (1,)))
    dens = chain + chain[1:3]
    rng = random.Random(5)
    rng.shuffle(dens)
    lcm, cofactor = qfield._common_denominator(dens)
    assert lcm == chain[-1]
    assert set(cofactor) == set(chain)
    assert all(qfield._pmul(d, c) == lcm for d, c in cofactor.items())
    assert cancels[0] == 0


def test_common_denominator_folds_unrelated_denominators():
    rng = random.Random(8)
    for _ in range(30):
        dens = [random_poly(rng, nonzero=True) for _ in range(rng.randint(1, 5))]
        dens = [qfield._trim(d) for d in dens]
        lcm, cofactor = qfield._common_denominator(dens)
        assert set(cofactor) == set(dens)
        assert all(qfield._pmul(d, c) == lcm for d, c in cofactor.items())
    assert qfield._common_denominator([(2,), (3,), (2,)]) == ((6,), {(2,): (3,), (3,): (2,)})
    assert qfield._common_denominator([]) == ((1,), {})
