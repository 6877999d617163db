"""Exact arithmetic over the field of rational functions in q.

Every coefficient in this package lives in Q(q) and is stored exactly: a
value is a reduced fraction of integer-coefficient polynomials in q.  This
module provides the fraction type plus the balanced q-integers, factorials,
binomials, the bar substitution q -> 1/q, the order-of-vanishing tests
at q = 0 and q = infinity that the lattice computations depend on, and the
one sparse accumulator (``add_into``), sparse vector base (``QVec``),
sum of Laurent terms (``laurent_sum``) and exact row reduction the other
modules share.

Every cancellation goes through ``_cancel``, which returns a gcd with both
cofactors.  Long operands take a certified heuristic gcd at q = 2^k, and
long products one big-integer multiply (Kronecker substitution), with k
from ``_width``, the one rule for every q = 2^k here, at any size; the
primitive PRS gcd and the schoolbook product keep the short operands, and
the PRS takes over whenever the certificate fails.  The two size
crossovers are HEU_GCD_MIN_LEN and KRONECKER_MIN_PAIRS.  Both gcd kernels
run behind one bounded memo, ``_cancel_terms`` (4,096 entries), keyed by
the two sides once ``_cancel`` has sliced off their powers of q: one cold
pbw-crosscheck pass asks for 2,915 multi-term gcds on 367 distinct pairs,
so the kernels run 367 times.  Sums of Laurent terms (``laurent_sum``,
``akito_sum``) add the terms' values at q = 2^k as one integer, with k
certified by the terms' l1 norms, and the Gaussian binomials are integer
polynomials in q^2 built by the product formula; neither forms a QRat
before its result.  Nor does ``row_reduce``: it clears each row's
denominators once and runs fraction-free Gauss-Jordan elimination on the
entries' values at q = 2^k, with k certified by a bound on every minor,
then normalises each output entry once.

No floating point is used anywhere.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import cache, lru_cache
from math import factorial
from math import gcd as _int_gcd
from sys import byteorder as _BYTEORDER

Poly = tuple[int, ...]  # coefficients by ascending degree, no trailing zeros

_PZERO: Poly = ()
_PONE: Poly = (1,)
_UNITS = (_PONE, (-1,))

# Size crossovers, measured on the benchmark's Q(q) operands (see README,
# "Exact arithmetic"): below them the pure-Python loops are faster.
HEU_GCD_MIN_LEN = 12  # len(a) + len(b) at which a gcd tries the heuristic first
KRONECKER_MIN_PAIRS = 300  # len(a) * len(b) at which a product packs into one integer
# signed array codes for limbs of k bits
_LIMB_CODES = {8 * array(c).itemsize: c for c in "hilq"}


def _trim(coeffs) -> Poly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _padd(a: Poly, b: Poly) -> Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return _trim(out)


def _pneg(a: Poly) -> Poly:
    return tuple(-c for c in a)


def _pmul(a: Poly, b: Poly) -> Poly:
    """The product a*b.  A single-term side c*q^k shifts the other side by k
    and scales it by c; from the crossover on, the product is one big-integer
    multiply at q = 2^k, k the ``_width`` of its largest possible coefficient
    (Kronecker substitution), and below it the schoolbook loop."""
    if not a or not b:
        return _PZERO
    # len and the constant term first: most sides fail these without a slice;
    # each side is tested at most once
    if len(b) == 1 or not b[0] and _is_monomial(b):
        a, b = b, a
    elif not (len(a) == 1 or not a[0] and _is_monomial(a)):
        if len(a) * len(b) >= KRONECKER_MIN_PAIRS:
            k = _width(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
            return _trim(_unpack(_pack(a, k) * _pack(b, k), k, len(a) + len(b) - 1))
        return _schoolbook(a, b)
    c = a[-1]
    return (0,) * (len(a) - 1) + (b if c == 1 else tuple(c * x for x in b))


def _width(bound: int) -> int:
    """The width k whose balanced base-2^k digits hold every integer of
    absolute value at most bound: a 16-, 32- or 64-bit limb below 2^63,
    and bound.bit_length() + 1 bits from there on."""
    if bound < 1 << 31:
        return 16 if bound < 1 << 15 else 32
    return 64 if bound < 1 << 63 else bound.bit_length() + 1


def _schoolbook(a: Poly, b: Poly) -> Poly:
    """The product a*b by the quadratic loop, which skips zero terms."""
    out = [0] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                if y:
                    out[j + k] += x * y
    return _trim(out)


def _pshift(a: Poly, k: int) -> Poly:
    # multiply by q^k for k >= 0; input need not be trimmed
    return ((0,) * k + tuple(a)) if any(a) else _PZERO


def _order(a: Poly) -> int:
    """Index of the lowest nonzero coefficient of a nonzero a: its q-order at 0."""
    k = 0
    while not a[k]:
        k += 1
    return k


def _is_monomial(a: Poly) -> bool:
    """True when a nonzero trimmed a is a single term c*q^k."""
    return not any(a[:-1])


def _primitive(a: Poly) -> Poly:
    g = _int_gcd(*a)
    if g in (0, 1):
        return a
    return tuple(c // g for c in a)


def _prem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder of a by b; only used inside the primitive PRS."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db:
        lead = r[-1]
        r = [c * lb for c in r]
        off = len(r) - 1 - db
        for k, c in enumerate(b):
            r[off + k] -= lead * c
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
    return tuple(r)


def _pgcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_prem(a, b))
    if a and a[-1] < 0:
        a = _pneg(a)
    return a


def _pdiv(a: Poly, b: Poly) -> Poly:
    """Exact division of a by a primitive divisor b."""
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1) if len(a) >= len(b) else []
    while rem and len(rem) >= len(b):
        c, leftover = divmod(rem[-1], b[-1])
        if leftover:
            raise ArithmeticError("inexact polynomial division")
        pos = len(rem) - len(b)
        out[pos] = c
        for k, bc in enumerate(b):
            rem[pos + k] -= c * bc
        while rem and rem[-1] == 0:
            rem.pop()
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return _trim(out)


def _pack(a: Poly, k: int) -> int:
    """a(2^k) for coefficients in [-2^(k-1), 2^(k-1)).

    Read as one unsigned integer, the k-bit two's complement limbs of a are
    the biased digits c + 2^(k-1) with their top bits flipped, so one xor
    and one subtraction of the bias give the value.  A k wider than a
    machine limb sums shifted coefficients.
    """
    code = _LIMB_CODES.get(k)
    if code is None:
        return sum(c << k * e for e, c in enumerate(a))
    bias = _bias(k, len(a))
    return (int.from_bytes(array(code, a).tobytes(), _BYTEORDER) ^ bias) - bias


def _unpack(v: int, k: int, n: int) -> list[int] | None:
    """The n balanced base-2^k digits of v, each in [-2^(k-1), 2^(k-1)),
    or None when v has no such expansion; the inverse of _pack."""
    if k not in _LIMB_CODES:
        half, out = 1 << (k - 1), []
        for _ in range(n):
            out.append(((v + half) & ((half << 1) - 1)) - half)
            v = (v - out[-1]) >> k
        return None if v else out
    bias = _bias(k, n)
    v += bias
    if v < 0 or v.bit_length() > n * k:
        return None
    limbs = array(_LIMB_CODES[k])
    limbs.frombytes((v ^ bias).to_bytes(n * k // 8, _BYTEORDER))
    return limbs.tolist()


def _digits(v: int, k: int) -> Poly:
    # the P whose balanced base-2^k digits are v.  Every digit is below
    # 2^(k-1) in absolute value, so a nonzero P of degree D has
    # |v| > 2^(kD-1), and D < v.bit_length() // k + 1
    return _trim(_unpack(v, k, v.bit_length() // k + 1))


@lru_cache(maxsize=1024)
def _bias(k: int, n: int) -> int:
    # 2^(k-1) in each of n limbs of k bits; bounded, as n grows with the operands
    return int.from_bytes(((1 << (k - 1)).to_bytes(k // 8, "little")) * n, "little")


def _heu_cancel(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly] | None:
    """(g, a/g, b/g) with g the primitive gcd, certified at xi = 2^k for k
    the ``_width`` of max(|a|, |b|), 2k or 4k, or None.  See _cancel."""
    k0 = _width(max(max(map(abs, a)), max(map(abs, b))))
    for k in (k0, 2 * k0, 4 * k0):
        h = 1 << (k - 1)  # xi / 2, above every coefficient of a and b
        va, vb = _pack(a, k), _pack(b, k)
        gamma = _int_gcd(va, vb)
        g = _unpack(gamma, k, min(len(a), len(b)))
        if g is None:
            continue
        while not g[-1]:
            g.pop()
        if len(g) == 1:
            # gamma < xi/2 and d divides gamma, so the coprimality test holds
            return _PONE, a, b
        c = _int_gcd(*g)
        if g[-1] < 0:
            c = -c
        g = [x // c for x in g]
        gv = gamma // c
        ca = _unpack(va // gv, k, len(a) - len(g) + 1)
        cb = _unpack(vb // gv, k, len(b) - len(g) + 1)
        if ca is None or cb is None:
            continue
        ng, nca, ncb = max(map(abs, g)), max(map(abs, ca)), max(map(abs, cb))
        if ng * nca * min(len(g), len(ca)) >= h or ng * ncb * min(len(g), len(cb)) >= h:
            continue
        d = _int_gcd(va // gv // _int_gcd(*ca), vb // gv // _int_gcd(*cb))
        if 2 * h > d + 1 + min(nca, ncb):
            return tuple(g), tuple(ca), tuple(cb)
    return None


def _cancel(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, a/g, b/g) for nonzero a and b, with g their primitive gcd of
    positive leading coefficient; when g = 1, a and b come back untouched.

    The common power of q is split off by slicing, and when either side is
    a single term once its own power of q is gone, nothing else is common.
    Two sides with several terms and at least HEU_GCD_MIN_LEN coefficients
    between them first try the heuristic gcd (Char, Geddes and Gonnet,
    1989), which hands the work to big-integer gcd and division.  Take
    xi = 2^k with every coefficient of a and b below xi/2 in absolute
    value, gamma = gcd(a(xi), b(xi)), g the primitive part of the balanced
    base-xi digits of gamma with positive leading coefficient, and ca, cb
    the balanced digits of a(xi)/g(xi) and b(xi)/g(xi).  Two tests make
    the result exact:

    - Identities.  If |g|*|ca|*min(len g, len ca) < xi/2, every coefficient
      of the product g*ca is below xi/2 in absolute value, as is every
      coefficient of a, and both evaluate to a(xi).  Balanced base-xi
      digits are unique, so g*ca = a; likewise g*cb = b.
    - Coprime cofactors.  Let d = gcd(pp(ca)(xi), pp(cb)(xi)).  A
      nonconstant common factor h of ca and cb would divide both primitive
      parts, so h(xi) would divide d.  Every root z of h is a root of ca
      and of cb, so by the Cauchy bound |z| < 1 + min(|ca|, |cb|).  If
      xi > d + 1 + min(|ca|, |cb|), then each |xi - z| > d >= 1 and
      |h(xi)| >= prod |xi - z| > d, which cannot be.  So g is the gcd.

    Here |p| is the largest absolute value of a coefficient.  k starts at
    the ``_width`` of max(|a|, |b|) and doubles at most twice when either
    test fails; then the primitive PRS decides.  It also takes the shorter
    sides, where it is the faster of the two.

    Both kernels run in ``_cancel_terms``, a bounded memo keyed by the two
    sides with their powers of q sliced off, so pairs that differ by a
    shift share one entry.  A pass repeats most of its pairs: one cold
    pbw-crosscheck pass (seed 1) makes 2,915 such cancellations on 367
    distinct pairs, a boson-grid pass 1,745 on 1,110.
    """
    ka, kb = _order(a), _order(b)
    k = ka if ka < kb else kb
    if len(a) - ka > 1 and len(b) - kb > 1:
        g, a1, b1 = _cancel_terms(a[ka:], b[kb:])
        if g != _PONE:
            return (
                (0,) * k + g if k else g,
                (0,) * (ka - k) + a1 if ka > k else a1,
                (0,) * (kb - k) + b1 if kb > k else b1,
            )
    if not k:
        return _PONE, a, b
    return (0,) * k + _PONE, a[k:], b[k:]


@lru_cache(maxsize=1 << 12)
def _cancel_terms(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, a/g, b/g) for a and b with nonzero constant terms and several
    terms each: the heuristic gcd, then the primitive PRS.  See _cancel,
    its one caller; the result is a tuple, so a shared entry stays as made."""
    found = _heu_cancel(a, b) if len(a) + len(b) >= HEU_GCD_MIN_LEN else None
    if found is None:
        g = _pgcd(a, b)
        found = (g, a, b) if g == _PONE else (g, _pdiv(a, g), _pdiv(b, g))
    return found


def _poly_str(p: Poly) -> str:
    terms = []
    for e in range(len(p) - 1, -1, -1):
        c = p[e]
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
            continue
        base = "q" if e == 1 else f"q^{e}"
        if c == 1:
            terms.append(base)
        elif c == -1:
            terms.append("-" + base)
        else:
            terms.append(f"{c}*{base}")
    return "+".join(terms).replace("+-", "-")


def _poly_parse(s: str) -> Poly:
    s = s.strip()
    if s in ("", "0"):
        return _PZERO
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        term = term.strip()
        if not term:
            raise ValueError(f"bad polynomial string: {s!r}")
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        if "*" in term:
            cpart, qpart = term.split("*")
            c = int(cpart)
        elif term.startswith("q"):
            c, qpart = 1, term
        else:
            c, qpart = int(term), None
        if qpart is None:
            e = 0
        elif qpart == "q":
            e = 1
        elif qpart.startswith("q^"):
            e = int(qpart[2:])
        else:
            raise ValueError(f"bad term: {term!r}")
        coeffs[e] = coeffs.get(e, 0) + sign * c
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return _trim(out)


class QRat:
    """A rational function in q as a reduced fraction of integer polynomials.

    The normal form is unique: numerator and denominator share no factor,
    the pair has integer content 1, and the denominator has positive leading
    coefficient; zero is ``()/(1,)``.  Equality and hashing are structural on
    that form, so these values are safe as dict keys.  Instances are
    immutable by convention, so arithmetic may return an operand itself.

    The constructor is the one normaliser for a raw (num, den) pair.  The
    arithmetic instead starts from two operands already in normal form and
    uses Henrici's algorithms (Knuth, TAOCP vol. 2, 4.5.1), so each gcd
    runs on factors rather than on full products, and a result that is
    coprime by construction only has its integer content and sign fixed:

    - for a/b * c/d, gcd(a, d) and gcd(c, b) are cancelled before the
      cofactors are multiplied;
    - for a/b + c/d with g = gcd(b, d), t = a(d/g) + c(b/g) can share a
      factor only with g, and h = gcd(t, g) is cancelled from t and d, so
      the sum is (t/h) / ((b/g)(d/h)); equal denominators are the case
      g = b, which runs no gcd, and adding zero returns the other operand.

    Each cancellation is one ``_cancel(x, y)``, which returns the gcd and
    both cofactors.  It splits off the power of q by a slice and answers at
    once when either side is then a single term.  Two factors with at least
    HEU_GCD_MIN_LEN coefficients between them take the heuristic gcd at
    q = 2^k, accepted only with the certificate in ``_cancel``; shorter
    ones, and any pair the certificate rejects, take the primitive PRS gcd.
    Every product of two polynomials is one ``_pmul``: a single-term side
    shifts and scales the other, and products of at least
    KRONECKER_MIN_PAIRS coefficient pairs are one big-integer multiply.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_PONE):
        num = _trim(num)
        den = _trim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = _PONE
        elif den != _PONE:
            _, num, den = _cancel(num, den)
            r = _finish(num, den)
            num, den = r.num, r.den
        self.num: Poly = num
        self.den: Poly = den

    @classmethod
    def zero(cls) -> "QRat":
        return cls(_PZERO)

    @classmethod
    def one(cls) -> "QRat":
        return cls(_PONE)

    @classmethod
    def from_int(cls, c: int) -> "QRat":
        return _normal((c,) if c else _PZERO, _PONE)

    @classmethod
    def q_power(cls, e: int) -> "QRat":
        if e >= 0:
            return _normal(_pshift(_PONE, e), _PONE)
        return _normal(_PONE, _pshift(_PONE, -e))

    @classmethod
    def from_laurent(cls, coeffs: dict[int, int], den: Poly = _PONE) -> "QRat":
        """Build {exponent: coefficient} over the polynomial ``den``, reduced once."""
        coeffs = {e: c for e, c in coeffs.items() if c}
        if not coeffs:
            return cls.zero()
        lo = min(coeffs)
        out = [0] * (max(coeffs) - lo + 1)
        for e, c in coeffs.items():
            out[e - lo] = c
        return _laurent(lo, tuple(out), den)

    # -- arithmetic ---------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, QRat):
            return other
        if isinstance(other, int):
            return QRat.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        a, b, c, d = self.num, self.den, o.num, o.den
        g, bq, dq = (b, _PONE, _PONE) if b == d else _cancel(b, d)
        t = _padd(_pmul(a, dq), _pmul(c, bq))
        if not t:
            return _Q0
        h, t, gh = _cancel(t, g)
        if h != _PONE:
            d = _pmul(dq, gh)
        return _finish(t, _pmul(bq, d))

    __radd__ = __add__

    def __neg__(self):
        return _normal(_pneg(self.num), self.den)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if not (self.num and o.num):
            return _Q0
        # a unit side passes the other through, as a zero side does in __add__
        if o.den == _PONE and o.num in _UNITS:
            return self if o.num[0] == 1 else -self
        if self.den == _PONE and self.num in _UNITS:
            return o if self.num[0] == 1 else -o
        _, a, d = _cancel(self.num, o.den)
        _, c, b = _cancel(o.num, self.den)
        return _finish(_pmul(a, c), _pmul(b, d))

    __rmul__ = __mul__

    def inverse(self) -> "QRat":
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return _normal(num, den)

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = QRat.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    # -- structure maps -----------------------------------------------

    def bar(self) -> "QRat":
        """Substitute q -> 1/q."""
        dn, dd = len(self.num) - 1, len(self.den) - 1
        num = tuple(reversed(self.num))
        den = tuple(reversed(self.den))
        if dd >= dn:
            return QRat(_pshift(num, dd - dn), den)
        return QRat(num, _pshift(den, dn - dd))

    def is_regular_at_zero(self) -> bool:
        return self.den[0] != 0

    def eval_at_zero(self) -> Fraction:
        if self.den[0] == 0:
            raise ZeroDivisionError("pole at q = 0")
        return Fraction(self.num[0] if self.num else 0, self.den[0])

    def is_regular_at_infinity(self) -> bool:
        return len(self.num) <= len(self.den)

    def eval_at_infinity(self) -> Fraction:
        if len(self.num) > len(self.den):
            raise ZeroDivisionError("pole at q = infinity")
        if len(self.num) < len(self.den):
            return Fraction(0)
        return Fraction(self.num[-1], self.den[-1])

    def min_degree(self) -> int:
        """Order of vanishing at q = 0 (negative at a pole)."""
        if not self.num:
            raise ValueError("zero has no minimal degree")
        return _order(self.num) - _order(self.den)

    # -- text form ------------------------------------------------------

    def __str__(self):
        if not self.num:
            return "0"
        if self.den == _PONE:
            return _poly_str(self.num)
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"

    def __repr__(self):
        return f"QRat[{self}]"

    @classmethod
    def parse(cls, s: str) -> "QRat":
        """The value that s writes in the form of ``str``; ValueError otherwise."""
        if not isinstance(s, str):
            raise ValueError(f"a Q(q) value is text, not {s!r}")
        s = s.strip()
        if s.startswith("(") and ")/(" in s and s.endswith(")"):
            mid = s.index(")/(")
            num, den = _poly_parse(s[1:mid]), _poly_parse(s[mid + 3 : -1])
            if not den:
                raise ValueError(f"zero denominator: {s!r}")
            return cls(num, den)
        return cls(_poly_parse(s))


def _normal(num: Poly, den: Poly) -> QRat:
    """Wrap a pair that is already in normal form, skipping normalisation."""
    r = object.__new__(QRat)
    r.num = num
    r.den = den
    return r


def _finish(num: Poly, den: Poly) -> QRat:
    """Wrap a coprime pair with nonzero num: divide out the integer content
    of the pair and make the denominator lead positive."""
    c = _int_gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    return _normal(num, den)


def _laurent(lo: int, num: Poly, den: Poly) -> QRat:
    """q^lo * num / den for a trimmed num, normalised once: the one
    normaliser of ``QRat.from_laurent`` and ``laurent_sum``."""
    if not num:
        return _Q0
    if lo < 0:
        return QRat(num, _pshift(den, -lo))
    return QRat((0,) * lo + num if lo else num, den)


_Q0 = QRat.zero()
_Q1 = QRat.one()


def full_product_reference(op: str, x: QRat, y: QRat) -> QRat:
    """x op y for op in "+-*/", from the full cross products reduced by one
    primitive PRS gcd: the slow route the arithmetic must agree with.  It
    uses neither the heuristic gcd nor any shortcut of ``_pmul`` (the
    Kronecker product, a single-term side as a shift), so it checks them
    rather than sharing them."""
    (a, b), (c, d) = (x.num, x.den), (y.num, y.den)
    if op in "+-":
        cb = _schoolbook(c, b)
        num, den = _padd(_schoolbook(a, d), cb if op == "+" else _pneg(cb)), _schoolbook(b, d)
    elif op == "*":
        num, den = _schoolbook(a, c), _schoolbook(b, d)
    elif op == "/":
        num, den = _schoolbook(a, d), _schoolbook(b, c)
    else:
        raise ValueError(f"unknown operation {op!r}")
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return _Q0
    g = _pgcd(num, den)
    return _finish(_pdiv(num, g), _pdiv(den, g))


# -- sparse accumulation and exact row reduction ---------------------------


def add_into(out: dict, key, c) -> None:
    """out[key] += c, dropping the key when the sum is zero."""
    v = out[key] + c if key in out else c
    if v:
        out[key] = v
    elif key in out:
        del out[key]


class QVec:
    """A sparse vector over Q(q): ``terms`` maps basis keys to nonzero QRat
    coefficients.  A subclass sets ``terms``, is built as ``cls(space,
    terms)`` and returns that space from ``space()``; vectors of two
    spaces neither compare equal nor add."""

    __slots__ = ()

    @classmethod
    def zero(cls, space):
        return cls(space)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.space() == other.space() and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, QVec):
            return NotImplemented
        if type(other) is not type(self) or other.space() != self.space():
            raise ValueError("vectors of different spaces")
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_into(out, key, c)
        return type(self)(self.space(), out)

    def __neg__(self):
        return type(self)(self.space(), {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other) if isinstance(other, QVec) else NotImplemented

    def scale(self, c: QRat | int):
        if isinstance(c, int):
            c = QRat.from_int(c)
        if not c:
            return self.zero(self.space())
        return type(self)(self.space(), {k: x * c for k, x in self.terms.items()})


def _common_denominator(dens) -> tuple[Poly, dict[Poly, Poly]]:
    """A common multiple of the nonzero polynomials dens, with each den's
    cofactor.  The longest den is it when the others all divide it (the
    chain D_0 | D_1 | ... of ``qboson.E_t``), with no gcd run; otherwise
    the dens fold in by ``_cancel``."""
    dens = dict.fromkeys(dens)
    top = max(dens, key=len, default=_PONE)
    try:
        return top, {d: _pdiv(top, d) for d in dens}
    except ArithmeticError:
        top = _PONE
        for d in dens:
            top = _pmul(top, _cancel(top, d)[2])
        return top, {d: _pdiv(top, d) for d in dens}


def _fraction_free(rows: list[list[QRat]]) -> tuple[list[list[int]], int, int, int, int]:
    """(matrix, rank, det, k, bound): fraction-free Gauss-Jordan (Bareiss
    1968; Nakos, Turner and Williams 1997) of the rows, each cleared of its
    denominators, on the values at q = 2^k.  Every entry is a minor, whose
    coefficients are at most bound = r! prod over rows of max(1, the row's
    largest l1 norm), r = min(rows, columns), and k leaves room for them:
    a packed zero is zero, each division is exact and the digits are the
    coefficients.  The first rank rows end as det, the last pivot, times
    their reduced row echelon form; the rows past them are zero."""
    ncols = len(rows[0]) if rows else 0
    cleared, bound = [], factorial(min(len(rows), ncols))
    for row in rows:
        _, cof = _common_denominator([x.den for x in row if x])
        polys = [_pmul(x.num, cof[x.den]) if x else _PZERO for x in row]
        bound *= max([1] + [sum(map(abs, p)) for p in polys])
        cleared.append(polys)
    k = _width(bound)
    mat = [[_pack(p, k) for p in polys] for polys in cleared]
    rank, prev = 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        p = top[col]
        for r, row in enumerate(mat):
            if r != rank:
                g, new = row[col], []
                for x, y in zip(row, top):
                    v, rem = divmod(p * x - g * y, prev)
                    if rem:
                        raise ArithmeticError("inexact fraction-free step")
                    new.append(v)
                mat[r] = new
        rank, prev = rank + 1, p
    return mat, rank, prev, k, bound


def row_reduce(rows: list[list[QRat]]) -> int:
    """Gauss-Jordan elimination in place; returns the rank.  Each pivot is
    the first nonzero entry at or below the current row; the rows end in
    reduced row echelon form, each entry normalised once from the integers
    of ``_fraction_free``."""
    mat, rank, det, k, _ = _fraction_free(rows)
    den = _digits(det, k)
    for r, row in enumerate(mat):
        rows[r] = [(_Q1 if x == det else QRat(_digits(x, k), den)) if x else _Q0 for x in row]
    return rank


# -- sums of Laurent terms ------------------------------------------------


def laurent_sum(terms, den: Poly = _PONE) -> QRat:
    """The sum of q^e times the product of the integer polynomials in
    ``polys``, over every (e, polys) in ``terms``, divided by the
    polynomial ``den`` and normalised once.

    Kronecker substitution: each term is evaluated at q = 2^k, shifted by
    k (e - lo) bits for the least exponent lo, and added into one integer,
    whose balanced base-2^k digits are then the coefficients of the sum.
    The sum over the terms of the product of their polynomials' l1 norms
    bounds every coefficient of the sum, so k is the narrowest width that
    holds it (``_width``), however large.  The l1 norms and packed values
    come from the memos ``_l1`` (keyed by the polynomial) and ``_packed``
    (keyed by the polynomial and k), each bounded at 4,096 entries: the
    terms of one boson grid repeat their polynomials.
    """
    terms = [(e, polys) for e, polys in terms if all(polys)]
    if not terms:
        return _Q0
    bound = 0
    for _, polys in terms:
        b = 1
        for p in polys:
            b *= _l1(p)
        bound += b
    k = _width(bound)
    lo = min(e for e, _ in terms)
    total = 0
    for e, polys in terms:
        v = 1 << k * (e - lo)
        for p in polys:
            v *= _packed(p, k)
        total += v
    return _laurent(lo, _digits(total, k), den)


@lru_cache(maxsize=1 << 12)
def _l1(p: Poly) -> int:
    # the l1 norm of p, for laurent_sum's width
    return sum(map(abs, p))


@lru_cache(maxsize=1 << 12)
def _packed(p: Poly, k: int) -> int:
    # _pack(p, k), for laurent_sum's terms
    return _pack(p, k)


# -- q-combinatorics -----------------------------------------------------


@cache
def q_int(a: int) -> QRat:
    """Balanced q-integer: q^(a-1) + q^(a-3) + ... + q^(1-a)."""
    if a < 0:
        raise ValueError("q_int needs a >= 0")
    if a == 0:
        return _Q0
    num = tuple(1 if k % 2 == 0 else 0 for k in range(2 * a - 1))
    return QRat(num, _pshift(_PONE, a - 1))


@cache
def q_factorial(k: int) -> QRat:
    if k < 0:
        raise ValueError("q_factorial needs k >= 0")
    out = _Q1
    for j in range(1, k + 1):
        out = out * q_int(j)
    return out


@cache
def q_binom(c: int, d: int) -> QRat:
    """Balanced Gaussian binomial; zero unless c >= d >= 0.

    q^(d(c-d)) [c, d] is the Gaussian polynomial G_d in x = q^2, built by
    the product formula G_j = G_(j-1) (x^(c-d+j) - 1) / (x^j - 1) from
    G_0 = 1 with integer coefficients only.  Its constant term is 1, so
    G_d(q^2) over q^(d(c-d)) is already the normal form.  Pascal's rule is
    left to the checks that test this function against it.
    """
    if not (c >= d >= 0):
        return _Q0
    d = min(d, c - d)
    g = [1]
    for j in range(1, d + 1):
        m = c - d + j
        # h = g (1 - x^m) / (1 - x^j): one pass for the product, and the
        # exact division solves h[i] = h[i - j] + r[i] one coefficient at a time
        h = g + [0] * m
        for i, x in enumerate(g, m):
            h[i] -= x
        for i in range(j, len(h)):
            h[i] += h[i - j]
        g = h[: len(h) - j]
    num = [0] * (2 * len(g) - 1)
    num[::2] = g
    return _normal(tuple(num), (0,) * (d * (c - d)) + _PONE)


def akito_sum(a: int, b: int) -> QRat:
    """Telescoping q-binomial sum; collapses to the single power q^(2ab).

    Computed literally as the sum, so the caller can compare against the
    closed form.  The term of j = b - i is q^(j(j-1)) G_j F_j, where
    G_j / q^(j(a-j)) is [a, j] and F_j the product of (q^(2m) - 1) for
    i < m <= b.  Packed at q = 2^k, each F_j is one multiply by
    2^(2k(i+1)) - 1 away from the last, and the terms add up as one
    integer (see ``laurent_sum``).  Their l1 norms 2^j C(a, j) sum to at
    most 3^a, which bounds every coefficient, so k = ``_width(3^a)``; a
    16 x 16 grid of these sums runs 2.3x slower through ``laurent_sum``.
    """
    if a < 0 or b < 0:
        raise ValueError("akito_sum needs a, b >= 0")
    k = _width(3**a)
    total, factor = 0, 1
    for j in range(min(a, b) + 1):
        if j:
            factor *= (1 << 2 * k * (b - j + 1)) - 1
        total += factor * _pack(q_binom(a, j).num, k) << k * j * (j - 1)
    return _laurent(0, _digits(total, k), _PONE)


# -- functional names for the QRat methods -------------------------------

bar = QRat.bar
is_regular_at_zero = QRat.is_regular_at_zero
eval_at_zero = QRat.eval_at_zero
is_regular_at_infinity = QRat.is_regular_at_infinity
eval_at_infinity = QRat.eval_at_infinity
min_degree = QRat.min_degree
