"""Exact arithmetic over the field of rational functions in q.

Every coefficient in this package lives in Q(q) and is stored exactly: a
value is a reduced fraction of integer-coefficient polynomials in q.  This
module provides the fraction type plus the balanced q-integers, factorials,
binomials, the bar substitution q -> 1/q, the order-of-vanishing tests
at q = 0 and q = infinity that the lattice computations depend on, and the
one sparse accumulator (``add_into``), sparse vector base (``QVec``) and
exact row reduction the other modules share.

Every cancellation goes through ``_cancel``, which returns a gcd with both
cofactors.  Long operands take a certified heuristic gcd at q = 2^k, and
long products one big-integer multiply (Kronecker substitution); the
primitive PRS gcd and the schoolbook product keep the short operands and
take over whenever the certificate or the 63-bit bound fails.  The two size
crossovers are HEU_GCD_MIN_LEN and KRONECKER_MIN_PAIRS.

No floating point is used anywhere.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import cache, lru_cache
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
# the evaluation points q = 2^k the heuristic gcd tries, in order, before the PRS
_HEU_WIDTHS = (16, 32, 64)
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
    multiply, and otherwise the schoolbook loop."""
    if not a or not b:
        return _PZERO
    # len and the constant term first: most sides fail these without a slice
    if len(b) == 1 or not b[0] and _is_monomial(b):
        a, b = b, a
    if len(a) == 1 or not a[0] and _is_monomial(a):
        c = a[-1]
        return (0,) * (len(a) - 1) + (b if c == 1 else tuple(c * x for x in b))
    if len(a) * len(b) >= KRONECKER_MIN_PAIRS:
        # Kronecker substitution: one big-integer product at q = 2^k, where
        # k leaves room for the largest possible product coefficient
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        if bound < 1 << 63:
            k = 16 if bound < 1 << 15 else 32 if bound < 1 << 31 else 64
            return _trim(_unpack(_pack(a, k) * _pack(b, k), k, len(a) + len(b) - 1))
    return _schoolbook(a, b)


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
    and one subtraction of the bias give the value.
    """
    bias = _bias(k, len(a))
    return (int.from_bytes(array(_LIMB_CODES[k], a).tobytes(), _BYTEORDER) ^ bias) - bias


def _unpack(v: int, k: int, n: int) -> list[int] | None:
    """The n balanced base-2^k digits of v, each in [-2^(k-1), 2^(k-1)),
    or None when v has no such expansion; the inverse of _pack."""
    bias = _bias(k, n)
    v += bias
    if v < 0 or v.bit_length() > n * k:
        return None
    limbs = array(_LIMB_CODES[k])
    limbs.frombytes((v ^ bias).to_bytes(n * k // 8, _BYTEORDER))
    return limbs.tolist()


@lru_cache(maxsize=1024)
def _bias(k: int, n: int) -> int:
    # 2^(k-1) in each of n limbs of k bits; bounded, as n grows with the operands
    return int.from_bytes(((1 << (k - 1)).to_bytes(k // 8, "little")) * n, "little")


def _heu_cancel(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly] | None:
    """(g, a/g, b/g) with g the primitive gcd, certified at xi = 2^k, or
    None when no tried xi gives a certificate.  See _cancel."""
    top = max(max(map(abs, a)), max(map(abs, b)))
    for k in _HEU_WIDTHS:
        h = 1 << (k - 1)  # xi / 2
        if top >= h:
            continue
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
        if c != 1:
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

    Here |p| is the largest absolute value of a coefficient.  When either
    test fails, the next larger k in _HEU_WIDTHS is tried, and after the
    last one the primitive PRS decides; it also takes the shorter sides,
    where it is the faster of the two.
    """
    ka, kb = _order(a), _order(b)
    k = ka if ka < kb else kb
    if len(a) - ka > 1 and len(b) - kb > 1:
        a1, b1 = a[ka:], b[kb:]
        found = _heu_cancel(a1, b1) if len(a1) + len(b1) >= HEU_GCD_MIN_LEN else None
        if found is None:
            g = _pgcd(a1, b1)
            found = (g, a1, b1) if g == _PONE else (g, _pdiv(a1, g), _pdiv(b1, g))
        g, a1, b1 = found
        if g != _PONE:
            return (
                (0,) * k + g if k else g,
                (0,) * (ka - k) + a1 if ka > k else a1,
                (0,) * (kb - k) + b1 if kb > k else b1,
            )
    if not k:
        return _PONE, a, b
    return (0,) * k + _PONE, a[k:], b[k:]


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
            c, qpart = int(term), ""
        if qpart == "":
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
    - for a/b + c/d with g = gcd(b, d): if g = 1 the sum (ad + cb) / bd is
      already coprime; otherwise t = a(d/g) + c(b/g) can share a factor only
      with g, and h = gcd(t, g) is cancelled from t and d;
    - equal denominators are the case g = b of the same rule, and two
      single-term denominators add by shifting the numerators to the larger
      power of q, and adding zero returns the other operand.

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
        shift = -lo if lo < 0 else 0
        out = [0] * (max(coeffs) + shift + 1)
        for e, c in coeffs.items():
            out[e + shift] = c
        return cls(tuple(out), _pshift(den, shift))

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
        if b == d:
            g, bq, dq, t = b, _PONE, _PONE, _padd(a, c)
        elif _is_monomial(b) and _is_monomial(d):
            # kept for sums of Laurent values (q-integers, Pascal identities):
            # through _cancel instead, boson-grid's check_p50_ms read 0.049 ->
            # 0.051 ms in 3 of 3 paired runs on a 2-vCPU x86-64 VM
            return _add_over_powers(a, b, c, d)
        else:
            g, bq, dq = _cancel(b, d)
            if g == _PONE:
                # coprime, and nonzero: a*d = -c*b would force b = d, a case taken above
                return _finish(_padd(_pmul(a, d), _pmul(c, b)), _pmul(b, d))
            t = _padd(_pmul(a, dq), _pmul(c, bq))
        if not t:
            return _Q0
        h, t, gh = _cancel(t, g)
        if h != _PONE:
            d = gh if dq == _PONE else _pmul(dq, gh)
        return _finish(t, d if bq == _PONE else _pmul(bq, d))

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
        s = s.strip()
        if s.startswith("(") and ")/(" in s and s.endswith(")"):
            mid = s.index(")/(")
            return cls(_poly_parse(s[1:mid]), _poly_parse(s[mid + 3 : -1]))
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


def _add_over_powers(a: Poly, b: Poly, c: Poly, d: Poly) -> QRat:
    """a/b + c/d for distinct single-term denominators b and d.

    Both numerators are scaled to the least common multiple of the two
    coefficients and shifted to the larger power of q, so no product is
    formed; a single-term denominator is coprime to whatever is left once
    the common power of q is sliced off.
    """
    j, k, lb, ld = len(b) - 1, len(d) - 1, b[-1], d[-1]
    if lb != ld:
        lcm = lb * ld // _int_gcd(lb, ld)
        a = tuple(x * (lcm // lb) for x in a)
        c = tuple(x * (lcm // ld) for x in c)
        lb = lcm
    if j < k:
        a = (0,) * (k - j) + a
    elif k < j:
        c = (0,) * (j - k) + c
    num = _padd(a, c)
    if not num:
        return _Q0
    e = max(j, k)
    s = min(_order(num), e)
    return _finish(num[s:], (0,) * (e - s) + (lb,))


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


def row_reduce(rows: list[list[QRat]]) -> int:
    """Gauss-Jordan elimination in place; returns the rank.

    Each pivot is the first nonzero entry at or below the current row,
    scaled to one and cleared from every other row, so the nonzero rows
    end in reduced row echelon form.
    """
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


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
    """Balanced Gaussian binomial; zero unless c >= d >= 0."""
    if not (c >= d >= 0):
        return _Q0
    out = _Q1
    for j in range(1, d + 1):
        out = out * q_int(c - d + j) / q_int(j)
    return out


def akito_sum(a: int, b: int) -> QRat:
    """Telescoping q-binomial sum; collapses to the single power q^(2ab).

    Computed literally as the sum, so the caller can compare against the
    closed form.  Every term is a Laurent polynomial, so the terms' integer
    coefficients are summed by power of q in one dict.
    """
    if a < 0 or b < 0:
        raise ValueError("akito_sum needs a, b >= 0")
    coeffs: dict[int, int] = {}
    factor = _PONE  # the product of (q^{2k} - 1) for i < k <= b
    for i in range(b, max(0, b - a) - 1, -1):
        binom = q_binom(a, b - i)  # num / q^e, the balanced binomials' shape
        shift = (a - 1) * (b - i) - (len(binom.den) - 1)
        for e, c in enumerate(_pmul(factor, binom.num), shift):
            coeffs[e] = coeffs.get(e, 0) + c
        factor = _padd(_pshift(factor, 2 * i), _pneg(factor))
    return QRat.from_laurent(coeffs)


# -- functional names for the QRat methods -------------------------------

bar = QRat.bar
is_regular_at_zero = QRat.is_regular_at_zero
eval_at_zero = QRat.eval_at_zero
is_regular_at_infinity = QRat.is_regular_at_infinity
eval_at_infinity = QRat.eval_at_infinity
min_degree = QRat.min_degree
