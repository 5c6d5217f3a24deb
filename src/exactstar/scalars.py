"""Exact scalar arithmetic: rationals, Gaussian rationals, multiindices,
extended nonnegative values, certified square-root enclosures, and exact
finite sums of square roots.

Everything here stays in (extensions of) the rationals; no value is a float.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Union

RationalLike = Union[int, Fraction]

# enclosure width target of certified brackets and comparisons
DEFAULT_TOL = Fraction(1, 10**12)

# GaussianRational and ExtendedNonNeg are immutable: their __init__ sets the
# slots through object.__setattr__, bound once here, and __setattr__ refuses.
_set = object.__setattr__


def _refuse_assignment(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


_FACTORIAL_MEMO_CAP = 256
_factorial_memo: list[int] = [1]

# Entries kept by each process-wide lru_cache (cone pair tables and reduction
# rows, su1n pullback slices).  Above the working set of a cone level <= 3
# product sweep at n = 2 (~1,600 pair tables), so only a long-lived process
# that keeps meeting new levels or deformation parameters evicts.
CACHE_ENTRIES = 4096


def factorial(n: int) -> int:
    """Factorial with a memoized table up to a fixed cap."""
    if n < 0:
        raise ValueError("factorial of negative integer")
    if n >= _FACTORIAL_MEMO_CAP:
        return math.factorial(n)
    while len(_factorial_memo) <= n:
        _factorial_memo.append(_factorial_memo[-1] * len(_factorial_memo))
    return _factorial_memo[n]


def factorials_through(m: int) -> Callable[[int], int]:
    """k -> k! for 0 <= k <= m, without factorial()'s checks per call: a read
    of the memo, filled through m here, or math.factorial at or above its cap."""
    if m >= _FACTORIAL_MEMO_CAP:
        return math.factorial
    if m >= len(_factorial_memo):
        factorial(m)
    return _factorial_memo.__getitem__


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def rising_numerator(a: int, b: int, r: int) -> int:
    """prod_{i<r} (a + i b): the numerator of (a/b)_r over the denominator b^r."""
    num = 1
    for i in range(r):
        num *= a + i * b
    return num


def is_allowed_hbar(hbar: Fraction | int) -> bool:
    """True when no prefactor (1/2h)_r can vanish: 2h not in {0,-1,-1/2,-1/3,...}."""
    p, q = hbar.numerator, hbar.denominator
    # 1/(2h) = q/(2p) is an integer <= 0 exactly when p < 0 and 2p divides q
    return p != 0 and not (p < 0 and q % (2 * p) == 0)


# digits allowed on each side of a parsed rational; a longer numeral is
# rejected before any integer is built from it
RATIONAL_DIGIT_CAP = 1000
_RATIONAL_PATTERN = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction.

    Only integers and integer ratios are accepted, each side with at most
    RATIONAL_DIGIT_CAP digits; anything else, a non-string included, raises
    ValueError (a zero denominator raises ZeroDivisionError)."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string 'p' or 'p/q', got {text!r}")
    m = _RATIONAL_PATTERN.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"expected a rational 'p' or 'p/q', got {text!r}")
    sign, num, den = m.groups()
    if len(num) > RATIONAL_DIGIT_CAP or (den is not None and len(den) > RATIONAL_DIGIT_CAP):
        raise ValueError(f"rational has more than {RATIONAL_DIGIT_CAP} digits on one side")
    d = 1 if den is None else int(den)
    if d == 0:
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    value = Fraction(int(num), d)
    return -value if sign == "-" else value


def format_rational(q: RationalLike) -> str:
    """Serialize as "p/q", or plain "p" for integers."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def sqrt_bracket(q: RationalLike, tol: Fraction = DEFAULT_TOL) -> tuple[Fraction, Fraction]:
    """Rational enclosure [lo, hi] of sqrt(q) for q >= 0 with hi - lo <= tol.

    Uses integer square roots of scaled numerators, so both bounds are exact
    rationals.  Each doubling of the scale halves the width.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    if q == 0:
        return Fraction(0), Fraction(0)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    p, d = q.numerator, q.denominator
    # sqrt(p/d) = sqrt(p*d)/d on the grid 1/(d 2^s), for the least s >= 0 with
    # 1/(d 2^s) <= tol = tn/td, i.e. d tn 2^s >= td.  Bit lengths put that s
    # at s0 or s0 + 1.
    dt, td = d * tol.numerator, tol.denominator
    s = max(0, td.bit_length() - dt.bit_length())
    if dt << s < td:
        s += 1
    scale = 1 << s
    r = math.isqrt(p * d * scale * scale)
    lo = Fraction(r, d * scale)
    hi = Fraction(r + 1, d * scale) if r * r != p * d * scale * scale else lo
    return lo, hi


def rational_sqrt(q: Fraction) -> Fraction | None:
    """The rational square root of q, or None when q is negative or not the
    square of a rational."""
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class GaussianRational:
    """Complex number with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        _set(self, "re", re)
        _set(self, "im", im)

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @staticmethod
    def of(re: RationalLike, im: RationalLike = 0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    @staticmethod
    def coerce(value: "GaussianRational | RationalLike") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(Fraction(value), Fraction(0))

    def __add__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        if type(other) is Fraction or type(other) is int:
            return GaussianRational(self.re * other, self.im * other)
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "GaussianRational | RationalLike") -> "GaussianRational":
        o = GaussianRational.coerce(other)
        n = o.abs_squared()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        c = o.conjugate()
        num = self * c
        return GaussianRational(num.re / n, num.im / n)

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return GaussianRational.of(1) / (self ** (-k))
        out = GaussianRational.of(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!s}, {self.im!s})"

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}

    @staticmethod
    def from_json(data: dict) -> "GaussianRational":
        return GaussianRational(parse_rational(data.get("re", "0")), parse_rational(data.get("im", "0")))


GR_ZERO = GaussianRational.of(0)
GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)


def gaussian_parts(z: GaussianRational) -> tuple[int, int, int]:
    """z as integers (re_num, im_num, den) over one common denominator."""
    re, im = z.re, z.im
    d, e = re.denominator, im.denominator
    if d == e:
        return re.numerator, im.numerator, d
    m = math.lcm(d, e)
    return re.numerator * (m // d), im.numerator * (m // e), m


def accumulate(acc: dict, key, parts: tuple[int, int, int], q: RationalLike) -> None:
    """acc[key] += z*q for z given as gaussian_parts(z) and an int or Fraction
    q, held as integers (re_num, im_num, den) so that no step normalises;
    settle() or algebra.settled_element() builds the Gaussian rationals."""
    a, b, d = parts
    qn = q.numerator
    a, b, d = a * qn, b * qn, d * q.denominator
    prev = acc.get(key)
    if prev is None:
        acc[key] = (a, b, d)
        return
    pa, pb, pd = prev
    if pd == d:
        acc[key] = (pa + a, pb + b, d)
    else:
        m = math.lcm(pd, d)
        s, t = m // pd, m // d
        acc[key] = (pa * s + a * t, pb * s + b * t, m)


def settle(acc: dict) -> dict:
    """The Gaussian rational of every accumulate() entry, zeros kept."""
    return {
        key: GaussianRational(Fraction(a, d), Fraction(b, d)) for key, (a, b, d) in acc.items()
    }


class MultiIndex(tuple):
    """Multiindex in N_0^n with componentwise arithmetic.

    The public constructor validates its entries (ints, not bools, all
    nonnegative).  Results of arithmetic on valid multiindices are valid by
    construction and are built by _multi_index without that check."""

    def __new__(cls, entries: Iterable[int]):
        if type(entries) is cls:
            return entries
        try:
            t = tuple(entries)
        except TypeError:
            raise ValueError("a multiindex must be a list of integers") from None
        for e in t:
            if isinstance(e, bool) or not isinstance(e, int):
                raise ValueError(f"multiindex entries must be integers, got {e!r}")
            if e < 0:
                raise ValueError("multiindex entries must be nonnegative")
        return super().__new__(cls, t)

    @staticmethod
    def zero(n: int) -> "MultiIndex":
        return _multi_index((0,) * n)

    @staticmethod
    def unit(n: int, i: int) -> "MultiIndex":
        return _multi_index(1 if j == i else 0 for j in range(n))

    def __add__(self, other: "MultiIndex") -> "MultiIndex":  # type: ignore[override]
        return _multi_index(a + b for a, b in zip(self, other, strict=True))

    def minus(self, other: "MultiIndex") -> "MultiIndex | None":
        """Componentwise difference, or None when any entry would go negative."""
        if len(self) != len(other):
            raise ValueError("dimension mismatch")
        if any(b > a for a, b in zip(self, other)):
            return None
        return _multi_index(a - b for a, b in zip(self, other))

    def __le__(self, other: "MultiIndex") -> bool:  # type: ignore[override]
        return all(a <= b for a, b in zip(self, other, strict=True))

    def meet(self, other: "MultiIndex") -> "MultiIndex":
        """Componentwise minimum."""
        return _multi_index(min(a, b) for a, b in zip(self, other, strict=True))

    def degree(self) -> int:
        return sum(self)

    def factorial(self) -> int:
        out = 1
        for e in self:
            out *= factorial(e)
        return out

    def __repr__(self) -> str:
        return "MultiIndex" + tuple.__repr__(self)


def _multi_index(entries: Iterable[int]) -> MultiIndex:
    """MultiIndex from entries already known to be nonnegative ints."""
    return tuple.__new__(MultiIndex, entries)


def multi_range(bound: MultiIndex) -> Iterator[MultiIndex]:
    """Iterate all K with 0 <= K <= bound componentwise (lexicographic)."""
    n = len(bound)
    if n == 0:
        yield _multi_index(())
        return
    current = [0] * n
    while True:
        yield _multi_index(current)
        i = n - 1
        while i >= 0:
            if current[i] < bound[i]:
                current[i] += 1
                break
            current[i] = 0
            i -= 1
        if i < 0:
            return


def multi_indices_of_degree(n: int, d: int) -> Iterator[MultiIndex]:
    """All multiindices in N_0^n with |I| = d; none when d < 0."""
    if n < 0:
        raise ValueError("multiindex dimension must be nonnegative")
    if d < 0:
        return
    if n == 0:
        if d == 0:
            yield _multi_index(())
        return
    if n == 1:
        yield _multi_index((d,))
        return
    for first in range(d, -1, -1):
        for rest in multi_indices_of_degree(n - 1, d - first):
            yield _multi_index((first,) + rest)


def multi_indices_of_degree_within(bound: MultiIndex, d: int) -> Iterator[MultiIndex]:
    """The K <= bound with |K| = d, in multi_indices_of_degree order."""
    if not bound:
        if d == 0:
            yield _multi_index(())
        return
    if len(bound) == 1:
        if d <= bound[0]:
            yield _multi_index((d,))
        return
    for first in range(min(d, bound[0]), -1, -1):
        for rest in multi_indices_of_degree_within(bound[1:], d - first):
            yield _multi_index((first,) + rest)


def multi_indices_up_to_degree(n: int, d: int) -> Iterator[MultiIndex]:
    if n < 0:
        raise ValueError("multiindex dimension must be nonnegative")
    for total in range(d + 1):
        yield from multi_indices_of_degree(n, total)


class ExtendedNonNeg:
    """Nonnegative rational extended with infinity: the upper end of a
    seminorms.Bracket.

    Convention: 0 * inf = 0 (an absent contribution stays absent no matter
    how large the weight); inf absorbs under addition and under products
    with nonzero values.
    """

    __slots__ = ("value", "infinite")

    def __init__(self, value: Fraction, infinite: bool = False):
        _set(self, "value", value)
        _set(self, "infinite", infinite)

    __setattr__ = __delattr__ = _refuse_assignment

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ExtendedNonNeg:
            return NotImplemented
        return self.value == other.value and self.infinite == other.infinite

    def __hash__(self) -> int:
        return hash((self.value, self.infinite))

    def __reduce__(self):
        return ExtendedNonNeg, (self.value, self.infinite)

    @staticmethod
    def of(value: RationalLike) -> "ExtendedNonNeg":
        v = Fraction(value)
        if v < 0:
            raise ValueError("extended nonnegative value must be >= 0")
        return ExtendedNonNeg(v)

    @staticmethod
    def infinity() -> "ExtendedNonNeg":
        return ExtendedNonNeg(Fraction(0), True)

    def __add__(self, other: "ExtendedNonNeg | RationalLike") -> "ExtendedNonNeg":
        o = other if isinstance(other, ExtendedNonNeg) else ExtendedNonNeg.of(other)
        if self.infinite or o.infinite:
            return ExtendedNonNeg.infinity()
        return ExtendedNonNeg(self.value + o.value)

    def __mul__(self, other: "ExtendedNonNeg | RationalLike") -> "ExtendedNonNeg":
        o = other if isinstance(other, ExtendedNonNeg) else ExtendedNonNeg.of(other)
        if self.is_zero() or o.is_zero():
            return ExtendedNonNeg(Fraction(0))
        if self.infinite or o.infinite:
            return ExtendedNonNeg.infinity()
        return ExtendedNonNeg(self.value * o.value)

    def is_zero(self) -> bool:
        return not self.infinite and self.value == 0

    def __repr__(self) -> str:
        return "ExtendedNonNeg(inf)" if self.infinite else f"ExtendedNonNeg({self.value!s})"


# --- exact finite sums of square roots ------------------------------------

# (limit sieved, the primes up to it); the largest prime below a limit is
# usually smaller than the limit, so the cache is keyed on the limit itself
_SIEVED: tuple[int, list[int]] = (-1, [])


def _primes_up_to(limit: int) -> list[int]:
    """Every prime up to at least limit, as one shared list: the table of the
    largest limit sieved so far."""
    global _SIEVED
    if _SIEVED[0] >= limit:
        return _SIEVED[1]
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    _SIEVED = (limit, [i for i, flag in enumerate(sieve) if flag])
    return _SIEVED[1]


_TRIAL_BOUND = 100_000


def square_free_split(n: int) -> tuple[int, int]:
    """Write n = s^2 * r with r squarefree; returns (s, r). n must be >= 1.

    Trial division runs over a fixed small-prime table, so arbitrarily large
    smooth inputs (factorial products in particular) reduce quickly.  A
    leftover cofactor with only huge prime factors is classified by size; the
    rare undecidable case raises rather than guessing."""
    if n < 1:
        raise ValueError("need a positive integer")
    root = math.isqrt(n)
    if root * root == n:
        s2, r2 = (1, 1) if root == 1 else square_free_split(root)
        # n = root^2 = (s2^2 r2)^2, and r2^2 folds into the square part
        return s2 * s2 * r2, 1
    s, r = 1, 1
    for p in _primes_up_to(_TRIAL_BOUND):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                r *= p
    if n > 1:
        # every prime factor of the cofactor exceeds _TRIAL_BOUND
        root = math.isqrt(n)
        if root * root == n:
            # root's factors also exceed the bound; squarefree if below bound^2
            if root > _TRIAL_BOUND**2:
                raise ValueError(f"cannot certify square part of cofactor {n}")
            s *= root
        elif n <= _TRIAL_BOUND**3:
            # at most two large prime factors and not a square: squarefree
            r *= n
        else:
            raise ValueError(f"cannot certify squarefree part of cofactor {n}")
    return s, r


class RootSum:
    """Exact finite sum sum_r c_r * sqrt(r) over squarefree positive radicands.

    Closed under addition and multiplication (radicand products reduce with a
    gcd, no factorization needed after construction).  Equality is structural,
    which is valid because square roots of distinct squarefree integers are
    linearly independent over the rationals.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        for r, c in (terms or {}).items():
            if c != 0:
                clean[r] = Fraction(c)
        self.terms = clean

    @staticmethod
    def rational(q: RationalLike) -> "RootSum":
        return RootSum({1: Fraction(q)})

    @staticmethod
    def sqrt_rational(q: RationalLike) -> "RootSum":
        """Exact representation of sqrt(q) for q >= 0."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("sqrt of negative rational")
        if q == 0:
            return RootSum({})
        s, r = square_free_split(q.numerator * q.denominator)
        # sqrt(p/d) = sqrt(p d)/d = s sqrt(r)/d
        return RootSum({r: Fraction(s, q.denominator)})

    def __add__(self, other: "RootSum | RationalLike") -> "RootSum":
        o = other if isinstance(other, RootSum) else RootSum.rational(other)
        out = dict(self.terms)
        for r, c in o.terms.items():
            out[r] = out.get(r, Fraction(0)) + c
        return RootSum(out)

    __radd__ = __add__

    def __neg__(self) -> "RootSum":
        return RootSum({r: -c for r, c in self.terms.items()})

    def __sub__(self, other: "RootSum | RationalLike") -> "RootSum":
        o = other if isinstance(other, RootSum) else RootSum.rational(other)
        return self + (-o)

    def __mul__(self, other: "RootSum | RationalLike") -> "RootSum":
        o = other if isinstance(other, RootSum) else RootSum.rational(other)
        out: dict[int, Fraction] = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in o.terms.items():
                g = math.gcd(r1, r2)
                rad = (r1 // g) * (r2 // g)
                coeff = c1 * c2 * g
                out[rad] = out.get(rad, Fraction(0)) + coeff
        return RootSum(out)

    __rmul__ = __mul__

    def squared(self) -> "RootSum":
        return self * self

    def is_rational(self) -> bool:
        return all(r == 1 for r in self.terms)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational RootSum")
        return self.terms.get(1, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RootSum.rational(other)
        if not isinstance(other, RootSum):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def bracket(self, tol: Fraction = DEFAULT_TOL) -> tuple[Fraction, Fraction]:
        """Rational enclosure of the value (terms may have either sign)."""
        lo = hi = Fraction(0)
        k = max(1, len(self.terms))
        for r, c in self.terms.items():
            per_term = tol / (k * max(1, abs(c)))
            slo, shi = sqrt_bracket(Fraction(r), per_term)
            if c >= 0:
                lo += c * slo
                hi += c * shi
            else:
                lo += c * shi
                hi += c * slo
        return lo, hi

    def __repr__(self) -> str:
        if not self.terms:
            return "RootSum(0)"
        parts = [f"{c!s}*sqrt({r})" for r, c in sorted(self.terms.items())]
        return "RootSum(" + " + ".join(parts) + ")"
