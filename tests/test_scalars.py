import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from exactstar.scalars import (
    ExtendedNonNeg,
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    MultiIndex,
    RATIONAL_DIGIT_CAP,
    RootSum,
    accumulate,
    binomial,
    factorial,
    format_rational,
    gaussian_parts,
    is_allowed_hbar,
    multi_indices_of_degree,
    multi_indices_of_degree_within,
    multi_indices_up_to_degree,
    multi_range,
    parse_rational,
    settle,
    sqrt_bracket,
    square_free_split,
)

from oracles import multi_binomial, pochhammer

fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


def gr(a, b=0):
    return GaussianRational.of(Fraction(a), Fraction(b))


def test_gaussian_field_ops():
    x = gr(Fraction(1, 2), Fraction(3, 4))
    y = gr(-2, Fraction(1, 3))
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert x * y == y * x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.abs_squared() == Fraction(1, 4) + Fraction(9, 16)
    assert GR_I * GR_I == -GR_ONE


def test_gaussian_pow_and_json():
    x = gr(Fraction(3, 5), Fraction(4, 5))
    assert x**4 == x * x * x * x
    assert x**-2 == GR_ONE / (x * x)
    assert x**0 == GR_ONE
    assert GaussianRational.from_json(x.to_json()) == x
    assert GR_ZERO.is_zero() and not x.is_zero()


@given(fractions, fractions, fractions, fractions)
def test_gaussian_mul_matches_complex(a, b, c, d):
    x, y = gr(a, b), gr(c, d)
    z = x * y
    assert z.re == a * c - b * d
    assert z.im == a * d + b * c


reals = st.one_of(st.integers(-1000, 1000), fractions)


@given(fractions, fractions, st.one_of(reals, st.booleans()))
def test_gaussian_mul_by_real_scalar(a, b, q):
    x = gr(a, b)
    want = x * GaussianRational.coerce(q)
    for z in (x * q, q * x):
        assert z == want
        assert type(z.re) is Fraction and type(z.im) is Fraction


@given(st.lists(st.tuples(st.integers(0, 3), st.builds(gr, fractions, fractions), reals),
                max_size=12),
       st.booleans())
def test_accumulate_matches_gaussian_sums(triples, cancel):
    if cancel:
        triples = triples + [(key, -z, q) for key, z, q in triples]
    acc, want = {}, {}
    for key, z, q in triples:
        accumulate(acc, key, gaussian_parts(z), q)
        want[key] = want.get(key, GR_ZERO) + z * GaussianRational.coerce(q)
    got = settle(acc)
    assert got == want and list(got) == list(want)
    assert all(type(c.re) is Fraction and type(c.im) is Fraction for c in got.values())
    if cancel:
        assert all(c.is_zero() for c in got.values())


def test_multiindex_basics():
    a = MultiIndex((2, 0, 1))
    b = MultiIndex((1, 1, 0))
    assert a + b == MultiIndex((3, 1, 1))
    assert a.minus(MultiIndex((1, 0, 0))) == MultiIndex((1, 0, 1))
    assert a.minus(b) is None
    assert a.meet(b) == MultiIndex((1, 0, 0))
    assert MultiIndex((1, 0, 1)) <= a
    assert not (b <= a)
    assert a.degree() == 3
    assert a.factorial() == 2
    assert MultiIndex.zero(3) == MultiIndex((0, 0, 0))
    assert MultiIndex.unit(3, 1) == MultiIndex((0, 1, 0))


def test_multiindex_rejects_non_integer_entries():
    for bad in ((1.5,), (True,), ("1",), (-1,), "12"):
        with pytest.raises(ValueError):
            MultiIndex(bad)
    a = MultiIndex((2, 0))
    assert MultiIndex(a) is a
    assert type(a + a) is MultiIndex and type(a.meet(a)) is MultiIndex
    assert all(type(K) is MultiIndex for K in multi_range(a))


def test_multi_indices_of_degree_within():
    for bound in (MultiIndex(()), MultiIndex((2,)), MultiIndex((2, 0, 1)), MultiIndex((1, 3))):
        for d in range(6):
            want = [K for K in multi_indices_of_degree(len(bound), d) if K <= bound]
            assert list(multi_indices_of_degree_within(bound, d)) == want


def test_index_generators_reject_negative_dimension_and_degree():
    # a negative dimension is an error, not an endless recursion
    for gen in (multi_indices_of_degree, multi_indices_up_to_degree):
        with pytest.raises(ValueError):
            list(gen(-1, 2))
    # a negative degree has no multiindex in any dimension
    for n in range(4):
        assert list(multi_indices_of_degree(n, -2)) == []
        assert list(multi_indices_up_to_degree(n, -2)) == []


def test_combinatorial_helpers():
    assert binomial(5, 2) == 10
    assert binomial(3, 5) == 0 and binomial(3, -1) == 0
    assert factorial(6) == 720
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert pochhammer(Fraction(7), 0) == 1
    assert pochhammer(Fraction(-5, 3), 0) == 1 and pochhammer(0, 0) == 1
    assert pochhammer(3, 4) == 360 and type(pochhammer(3, 4)) is Fraction
    assert pochhammer(Fraction(-3, 2), 3) == Fraction(-3, 2) * Fraction(-1, 2) * Fraction(1, 2)
    assert pochhammer(Fraction(-2), 4) == 0 and pochhammer(-2, 2) == 2
    assert pochhammer(0, 3) == 0
    with pytest.raises(ValueError):
        pochhammer(Fraction(1, 2), -1)
    assert multi_binomial(MultiIndex((3, 2)), MultiIndex((1, 2))) == 3
    assert multi_binomial(MultiIndex((1, 0)), MultiIndex((2, 0))) == 0


def test_index_enumerations():
    assert len(list(multi_range(MultiIndex((2, 1))))) == 6
    assert len(list(multi_indices_of_degree(2, 3))) == 4
    ups = list(multi_indices_up_to_degree(2, 3))
    assert len(ups) == 10
    assert len(set(ups)) == 10


def test_allowed_hbar():
    for good in (Fraction(1, 2), Fraction(2), Fraction(-1, 3), Fraction(1, 8)):
        assert is_allowed_hbar(good)
    for bad in (Fraction(0), Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 6)):
        assert not is_allowed_hbar(bad)


def test_rational_strings():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert format_rational(Fraction(5, 3)) == "5/3"
    assert parse_rational(format_rational(Fraction(-7, 11))) == Fraction(-7, 11)
    with pytest.raises(ValueError):
        parse_rational("one half")


def test_parse_rational_only_p_over_q():
    assert parse_rational(" +12/8 ") == Fraction(3, 2)
    for bad in ("1e999999", "0.5", ".5", "1_000", "1/-2", "inf", "nan", "", 5, None):
        with pytest.raises(ValueError):
            parse_rational(bad)
    cap = RATIONAL_DIGIT_CAP
    assert parse_rational("9" * cap + "/" + "7" * cap) == Fraction(int("9" * cap), int("7" * cap))
    for bad in ("1" * (cap + 1), "1/" + "1" * (cap + 1)):
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**3))
def test_sqrt_bracket_encloses(q):
    lo, hi = sqrt_bracket(q, Fraction(1, 10**9))
    assert lo * lo <= q <= hi * hi
    assert hi - lo <= Fraction(1, 10**8)


def _sqrt_bracket_by_loop(q, tol):
    """sqrt_bracket with its scale found one bit at a time: the reference for
    the bit-length scale."""
    q = Fraction(q)
    if q == 0:
        return Fraction(0), Fraction(0)
    p, d = q.numerator, q.denominator
    s = 0
    while Fraction(1, d << s) > tol:
        s += 1
    scale = 1 << s
    r = math.isqrt(p * d * scale * scale)
    lo = Fraction(r, d * scale)
    hi = Fraction(r + 1, d * scale) if r * r != p * d * scale * scale else lo
    return lo, hi


def test_sqrt_bracket_scale_matches_bit_loop():
    rng = random.Random(4243)
    qs = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 3), Fraction(10**30 + 1, 7),
          Fraction(5, 10**80 + 3), Fraction(rng.randrange(1, 10**50), 3**120)]
    qs += [Fraction(rng.randrange(0, 10**6), rng.randrange(1, 10**4)) for _ in range(40)]
    tols = [Fraction(1, 10**12), Fraction(1, 10**4), Fraction(3, 7), Fraction(2, 3),
            Fraction(1, 2**20), Fraction(1, 3 * 2**40), Fraction(1), Fraction(5),
            Fraction(10**30, 3), Fraction(1, 10**90)]
    tols += [Fraction(rng.randrange(1, 10**3), rng.randrange(1, 10**15)) for _ in range(10)]
    for q in qs:
        # 1/tol = d 2^7 exactly: the least scale meets tol with equality
        for tol in tols + [Fraction(1, q.denominator << 7)]:
            assert sqrt_bracket(q, tol) == _sqrt_bracket_by_loop(q, tol), (q, tol)


def test_extended_nonneg():
    zero, two = ExtendedNonNeg.of(0), ExtendedNonNeg.of(Fraction(2))
    inf = ExtendedNonNeg.infinity()
    assert (two + inf).infinite
    assert (zero * inf) == zero
    assert (two * inf).infinite
    assert two * two == ExtendedNonNeg.of(Fraction(4))
    # a Bracket's upper end takes a rational tail or factor as it is
    assert two + Fraction(1, 2) == ExtendedNonNeg.of(Fraction(5, 2))
    assert two * 3 == ExtendedNonNeg.of(6)
    assert zero.is_zero() and not two.is_zero() and not inf.is_zero()
    with pytest.raises(ValueError):
        ExtendedNonNeg.of(-1)


@pytest.mark.parametrize("make, other", [
    (lambda: gr(Fraction(1, 3), -2), lambda: ExtendedNonNeg(Fraction(1, 3))),
    (lambda: ExtendedNonNeg(Fraction(5, 2)), lambda: gr(Fraction(5, 2))),
    (lambda: ExtendedNonNeg.infinity(), lambda: (Fraction(0), True)),
], ids=["GaussianRational", "ExtendedNonNeg", "infinity"])
def test_value_classes_immutable_and_same_class_equal(make, other):
    import copy
    import pickle

    x = make()
    assert x == make() and hash(x) == hash(make())
    assert x != other() and not (x == other())
    for name in x.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, Fraction(0))
        if name != "extra":
            with pytest.raises(AttributeError):
                delattr(x, name)
    assert not hasattr(x, "__dict__")
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert clone == x and type(clone) is type(x) and repr(clone) == repr(x)
    # hash and repr as the frozen dataclasses these classes replaced gave them
    fields = tuple(getattr(x, name) for name in x.__slots__)
    assert hash(x) == hash(fields)
    assert repr(gr(Fraction(1, 3), -2)) == "GaussianRational(1/3, -2)"
    assert repr(ExtendedNonNeg(Fraction(5, 2))) == "ExtendedNonNeg(5/2)"
    assert repr(ExtendedNonNeg.infinity()) == "ExtendedNonNeg(inf)"


def test_rootsum_arithmetic():
    r = RootSum.sqrt_rational(Fraction(2))
    s = RootSum.sqrt_rational(Fraction(8))
    # sqrt 8 = 2 sqrt 2, so r + s = 3 sqrt 2 = sqrt 18 and r * s = 4
    assert r + s == RootSum.sqrt_rational(Fraction(18))
    prod = r * s
    assert prod.is_rational() and prod.rational_value() == 4
    total = r + s
    lo, hi = total.bracket(Fraction(1, 10**9))
    assert lo <= hi and hi - lo < Fraction(1, 10**6)
    mid = (lo + hi) / 2
    assert abs(float(mid) - 3 * math.sqrt(2)) < 1e-6
    assert (r - r).is_rational() and (r - r).rational_value() == 0


def test_square_free_split():
    assert square_free_split(1) == (1, 1)
    assert square_free_split(16) == (4, 1)
    assert square_free_split(12) == (2, 3)
    assert square_free_split(45) == (3, 5)
    f15 = factorial(15)
    assert square_free_split(f15 * f15) == (f15, 1)
    s, r = square_free_split(f15)
    assert s * s * r == f15
    for k in range(1, 60):
        s, r = square_free_split(k)
        assert s * s * r == k


def test_prime_table_sieved_once():
    import sympy

    from exactstar import scalars

    table = scalars._primes_up_to(scalars._TRIAL_BOUND)
    assert table == list(sympy.primerange(2, scalars._TRIAL_BOUND + 1))
    # the largest prime below the bound is 99,991, so the cache must be keyed
    # on the limit sieved, not on its last entry
    assert table[-1] == 99_991
    assert scalars._primes_up_to(scalars._TRIAL_BOUND) is table
    assert scalars._primes_up_to(1000) is table
    # square_free_split reads the cached table (test_square_free_split pins
    # its small values); here a squared prime past the bound, and a cofactor
    # of two such primes
    assert square_free_split(100_003**2 * 12) == (2 * 100_003, 3)
    assert square_free_split(100_003 * 100_019 * 9) == (3, 100_003 * 100_019)
    assert scalars._primes_up_to(scalars._TRIAL_BOUND) is table
