from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactstar.algebra import DEFAULT_TOL, DomainError, Element, Index, from_pairs, multiply
from exactstar.models import get_model
from exactstar.scalars import ExtendedNonNeg, GaussianRational, RootSum
from exactstar.seminorms import (
    Bracket,
    HTable,
    HVal,
    OmegaWeights,
    UnresolvedError,
    check_product_inequality,
    hval_product,
    omega_h,
    present,
    rootsum_bracket,
    rootsum_sign,
)

from laws import comparison_constant, growth_classify, seminorm_max_ell
from oracles import e_minus_one_decimal, random_gr, seeded

fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
nonneg_fracs = st.fractions(min_value=0, max_value=4, max_denominator=6)


def _contains(b: Bracket, q: Fraction) -> bool:
    if q < b.lo:
        return False
    return b.hi.infinite or q <= b.hi.value


def _table_weights(weights: dict) -> OmegaWeights:
    """Finite explicit weight profile."""
    items = tuple((i, Fraction(w)) for i, w in weights.items())
    if any(w < 0 for _, w in items):
        raise ValueError("weights must be nonnegative")
    return OmegaWeights("table", items)


def test_bracket_constructors_and_tags():
    b = Bracket.exact(Fraction(3, 2))
    assert b.is_exact() and b.finite_certified() and not b.is_divergent()
    assert b.lo == b.hi.value == Fraction(3, 2)
    assert b.hi.value - b.lo == 0

    d = Bracket.divergent(Fraction(7), depth=3)
    assert d.is_divergent() and not d.finite_certified()
    assert d.lo == 7 and d.midpoint_float() == float("inf")

    t = Bracket.truncated(Fraction(1), depth=5)
    assert not t.is_divergent() and not t.finite_certified()
    assert t.midpoint_float() == 1.0

    huge = Fraction(10**400)
    assert Bracket.exact(huge).midpoint_float() == float("inf")
    assert Bracket.truncated(huge, depth=1).midpoint_float() == float("inf")

    e = Bracket.enclosure(Fraction(2), Fraction(2))
    assert e.is_exact()

    with pytest.raises(ValueError):
        Bracket.exact(Fraction(-1))
    with pytest.raises(ValueError):
        Bracket(Fraction(2), ExtendedNonNeg.of(Fraction(1)))


def test_bracket_contains_and_zero():
    b = Bracket.enclosure(Fraction(1, 3), Fraction(1, 2))
    assert _contains(b, Fraction(2, 5))
    assert not _contains(b, Fraction(1, 4))
    assert not _contains(b, Fraction(3, 5))
    assert _contains(Bracket.truncated(Fraction(1), 1), Fraction(10**9))
    assert Bracket.exact(0).is_zero()
    assert not Bracket.enclosure(Fraction(0), Fraction(1)).is_zero()


@given(
    lo1=nonneg_fracs, w1=nonneg_fracs, lo2=nonneg_fracs, w2=nonneg_fracs,
    t1=st.fractions(min_value=0, max_value=1, max_denominator=7),
    t2=st.fractions(min_value=0, max_value=1, max_denominator=7),
    s=nonneg_fracs,
)
def test_bracket_arithmetic_encloses(lo1, w1, lo2, w2, t1, t2, s):
    b1 = Bracket.enclosure(lo1, lo1 + w1)
    b2 = Bracket.enclosure(lo2, lo2 + w2)
    x = lo1 + t1 * w1
    y = lo2 + t2 * w2
    assert _contains(b1 + b2, x + y)
    assert _contains(b1 * b2, x * y)
    assert _contains(b1.scale(s), x * s)


def test_bracket_root_interval():
    lo, hi = Bracket.exact(16).root_interval(1)
    assert lo == 4 and hi.value == 4
    lo, hi = Bracket.exact(16).root_interval(2)
    assert lo == 2 and hi.value == 2
    lo, hi = Bracket.exact(2).root_interval(1)
    assert lo * lo <= 2 <= hi.value * hi.value
    assert hi.value - lo < Fraction(1, 10**10)
    lo, hi = Bracket.truncated(Fraction(9), 1).root_interval(1)
    assert lo == 3 and hi.infinite


def test_hval_kinds_and_exact_rational():
    assert HVal.exact(Fraction(5, 3)).exact_rational() == Fraction(5, 3)
    assert HVal.modulus_sq(Fraction(9, 4)).exact_rational() == Fraction(3, 2)
    assert HVal.modulus_sq(Fraction(2)).exact_rational() is None
    # a square past the float range whose root is not
    assert 1.414e200 < HVal.modulus_sq(Fraction(2 * 10**400)).to_float() < 1.415e200
    assert "~inf" in repr(HVal.exact(Fraction(10**400)))
    assert HVal.root(RootSum.rational(Fraction(4))).kind == "exact"
    rs = RootSum.sqrt_rational(Fraction(2))
    assert HVal.root(rs).exact_rational() is None
    assert HVal.zero().is_zero() and HVal.infinite().is_infinite()
    # 0 * inf = 0: an absent contribution stays absent
    assert HVal.infinite().times(Fraction(0)).is_zero()
    assert hval_product(HVal.infinite(), HVal.zero()).is_zero()
    with pytest.raises(ValueError):
        HVal.exact(-1)
    assert HVal.exact(2).exact_string() == "2"
    assert HVal.infinite().exact_string() == "inf"
    assert HVal.root(rs).exact_string() == ""


def test_hval_squared_times_plus():
    s = HVal.modulus_sq(Fraction(2))          # sqrt 2
    assert s.squared().exact_rational() == 2
    assert s.times(Fraction(3)).squared().exact_rational() == 18
    assert s.plus(s).squared().exact_rational() == 8
    mix = HVal.exact(Fraction(1)).plus(s)     # 1 + sqrt 2, a root sum
    assert mix.kind == "root"
    assert mix.exact_rational() is None
    br = mix.to_bracket()
    assert _contains(br, Fraction(24142, 10**4)) is False  # just above
    assert br.lo < Fraction(24143, 10**4)
    # infinity absorbs, except against zero weight
    assert HVal.infinite().plus(HVal.exact(1)).is_infinite()
    assert HVal.infinite().times(Fraction(0)).is_zero()


def test_hval_product():
    s2 = HVal.modulus_sq(Fraction(2))
    s8 = HVal.modulus_sq(Fraction(8))
    assert hval_product(s2, s8).exact_rational() == 4
    assert hval_product(HVal.zero(), HVal.infinite()).is_zero()
    assert hval_product(HVal.infinite(), HVal.exact(3)).is_infinite()
    b = HVal.bracket(Bracket.enclosure(Fraction(1), Fraction(2)))
    out = hval_product(b, HVal.exact(3))
    assert out.kind == "bracket"
    assert _contains(out.to_bracket(), Fraction(4))


def test_rootsum_sign_and_bracket():
    rs = RootSum.sqrt_rational(Fraction(2)) + RootSum.rational(Fraction(-3, 2))
    assert rootsum_sign(rs) == -1
    assert rootsum_sign(RootSum.sqrt_rational(Fraction(2)) + RootSum.rational(Fraction(-1))) == 1
    assert rootsum_sign(RootSum.rational(Fraction(0))) == 0
    assert rootsum_bracket(RootSum.rational(Fraction(7, 2))).is_exact()
    with pytest.raises(ValueError):
        rootsum_bracket(RootSum.rational(Fraction(-1)))


_INF = HVal.infinite()


@pytest.mark.parametrize("op", [
    lambda: _INF,
    lambda: _INF.squared(),
    lambda: _INF.times(Fraction(3, 2)),
    lambda: _INF.times(RootSum.sqrt_rational(Fraction(2))),
    lambda: _INF.plus(HVal.exact(Fraction(5, 3))),
    lambda: HVal.modulus_sq(Fraction(2)).plus(_INF),
    lambda: _INF.plus(HVal.bracket(Bracket.enclosure(Fraction(1), Fraction(2), depth=4))),
    lambda: hval_product(_INF, HVal.root(RootSum.sqrt_rational(Fraction(3)))),
    lambda: hval_product(HVal.exact(2), _INF),
], ids=["infinite", "squared", "times-fraction", "times-irrational-rootsum", "plus-exact",
        "sqrt-plus", "plus-bracket", "product-root", "product-exact"])
def test_infinite_cell_stays_the_divergent_bracket(op):
    v = op()
    assert v.is_infinite() and not v.is_zero()
    assert v.exact_rational() is None
    assert v.to_bracket() == Bracket.divergent()
    assert v.exact_string() == "inf"
    assert v.to_float() == float("inf")


def check_triangle_inequality(
    model,
    a: Element,
    b: Element,
    m: int,
    ell: int,
    gamma: Index,
    tol: Fraction = Fraction(1, 10**30),
) -> bool:
    """(h(a+b))^(1/2^m) <= h(a)^(1/2^m) + h(b)^(1/2^m) by certified enclosures.

    Refines the interval evaluation until the comparison resolves; exact
    equality cases (zero summands, equal supports) resolve structurally.
    Raises UnresolvedError when six refinements leave the sides overlapping,
    or when a side needed for the comparison is a truncated bracket."""
    table_ab = HTable(model, a + b, tol)
    ha = HTable(model, a, tol).h(m, ell, gamma)
    hb = HTable(model, b, tol).h(m, ell, gamma)
    hab = table_ab.h(m, ell, gamma)
    if hab.is_zero():
        return True
    if ha.is_infinite() or hb.is_infinite():
        return True
    if hab.is_infinite():
        return False
    neg = RootSum.rational(Fraction(-1))
    if m == 0 and all(v.kind in ("exact", "sqrt", "root") for v in (hab, ha, hb)):
        d = hab._as_rootsum() + ha._as_rootsum() * neg + hb._as_rootsum() * neg
        return rootsum_sign(d) <= 0
    qab, qa, qb = hab.exact_rational(), ha.exact_rational(), hb.exact_rational()
    if None not in (qab, qa, qb):
        x, y, z = qab, qa, qb
        if m == 0:
            return x <= y + z
        if x <= y + z:
            # t^(1/2^m) is subadditive, so this already settles it
            return True
        if m == 1:
            # sqrt(x) <= sqrt(y) + sqrt(z): square once, isolate the cross term
            return (x - y - z) ** 2 <= 4 * y * z
        if m == 2:
            # fourth roots: two exact squarings through sums of square roots,
            # so equality cases (proportional summands) resolve structurally
            d1 = (
                RootSum.sqrt_rational(x)
                + RootSum.sqrt_rational(y) * neg
                + RootSum.sqrt_rational(z) * neg
            )
            if rootsum_sign(d1) <= 0:
                return True
            d2 = d1 * d1 + RootSum.sqrt_rational(y * z) * RootSum.rational(Fraction(-4))
            return rootsum_sign(d2) <= 0
    cur = tol
    for _ in range(6):
        la, ra = ha.to_bracket(cur).root_interval(m, cur)
        lb_, rb_ = hb.to_bracket(cur).root_interval(m, cur)
        lab, rab = hab.to_bracket(cur).root_interval(m, cur)
        if not rab.infinite and rab.value <= la + lb_:
            return True
        if not (ra.infinite or rb_.infinite) and lab > ra.value + rb_.value:
            return False
        if rab.infinite or ra.infinite or rb_.infinite:
            # a truncated side has no upper bound at any tol
            raise UnresolvedError("triangle comparison did not resolve; a side has no upper bound")
        cur = cur * cur
    raise UnresolvedError("triangle comparison did not resolve; sides too close")


def test_unresolved_comparison_is_typed(monkeypatch):
    # enclosures that never narrow: the refinement loop gives up with the
    # documented error instead of a bare RuntimeError
    assert issubclass(UnresolvedError, RuntimeError)
    monkeypatch.setattr(Bracket, "root_interval",
                        lambda self, m, tol: (Fraction(0), ExtendedNonNeg.of(Fraction(1))))
    model = get_model("laurent:factorial")
    with pytest.raises(UnresolvedError, match="did not resolve"):
        check_triangle_inequality(model, from_pairs([(0, 1)]), from_pairs([(1, 1)]), 2, 0, 0)


def test_truncated_bracket_reads_as_lower_bound():
    # the partial sum of a truncated bracket is its lower end, and its repr
    # says so; finite and divergent values keep the ~ mark
    table = HTable(get_model("laurent:factorial"), from_pairs([(0, 1), (1, 1)]))
    cell = table.h(3, 0, 0)
    assert cell.kind == "bracket" and cell.br.hi.infinite and not cell.br.is_divergent()
    assert cell.to_float() == cell.br.midpoint_float() == float(cell.br.lo)
    assert repr(cell) == "HVal(bracket, >=963.281)"
    assert repr(table.h(2, 0, 0)) == "HVal(bracket, ~13.4809)"
    assert repr(HVal.infinite()) == "HVal(bracket, ~inf)"


def test_h_poly_pinned_values():
    m = get_model("poly:monomial")
    ta = HTable(m, from_pairs([(0, 1), (1, 2)]))  # 1 + 2z
    assert ta.h(0, 0, 1).exact_rational() == 2
    assert [ta.h(1, 0, g).exact_rational() for g in range(4)] == [1, 5, 5, 5]
    assert ta.h(2, 0, 1).exact_rational() == 26
    assert ta.h(2, 1, 1).exact_rational() == 26
    tb = HTable(m, from_pairs([(0, 1), (1, 1)]))  # 1 + z
    assert [tb.h(1, 0, g).exact_rational() for g in range(3)] == [1, 2, 2]
    tf = HTable(get_model("poly:factorial"), ta.element)
    assert [tf.h(1, 0, g).exact_rational() for g in range(4)] == [1, 5, 9, 13]


def test_h_table_input_validation():
    m = get_model("poly:monomial")
    t = HTable(m, from_pairs([(0, 1)]))
    with pytest.raises(ValueError):
        t.h(-1, 0, 0)
    with pytest.raises(ValueError):
        t.h(1, 2, 0)  # branch word must sit below 2^m


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_homogeneity_exact(data):
    rng = seeded(data.draw(st.integers(0, 10**6)))
    model = get_model("poly:monomial")
    pairs = [(k, random_gr(rng)) for k in rng.sample(range(6), 3)]
    a = from_pairs(pairs)
    c = random_gr(rng)
    q = c.abs_squared()
    ta, tca = HTable(model, a), HTable(model, a.scale(c))
    for m in (1, 2):
        for g in range(4):
            lhs = tca.h(m, 0, g).exact_rational()
            rhs = q ** (2 ** (m - 1)) * ta.h(m, 0, g).exact_rational()
            assert lhs == rhs


def test_homogeneity_unit_modulus():
    # (3+4i)/5 lies on the unit circle, so every h value is untouched
    model = get_model("poly:monomial")
    a = from_pairs([(0, Fraction(1, 3)), (2, GaussianRational.of(1, 1))])
    c = GaussianRational.of(Fraction(3, 5), Fraction(4, 5))
    assert c.abs_squared() == 1
    ta, tca = HTable(model, a), HTable(model, a.scale(c))
    for m in (0, 1, 2):
        for g in range(4):
            assert tca.h(m, 0, g).to_bracket() == ta.h(m, 0, g).to_bracket()


class _BranchWordView:
    """A model with commutative = False and everything else delegated, so an
    HTable over it computes every branch word on its own."""

    commutative = False

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)


def _cell_record(v, tol):
    br = v.to_bracket(tol)
    return (v.kind, v.exact_rational(), br.lo, br.hi, br.depth, br.tail_source)


def test_branch_word_independence_commutative():
    # the table of a commutative model keeps one cell per (m, gamma); every
    # branch word must equal the cell an HTable over the non-commutative view
    # computes for that word through its own row or column weights.  A coarse
    # tolerance keeps the m = 3 group windows quick (~80 depth-2 parents per
    # branch); both tables use it.
    tol = Fraction(1, 10**4)
    gi = GaussianRational.of(1, 1)
    half = Fraction(1, 2)
    cases = [
        ("poly:monomial", {}, from_pairs([(0, 1), (1, GaussianRational.of(0, 2)), (3, -1)]),
         (0, 2, 4)),
        ("poly:factorial", {}, from_pairs([(0, 1), (2, half)]), (0, 2, 3)),
        ("laurent:factorial", {}, from_pairs([(-2, 1), (1, gi)]), (-1, 0, 2)),
        ("group:Z", {}, from_pairs([(0, 1), (1, gi), (-2, half)]), (-1, 0, 2)),
        ("group:Z", {"epsilon": half}, from_pairs([(0, 1), (-1, gi)]), (-1, 0, 1)),
        ("group:Zd:2", {}, from_pairs([((0, 0), 1), ((1, 0), gi), ((0, -1), half)]),
         ((0, 0), (1, 0), (1, -1))),
    ]
    for name, kw, a, targets in cases:
        model = get_model(name, **kw)
        assert model.commutative
        table = HTable(model, a, tol)
        ref = HTable(_BranchWordView(get_model(name, **kw)), a, tol)
        for m in range(4):
            for g in targets:
                for ell in range(1 << m):
                    got = _cell_record(table.h(m, ell, g), tol)
                    want = _cell_record(ref.h(m, ell, g), tol)
                    assert got == want, (name, kw, m, ell, g)
        assert {ell for _, ell, _ in table._cells} == {0}
        assert {ell for m, ell, _ in ref._cells if m == 3} == set(range(8))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_monotone_in_added_terms(data):
    # appending a fresh monomial can only push h values up
    rng = seeded(data.draw(st.integers(0, 10**6)))
    model = get_model("poly:monomial")
    a = from_pairs([(k, random_gr(rng)) for k in (0, 2)])
    extra = from_pairs([(5, random_gr(rng))])
    ta, tboth = HTable(model, a), HTable(model, a + extra)
    for m in (1, 2):
        for g in range(4):
            assert tboth.h(m, 0, g).exact_rational() >= ta.h(m, 0, g).exact_rational()


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_triangle_inequality_poly(data):
    rng = seeded(data.draw(st.integers(0, 10**6)))
    model = get_model("poly:monomial")
    a = from_pairs([(k, random_gr(rng)) for k in rng.sample(range(5), 2)])
    b = from_pairs([(k, random_gr(rng)) for k in rng.sample(range(5), 2)])
    for m in (0, 1, 2):
        assert check_triangle_inequality(model, a, b, m, 0, 1)
        assert check_triangle_inequality(model, a, b, m, 0, 3)


def test_triangle_inequality_root_weights():
    model = get_model("group:Z", epsilon=Fraction(1, 2))
    a = from_pairs([(0, 1), (2, GaussianRational.of(0, 1))])
    b = from_pairs([(-1, Fraction(1, 2)), (2, 1)])
    for m in (0, 1, 2):
        assert check_triangle_inequality(model, a, b, m, 0, 1)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_product_inequality_poly_exact(data):
    rng = seeded(data.draw(st.integers(0, 10**6)))
    model = get_model("poly:monomial")
    a = from_pairs([(k, random_gr(rng)) for k in rng.sample(range(4), 2)])
    b = from_pairs([(k, random_gr(rng)) for k in rng.sample(range(4), 2)])
    for m in (0, 1):
        for g in range(5):
            out = check_product_inequality(model, a, b, m, 0, g)
            assert out["holds"] is True
            assert out["mode"] in ("exact", "root-sum-exact", "right-side-infinite")


def test_product_inequality_divergent_right_side():
    model = get_model("laurent:plain")
    a = from_pairs([(0, 1), (1, 1)])
    out = check_product_inequality(model, a, a, 1, 0, 0)
    assert out["holds"] is True
    assert out["mode"] == "right-side-infinite"


def test_product_inequality_group_weights():
    model = get_model("group:Z", epsilon=Fraction(1))
    a = from_pairs([(0, 1), (1, 1)])
    b = from_pairs([(1, 1), (-2, GaussianRational.of(1, 1))])
    for g in (-1, 0, 1, 3):
        out = check_product_inequality(model, a, b, 1, 0, g)
        assert out["holds"] is True


def test_triangle_truncated_side_is_unresolved():
    # h(e_0 + e_1) at m = 3 is a truncated bracket: no upper bound, no verdict
    model = get_model("laurent:factorial")
    a, b = from_pairs([(0, 1)]), from_pairs([(1, 1)])
    with pytest.raises(UnresolvedError, match="no upper bound"):
        check_triangle_inequality(model, a, b, 3, 0, 0)


def test_triangle_equality_proportional():
    # b = 2a makes both sides equal at every level; must resolve, not loop
    model = get_model("poly:monomial")
    a = from_pairs([(0, 1), (3, GaussianRational.of(1, 1))])
    b = a.scale(2)
    for m in (0, 1, 2):
        assert check_triangle_inequality(model, a, b, m, 0, 3)


def test_seminorm_presentation():
    model = get_model("poly:monomial")
    a = from_pairs([(0, 1), (1, 2)])
    r = present(1, 0, 1, HTable(model, a).h(1, 0, 1), DEFAULT_TOL)
    assert r.h_bracket.is_exact() and r.h_bracket.lo == 5
    root_lo, root_hi = r.h_bracket.root_interval(1)
    assert root_lo**2 <= 5 <= root_hi.value**2
    assert abs(r.value_float - 5**0.5) < 1e-9
    assert not r.divergent

    plain, b = get_model("laurent:plain"), from_pairs([(0, 1), (2, 1)])
    div = present(2, 0, 0, HTable(plain, b).h(2, 0, 0), DEFAULT_TOL)
    assert div.divergent and div.value_float == float("inf")


def test_seminorm_max_ell_picks_largest():
    model = get_model("matrix:hat")
    a = from_pairs([((0, 1), 1), ((1, 0), 2)])
    best = seminorm_max_ell(model, a, 2, (0, 0))
    table = HTable(model, a)
    for ell in range(4):
        br = table.h(2, ell, (0, 0)).to_bracket()
        if br.finite_certified() and best.h_bracket.finite_certified():
            assert br.lo <= best.h_bracket.hi.value


def test_omega_coefficient_functional():
    model = get_model("poly:monomial")
    a = from_pairs([(0, 1), (1, 2)])
    br = omega_h(model, a, 0, 0, OmegaWeights.coefficient(1), 0)
    assert br.is_exact() and br.lo == 2
    br = omega_h(model, a, 1, 0, OmegaWeights.coefficient(1), 0)
    assert br.is_exact() and br.lo == 5


def test_omega_point_certified_tail():
    # geometric weights under the eventually constant h row: the certified
    # value is 1 + 5 * sum_{g>=1} 2^-g = 6
    model = get_model("poly:monomial")
    a = from_pairs([(0, 1), (1, 2)])
    br = omega_h(model, a, 1, 0, OmegaWeights.point(Fraction(1, 2)), 24)
    assert br.finite_certified() and not br.is_divergent()
    assert _contains(br, Fraction(6))
    assert br.hi.value - br.lo < Fraction(1, 10**6)

    brf = omega_h(get_model("poly:factorial"), a, 1, 0, OmegaWeights.point(Fraction(1, 2)), 4)
    assert brf.finite_certified()
    assert _contains(brf, Fraction(10))


def test_omega_point_divergence_witness():
    model = get_model("poly:monomial")
    a = from_pairs([(0, 1), (1, 2)])
    for radius in (Fraction(1), Fraction(3, 2)):
        br = omega_h(model, a, 1, 0, OmegaWeights.point(radius), 4)
        assert br.is_divergent()
        assert br.lo > 0


def test_omega_point_factorial_tames_radius():
    # factorial basis weights beat any fixed radius
    model = get_model("poly:monomial")
    a = from_pairs([(0, 1), (1, 2)])
    br = omega_h(model, a, 1, 0, OmegaWeights.point_factorial(Fraction(3)), 4)
    assert br.finite_certified()
    # 1 + 5(e^3 - 1), checked against a decimal window for e^3
    import decimal

    decimal.getcontext().prec = 40
    e3 = decimal.Decimal(3).exp()
    lo = Fraction(str(e3 - decimal.Decimal(10) ** -30)) * 5 - 4
    hi = Fraction(str(e3 + decimal.Decimal(10) ** -30)) * 5 - 4
    assert br.lo <= hi and lo <= br.hi.value


def test_omega_m_zero_is_weighted_modulus_sum():
    model = get_model("poly:monomial")
    a = from_pairs([(0, 3), (2, 4)])
    br = omega_h(model, a, 0, 0, OmegaWeights.point(Fraction(1, 2)), 0)
    assert br.is_exact()
    assert br.lo == 3 + Fraction(4, 4)


def test_omega_table_weights_validate():
    with pytest.raises(ValueError):
        _table_weights({0: Fraction(-1)})
    w = _table_weights({0: Fraction(1), 3: Fraction(2)})
    assert w.weight(0, 0) == 1
    assert w.weight(3, 3) == 2
    assert w.weight(1, 1) == 0


def check_omega_product_inequality(
    model,
    a: Element,
    b: Element,
    m: int,
    ell: int,
    omega: OmegaWeights,
    depth: int,
    tol: Fraction = DEFAULT_TOL,
) -> bool:
    """Squared form: (omega_h(a*b, m, ell))^2 <= omega_h(a, m+1, ell) * omega_h(b, m+1, 2^m+ell)."""
    ab = multiply(model, a, b)
    lhs = omega_h(model, ab, m, ell, omega, depth, tol)
    ra = omega_h(model, a, m + 1, ell, omega, depth, tol)
    rb = omega_h(model, b, m + 1, (1 << m) + ell, omega, depth, tol)
    if ra.is_divergent() or rb.is_divergent():
        return True
    lhs_sq_hi = lhs.hi * lhs.hi
    if lhs_sq_hi.infinite:
        raise DomainError("left side lacks a certified upper bound")
    return lhs_sq_hi.value <= ra.lo * rb.lo or _exact_omega_compare(lhs, ra, rb)


def _exact_omega_compare(lhs: Bracket, ra: Bracket, rb: Bracket) -> bool:
    if not (lhs.is_exact() and ra.is_exact() and rb.is_exact()):
        return False
    return lhs.lo**2 <= ra.lo * rb.lo


def test_omega_product_inequality():
    model = get_model("poly:monomial")
    a = from_pairs([(0, 1), (1, 2)])
    b = from_pairs([(0, 1), (2, -1)])
    assert check_omega_product_inequality(model, a, b, 1, 0, OmegaWeights.point(Fraction(1, 3)), 6)
    w = _table_weights({0: Fraction(1), 1: Fraction(1, 2)})
    assert check_omega_product_inequality(get_model("laurent:factorial"), a, b, 1, 0, w, 4)


def test_comparison_constant_brackets_e_minus_one():
    br = comparison_constant(Fraction(1), 20)
    lo, hi = e_minus_one_decimal(45)
    assert br.lo <= hi and lo <= br.hi.value
    assert br.hi.value - br.lo < Fraction(1, 10**10)


def test_comparison_constant_half_integer():
    br = comparison_constant(Fraction(1, 2), 12)
    assert br.finite_certified()
    assert Fraction(246, 100) < br.lo < br.hi.value < Fraction(248, 100)


def test_comparison_constant_rejects_bad_epsilon():
    with pytest.raises(DomainError):
        comparison_constant(Fraction(0), 5)
    with pytest.raises(DomainError):
        comparison_constant(Fraction(1, 3), 5)
    with pytest.raises(ValueError):
        comparison_constant(Fraction(1), 0)


def test_growth_classify_exponential():
    seq = {k: Fraction(2) ** k for k in range(7)}
    out = growth_classify(seq, lambda k: k, [Fraction(1, 2), Fraction(1)],
                          bound={"kind": "exponential", "base": 2})
    for entry in out["entries"]:
        assert entry["subfactorial"] is True
        cert = entry["certified_sup"]
        samp = entry["sample_sup"]
        assert cert.finite_certified()
        # sample sup cannot exceed the certified one
        assert samp.lo <= cert.hi.value
    assert "1" in out["comparison_constants"]


def test_growth_classify_factorial():
    from exactstar.scalars import factorial

    seq = {k: Fraction(factorial(k)) for k in range(6)}
    out = growth_classify(seq, lambda k: k, [Fraction(1, 2), Fraction(1), Fraction(3, 2)],
                          bound={"kind": "factorial"})
    half, one, three_half = out["entries"]
    assert half["subfactorial"] is False
    assert half["witness_rank"] >= 1
    assert one["subfactorial"] is True
    assert one["certified_sup"].lo == 1
    assert three_half["subfactorial"] is True


def _reference_cell(table, m, ell, gamma):
    """One h cell by the plain HVal loop: every index up to the target's rank
    as a parent at m >= 2, zero weights skipped, each contribution added with
    HVal.plus.  Parent cells come from the table.  Reference for the Fraction
    accumulation and the exact cone fans of HTable, on cells the model has no
    h_special for."""
    model = table.model
    weight = model.row_sum if ell & 1 == 0 else model.col_sum
    if m == 1:
        parents = list(table.element.support())
    else:
        parents = list(model.indices_up_to(model.index_rank(gamma)))
    acc = HVal.zero()
    for p in parents:
        w = weight(p, gamma)
        if w == 0:
            continue
        hv = table.h(m - 1, ell >> 1, p)
        if hv.is_zero():
            continue
        acc = acc.plus(hv.squared().times(w))
    return acc


def _hval_key(v):
    return (v.kind, v.q, v.sq, v.rs, v.br)


def test_h_accumulation_matches_hval_reference():
    from exactstar.cone import ConeModel

    from oracles import random_cone_element

    rng = seeded(303)
    # (model, element, target rank, levels without h_special)
    cases = [
        (ConeModel(1, Fraction(1, 2)), random_cone_element(rng, 1, 2), 3, (1, 2)),
        (ConeModel(2, Fraction(1, 2)), random_cone_element(rng, 2, 1, 3), 2, (1, 2)),
        (get_model("poly:factorial"),
         from_pairs([(0, random_gr(rng)), (2, random_gr(rng)), (3, Fraction(1, 3))]), 6, (1, 2)),
        (get_model("matrix:hat"),
         from_pairs([((1, 2), random_gr(rng)), ((2, 2), 1), ((3, 1), Fraction(2, 3))]), 3, (1,)),
        # RootSum weights: the sum leaves the Fraction path at the first one
        (get_model("group:Z", epsilon=Fraction(1, 2)),
         from_pairs([(0, 1), (1, random_gr(rng)), (-2, Fraction(1, 2))]), 3, (1,)),
    ]
    for model, a, rank, levels in cases:
        table = HTable(model, a)
        kinds = set()
        for gamma in model.indices_up_to(rank):
            for m in levels:
                for ell in range(1 << m):
                    got = table.h(m, ell, gamma)
                    kinds.add(got.kind)
                    assert _hval_key(got) == _hval_key(_reference_cell(table, m, ell, gamma)), (
                        model.name, m, ell, gamma)
        if model.name.startswith("group"):
            assert "root" in kinds


def test_fan_lists_nonzero_weights_once_per_target():
    from exactstar.algebra import InfiniteFanError
    from exactstar.cone import ConeModel

    half = Fraction(1, 2)
    for model, rank in ((ConeModel(1, half), 4), (ConeModel(2, half), 3),
                        (get_model("poly:factorial"), 6)):
        for gamma in model.indices_up_to(rank):
            row, col = model.fan(0, gamma), model.fan(1, gamma)
            assert row == [(p, w) for p in model.row_parents(gamma) if (w := model.row_sum(p, gamma)) != 0]
            # the starred row fan of the starred target: the nonzero column
            # weights once each, in the row fan's order
            every = model.indices_up_to(model.index_rank(gamma))
            assert len(col) == len(set(col))
            assert set(col) == {(p, w) for p in every if (w := model.col_sum(p, gamma)) != 0}
            assert model.fan(0, gamma) is row and model.fan(1, gamma) is col
    # parents with a zero weight are left out
    padded = get_model("poly:factorial")
    padded.row_parents = lambda k: range(k + 3)
    assert padded.fan(0, 2) == padded.fan(1, 2) == [(0, 1), (1, 2), (2, 1)]
    # an infinite fan raises on every call and is never stored
    laurent = get_model("laurent:factorial")
    for _ in range(2):
        for bit in (0, 1):
            with pytest.raises(InfiniteFanError):
                laurent.fan(bit, 3)
    assert laurent._fan_memo == {}


def _truncated_reference(table, m, ell, weighted_parents, depth):
    """truncated_sum as a plain loop adding one Fraction lo^2 * w_lo per parent."""
    total = Fraction(0)
    for parent, w in weighted_parents:
        lo = table.h(m - 1, ell >> 1, parent).to_bracket(table.tol).lo
        w_lo = w if isinstance(w, Fraction) else rootsum_bracket(w, table.tol).lo
        total += lo * lo * w_lo
    return Bracket.truncated(total, depth)


def test_truncated_sum_matches_fraction_loop():
    from exactstar.seminorms import truncated_sum

    half = Fraction(1, 2)
    gi = GaussianRational.of(1, 1)
    every = tuple(range(8))
    cases = [
        (get_model("laurent:factorial"), from_pairs([(0, 1), (1, gi), (-2, half)]),
         (0, 1, -2), 6, every),
        (get_model("matrix:hat"), from_pairs([((1, 2), gi), ((2, 2), 1), ((3, 1), Fraction(2, 3))]),
         ((1, 1), (1, 2), (2, 3)), 3, every),
        # RootSum weights, each contributing the lower end of its enclosure;
        # ell 6, 7 cover both weight bits (group:Z is commutative, so every
        # branch word reads the same depth-2 cells)
        (get_model("group:Z", epsilon=half), from_pairs([(0, 1), (-1, gi)]), (0, 1, -1), 1, (6, 7)),
    ]
    for model, a, targets, rank, ells in cases:
        table = HTable(model, a)
        parents = list(model.indices_up_to(rank))
        positive = 0
        for gamma in targets:
            for ell in ells:
                weight = model.row_sum if ell & 1 == 0 else model.col_sum
                weighted = [(p, weight(p, gamma)) for p in parents]
                got = truncated_sum(table, 3, ell, weighted, rank)
                want = _truncated_reference(table, 3, ell, weighted, rank)
                assert got.kind == "bracket" and got.br == want, (model.name, ell, gamma)
                positive += want.lo > 0
        assert positive
        if model.name.startswith("group"):
            assert any(isinstance(w, RootSum) and not w.is_rational() for _, w in weighted)


class _RecordingTable(HTable):
    """HTable that records the cells its recursion asks for."""

    def h(self, m, ell, gamma):
        self.read.append((m, gamma))
        return super().h(m, ell, gamma)


def test_step_tests_a_zero_weight_before_reading_its_cell():
    # the m = 1 support fan passes zero weights: step skips each one without
    # asking HTable.h for its parent cell, on the integer path and after a
    # RootSum weight has moved the sum to HVal arithmetic
    gi = GaussianRational.of(1, 1)
    a = from_pairs([(k, gi if k % 2 else k + 1) for k in range(6)])
    table = _RecordingTable(get_model("poly:factorial"), a)
    table.read = []
    root2 = RootSum.sqrt_rational(Fraction(2))
    weighted = [(0, Fraction(0)), (1, Fraction(2)), (2, 0), (3, root2),
                (4, Fraction(0)), (5, RootSum.rational(0))]
    got = table.step(1, 0, weighted)
    assert table.read == [(0, 1), (0, 3)]
    want = HVal.exact(4).plus(HVal.exact(2).times(root2))
    assert (got.kind, got.rs) == (want.kind, want.rs) == ("root", want.rs)


def test_tracer_counts_every_cone_cell():
    # perfbench's Tracer counts seminorms.h_cells by wrapping HTable.h, so a
    # recursion step that filled a cell past HTable.h would undercount
    import importlib.util
    from pathlib import Path

    from exactstar.cone import ConeModel

    from oracles import random_cone_element

    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)

    model = ConeModel(1, Fraction(1, 2))
    rng = seeded(29)
    a, b = random_cone_element(rng, 1, 1, 3), random_cone_element(rng, 1, 1, 3)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        ab = multiply(model, a, b)
        tables = tuple(HTable(model, x) for x in (ab, a, b))
        for m in range(2):
            for ell in range(1 << m):
                for t in sorted(ab.terms, key=model.index_sort_key):
                    check_product_inequality(model, a, b, m, ell, t, DEFAULT_TOL, tables)
    finally:
        tracer.uninstall()
    cells = sum(len(table._cells) for table in tables)
    assert cells > 20
    assert tracer.counts["seminorms.h_cells"] == cells
