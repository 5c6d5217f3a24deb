from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactstar.algebra import DomainError, Element, from_pairs, multiply
from exactstar.models import get_model
from exactstar.scalars import GaussianRational, MultiIndex, factorial
from exactstar.seminorms import HTable, rootsum_bracket

from laws import wick_z, wick_zbar
from oracles import (
    e_minus_one_decimal,
    laurent_ratio_bound,
    laurent_term_bound,
    random_gr,
    seeded,
)


def _pi_sq_over_six_window():
    import sympy

    v = sympy.pi**2 / 6
    lo = Fraction(str(sympy.N(v - sympy.Rational(1, 10**25), 30)))
    hi = Fraction(str(sympy.N(v + sympy.Rational(1, 10**25), 30)))
    return lo, hi


# -- polynomials ------------------------------------------------------------


def test_poly_pair_product():
    m = get_model("poly:monomial")
    assert m.pair_product(2, 3) == {5: Fraction(1)}
    mf = get_model("poly:factorial")
    # z^2/2! . z^3/3! = 10 . z^5/5!
    assert mf.pair_product(2, 3) == {5: Fraction(10)}


def test_poly_rejects_negative_degree():
    m = get_model("poly:monomial")
    with pytest.raises(DomainError):
        m.validate_index(-1)
    with pytest.raises(DomainError):
        m.validate_index("z")


def test_poly_evaluate_and_involution():
    m = get_model("poly:monomial")
    a = from_pairs([(0, 1), (1, 2), (2, GaussianRational.of(0, 1))])
    z0 = GaussianRational.of(Fraction(1, 2), Fraction(1, 2))
    val = m.evaluate(a, (z0,))
    expected = GaussianRational.of(1) + z0 * 2 + z0 * z0 * GaussianRational.of(0, 1)
    assert val == expected
    conj = m.involution(a)
    assert m.evaluate(conj, (z0.conjugate(),)) == val.conjugate()


def test_poly_unit():
    m = get_model("poly:factorial")
    u = m.unit()
    a = from_pairs([(3, 7)])
    assert multiply(m, u, a) == a
    assert multiply(m, a, u) == a


# -- Laurent ---------------------------------------------------------------


def test_laurent_rowsums():
    mp = get_model("laurent:plain")
    assert all(mp.row_sum(n, k) == 1 for n in (-3, 0, 2) for k in (-1, 0, 4))
    mf = get_model("laurent:factorial")
    assert mf.row_sum(2, 3) == 3
    assert mf.row_sum(0, 0) == 1
    assert mf.row_sum(-1, -3) == Fraction(6, 2)
    assert mf.row_sum(5, -1) == Fraction(1, factorial(5) * factorial(6))


def test_laurent_plain_depth_two_divergence():
    m = get_model("laurent:plain")
    a = from_pairs([(0, 1), (2, 1)])
    t = HTable(m, a)
    for ell in range(4):
        assert t.h(2, ell, 0).is_infinite()
    # depth one stays finite
    assert not t.h(1, 0, 0).is_infinite()


def test_laurent_factorial_depth_two_certified():
    m = get_model("laurent:factorial")
    a = from_pairs([(0, 1), (2, 1)])
    br = HTable(m, a).h(2, 0, 0).to_bracket()
    assert br.finite_certified() and not br.is_divergent()
    assert br.lo > 0


def test_laurent_evaluate():
    m = get_model("laurent:factorial")
    a = from_pairs([(-1, 2), (1, 1)])
    z0 = GaussianRational.of(2)
    # 2 z^-1/1! + z/1!
    assert m.evaluate(a, (z0,)) == GaussianRational.of(3)
    with pytest.raises(DomainError):
        m.evaluate(a, (GaussianRational.of(0),))


# -- infinite matrices -----------------------------------------------------


def test_matrix_pair_product():
    for variant, w2 in (("plain", 1), ("hat", Fraction(1, 2)), ("tilde", Fraction(1, 4))):
        m = get_model(f"matrix:{variant}")
        assert m.pair_product((1, 2), (2, 3)) == {(1, 3): Fraction(w2)}
        assert m.pair_product((1, 2), (3, 1)) == {}


def test_matrix_index_validation():
    m = get_model("matrix:plain")
    with pytest.raises(DomainError):
        m.validate_index((0, 1))
    with pytest.raises(DomainError):
        m.validate_index((1,))
    assert m.validate_index((2, 5)) == (2, 5)


def test_matrix_plain_h2_flags():
    m = get_model("matrix:plain")
    a = from_pairs([((1, 1), 1), ((1, 2), 2)])
    t = HTable(m, a)
    assert [t.h(2, ell, (1, 1)).is_infinite() for ell in range(4)] == [True, False, False, True]


def test_matrix_hat_h2_values():
    m = get_model("matrix:hat")
    a = from_pairs([((1, 2), 1)])
    t = HTable(m, a)
    e1_lo, e1_hi = e_minus_one_decimal()
    br0 = t.h(2, 0, (1, 1)).to_bracket()
    # the branch that sums the whole weight row lands on (e - 1)/4
    assert br0.finite_certified()
    assert br0.lo <= e1_hi / 4 and e1_lo / 4 <= br0.hi.value
    assert t.h(2, 1, (1, 1)).exact_rational() == Fraction(1, 4)
    assert t.h(2, 2, (1, 1)).exact_rational() == Fraction(1, 2)
    assert t.h(2, 3, (1, 1)).exact_rational() == 0

    unit_like = from_pairs([((1, 1), 1)])
    bru = HTable(m, unit_like).h(2, 0, (1, 1)).to_bracket()
    assert bru.lo <= e1_hi and e1_lo <= bru.hi.value


def test_matrix_branch_reversal_under_involution():
    # conjugate transpose swaps row and column branches at a diagonal target
    m = get_model("matrix:hat")
    a = from_pairs([((1, 2), GaussianRational.of(1, 1)), ((2, 2), 3)])
    astar = m.involution(a)
    ta, ts = HTable(m, a), HTable(m, astar)
    for ell in range(4):
        lhs = ta.h(2, ell, (2, 2)).to_bracket()
        rhs = ts.h(2, 3 - ell, (2, 2)).to_bracket()
        assert lhs.lo == rhs.lo
        assert lhs.hi.infinite == rhs.hi.infinite


def test_matrix_weight_series():
    e1_lo, e1_hi = e_minus_one_decimal()
    ws = get_model("matrix:hat").weight_series().to_bracket()
    assert ws.lo <= e1_hi and e1_lo <= ws.hi.value
    pi_lo, pi_hi = _pi_sq_over_six_window()
    wt = get_model("matrix:tilde").weight_series().to_bracket()
    assert wt.lo <= pi_hi and pi_lo <= wt.hi.value
    assert get_model("matrix:plain").weight_series().is_infinite()


def test_matrix_weight_series_honours_later_tol():
    # a coarse call first must not pin the bracket a finer tol asks for
    fine_tol = Fraction(1, 10**12)
    m = get_model("matrix:hat")
    coarse = m.weight_series(Fraction(1, 10)).to_bracket()
    fine = m.weight_series(fine_tol).to_bracket()
    fresh = get_model("matrix:hat").weight_series(fine_tol).to_bracket()
    assert (fine.lo, fine.hi.value, fine.depth) == (fresh.lo, fresh.hi.value, fresh.depth)
    assert fine.hi.value - fine.lo < fine_tol * fine.lo < coarse.hi.value - coarse.lo
    assert m.weight_series(Fraction(1, 10)).to_bracket().depth == coarse.depth


def test_matrix_tilde_worked_value():
    m = get_model("matrix:tilde")
    t = HTable(m, from_pairs([((1, 1), 1)]))
    assert t.h(2, 1, (1, 1)).exact_rational() == 1
    assert t.h(2, 2, (1, 1)).exact_rational() == 1
    pi_lo, pi_hi = _pi_sq_over_six_window()
    br = t.h(2, 0, (1, 1)).to_bracket()
    assert br.lo <= pi_hi and pi_lo <= br.hi.value


def _matrix_trace(model, a: Element) -> GaussianRational:
    # the coefficient of E_ii when unrescaling the basis vector at (i, i) is
    # the pair weight at i
    out = GaussianRational.of(0)
    for (i, j), c in a.terms.items():
        if i == j:
            out = out + c * model.pair_weight(i)
    return out


def test_matrix_trace():
    a = from_pairs([((1, 1), 1), ((2, 2), Fraction(3, 2)), ((3, 3), 2), ((1, 2), 5)])
    assert _matrix_trace(get_model("matrix:plain"), a) == GaussianRational.of(Fraction(9, 2))
    assert _matrix_trace(get_model("matrix:hat"), a) == GaussianRational.of(Fraction(25, 12))
    assert _matrix_trace(get_model("matrix:tilde"), a) == GaussianRational.of(Fraction(115, 72))


def test_matrix_trace_of_commutator_vanishes():
    m = get_model("matrix:hat")
    a = from_pairs([((1, 2), 1), ((2, 3), GaussianRational.of(0, 1))])
    b = from_pairs([((2, 1), 2), ((3, 2), 1)])
    comm = multiply(m, a, b) - multiply(m, b, a)
    assert _matrix_trace(m, comm).is_zero()


# -- group algebras --------------------------------------------------------


def test_group_z_matches_factorial_laurent():
    g = get_model("group:Z")
    l = get_model("laurent:factorial")
    for n in range(-8, 9):
        for k in range(-8, 9):
            assert g.pair_product(n, k) == l.pair_product(n, k)
            assert g.row_sum(n, k) == l.row_sum(n, k)


def test_group_z_h2_overlaps_laurent():
    # same quantity, two different tail certificates; the brackets must meet
    g = get_model("group:Z")
    l = get_model("laurent:factorial")
    a = from_pairs([(0, 1), (1, GaussianRational.of(1, 1)), (-2, Fraction(1, 2))])
    for gamma in (0, 1, -1):
        bg = HTable(g, a).h(2, 0, gamma).to_bracket()
        bl = HTable(l, a).h(2, 0, gamma).to_bracket()
        assert bg.finite_certified() and bl.finite_certified()
        assert max(bg.lo, bl.lo) <= min(bg.hi.value, bl.hi.value)


def test_group_shells_and_growth():
    z = get_model("group:Z")
    assert [len(z.shell(s)) for s in range(4)] == [1, 2, 2, 2]
    z2 = get_model("group:Zd:2")
    assert [len(z2.shell(s)) for s in range(4)] == [1, 4, 8, 12]
    f2 = get_model("group:free:2")
    sizes = [len(f2.shell(s)) for s in range(5)]
    assert sizes == [1, 4, 12, 36, 108]
    for model in (z, z2, f2):
        base = model.shell_growth_base()
        for s in range(5):
            assert len(model.shell(s)) <= max(1, base) ** s


def test_free_word_reduction():
    f = get_model("group:free:2")
    assert f.mul(((0, 1),), ((0, -1),)) == ()
    assert f.mul(((0, 1),), ((0, 2),)) == ((0, 3),)
    assert f.mul(((0, 1), (1, 2)), ((1, -2), (0, 1))) == ((0, 2),)
    assert f.length(f.validate_index(((0, 2), (1, -1)))) == 3
    with pytest.raises(DomainError):
        f.validate_index(((0, 1), (0, 1)))
    with pytest.raises(DomainError):
        f.validate_index(((0, 0),))
    with pytest.raises(DomainError):
        f.validate_index(((5, 1),))


def _antipode(model, a: Element) -> Element:
    """Linear extension of g -> g^{-1} in the rescaled basis."""
    return Element({model.inv(g): c for g, c in a.terms.items()})


def test_group_inverse_antipode_involution():
    f = get_model("group:free:2")
    w = ((0, 2), (1, -1))
    assert f.mul(w, f.inv(w)) == ()
    a = from_pairs([(w, GaussianRational.of(1, 2)), ((), 3)])
    assert _antipode(f, _antipode(f, a)) == a
    assert f.involution(f.involution(a)) == a
    # the two maps differ exactly by coefficient conjugation
    conj = Element({g: c.conjugate() for g, c in a.terms.items()})
    assert f.involution(a) == _antipode(f, conj)


@given(g=st.integers(-6, 6), k=st.integers(-6, 6))
def test_group_z_antipode_is_homomorphism(g, k):
    z = get_model("group:Z")
    a, b = Element.basis(g), Element.basis(k)
    lhs = _antipode(z, multiply(z, a, b))
    rhs = multiply(z, _antipode(z, a), _antipode(z, b))
    assert lhs == rhs


def test_group_epsilon_half_weights():
    g = get_model("group:Z", epsilon=Fraction(1, 2))
    with pytest.raises(DomainError):
        g.pair_product(0, 1)
    br = rootsum_bracket(g.row_sum(2, 3))
    # weight sqrt(3!/2!) = sqrt 3
    assert br.lo**2 <= 3 <= br.hi.value**2
    a = Element.basis(2)
    hv = HTable(g, a).h(1, 0, 3)
    assert hv.exact_rational() is None
    assert hv.squared().exact_rational() == 3
    # rational weight at the identity target: sqrt(0!/(2! 2!)) = 1/2
    assert HTable(g, a).h(1, 0, 0).exact_rational() == Fraction(1, 2)


def test_group_characters():
    z = get_model("group:Z")
    a = from_pairs([(2, 2)])
    re, im = z.character(a, {0: GaussianRational.of(0, 1)})
    assert re.is_rational() and im.is_rational()
    assert (re.rational_value(), im.rational_value()) == (-1, 0)

    b = from_pairs([(2, 4)])
    re, im = z.character(b, {0: GaussianRational.of(1)})
    assert (re.rational_value(), im.rational_value()) == (2, 0)

    zh = get_model("group:Z", epsilon=Fraction(1, 2))
    re, im = zh.character(b, {0: GaussianRational.of(1)})
    # 4 / sqrt(2!) = 2 sqrt 2
    assert not re.is_rational()
    lo, hi = re.bracket()
    assert 0 < lo and lo**2 < 8 < hi**2
    assert im.is_rational() and im.rational_value() == 0


def test_group_json_round_trip():
    f = get_model("group:free:2")
    w = ((0, 2), (1, -1))
    assert f.index_from_json(f.index_to_json(w)) == w
    z2 = get_model("group:Zd:2")
    assert z2.index_from_json(z2.index_to_json((3, -1))) == (3, -1)


# -- flat Wick -------------------------------------------------------------


def test_wick_pair_product_matches_derivative_oracle():
    from oracles import wick_star_sympy

    hbar = Fraction(1, 2)
    m = get_model("wick:1", hbar=hbar)
    two_h = 2 * hbar
    degs = [(i, j) for i in range(3) for j in range(3) if i + j <= 3]
    for I, J in degs:
        for K, L in degs:
            left = m.validate_index(((I,), (J,)))
            right = m.validate_index(((K,), (L,)))
            got = m.pair_product(left, right)
            oracle = wick_star_sympy(1, hbar, (I,), (J,), (K,), (L,))
            # undo the basis rescaling on both sides
            src = Fraction(
                factorial(I) * factorial(J) * factorial(K) * factorial(L)
            ) * two_h ** (I + J + K + L)
            rebuilt = {}
            for (ti, tj), c in got.items():
                plain = c * src / (
                    Fraction(ti.factorial() * tj.factorial()) * two_h ** (ti.degree() + tj.degree())
                )
                rebuilt[(ti, tj)] = plain
            assert rebuilt == {k: v for k, v in oracle.items() if v != 0}


def test_wick_commutation_relation():
    for hbar in (Fraction(1, 2), Fraction(1), Fraction(3)):
        m = get_model("wick:2", hbar=hbar)
        z0, zb0, zb1 = wick_z(m, 0), wick_zbar(m, 0), wick_zbar(m, 1)
        comm = multiply(m, z0, zb0) - multiply(m, zb0, z0)
        assert comm == m.unit().scale(2 * hbar)
        cross = multiply(m, z0, zb1) - multiply(m, zb1, z0)
        assert cross.is_zero()


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_wick_associativity(data):
    rng = seeded(data.draw(st.integers(0, 10**6)))
    m = get_model("wick:1", hbar=Fraction(1, 2))
    idxs = list(m.indices_up_to(2))

    def rand_elt():
        return from_pairs([(rng.choice(idxs), random_gr(rng)) for _ in range(2)])

    a, b, c = rand_elt(), rand_elt(), rand_elt()
    assert multiply(m, multiply(m, a, b), c) == multiply(m, a, multiply(m, b, c))


def test_wick_evaluate_coordinates():
    m = get_model("wick:2", hbar=Fraction(1, 2))
    w = (GaussianRational.of(Fraction(1, 3), 1), GaussianRational.of(2))
    assert m.evaluate(wick_z(m, 0), w) == w[0]
    assert m.evaluate(wick_zbar(m, 1), w) == w[1].conjugate()
    # evaluation is multiplicative only up to hbar corrections; the
    # commutator evaluates to the central constant
    z0, zb0 = wick_z(m, 0), wick_zbar(m, 0)
    comm = multiply(m, z0, zb0) - multiply(m, zb0, z0)
    assert m.evaluate(comm, w) == GaussianRational.of(1)


def test_wick_h2_is_truncated_lower_bound():
    m = get_model("wick:1", hbar=Fraction(1, 2))
    a = from_pairs([(m.validate_index(((1,), (0,))), 1)])
    br = HTable(m, a).h(2, 0, m.validate_index(((0,), (0,)))).to_bracket()
    assert not br.finite_certified()
    assert not br.is_divergent()
    assert br.lo >= 0


# (model, hbar, target rank r, partner rank R): a partner y of an index x of
# rank <= r landing on a target of rank <= r has rank <= R.  Polynomials,
# matrices and cone levels keep y within the target's rank; Laurent
# degrees, group words and Wick degrees give rank(y) <= rank(x) + rank(g).
# hbar = 3/7 makes 2 hbar = 6/7 non-integral, so a wrong power of its
# denominator shows.
BRUTE_FORCE_CASES = [
    *((spec, None, 4, 4) for spec in ("poly:monomial", "poly:factorial")),
    *((spec, None, 3, 6) for spec in ("laurent:plain", "laurent:factorial")),
    *((spec, None, 3, 3) for spec in ("matrix:plain", "matrix:hat", "matrix:tilde")),
    ("group:Z", None, 3, 6),
    ("group:Zd:2", None, 2, 4),
    ("group:free:2", None, 2, 4),
    *((spec, hbar, r, big) for hbar in (Fraction(1, 2), Fraction(3, 7))
      for spec, r, big in (("wick:1", 3, 6), ("wick:2", 2, 4), ("cone:1", 3, 3), ("cone:2", 2, 2))),
]


@pytest.mark.parametrize("spec, hbar, rank, partner_rank", BRUTE_FORCE_CASES,
                         ids=[spec if h is None else f"{spec}-{h}" for spec, h, _, _ in BRUTE_FORCE_CASES])
def test_weights_match_brute_force(spec, hbar, rank, partner_rank):
    # row_sum(x, g) = sum_y |C^g_{x,y}| and col_sum(x, g) = sum_y |C^g_{y,x}|,
    # each product computed once over the partner window; the involution
    # behind col_sum is involutive and reverses products
    family, _, n = spec.partition(":")
    m = get_model("cone", hbar=hbar, n=int(n)) if family == "cone" else get_model(spec, hbar=hbar)
    small = list(m.indices_up_to(rank))
    row, col = {}, {}
    for x in small:
        for y in m.indices_up_to(partner_rank):
            for g, c in m.pair_product(x, y).items():
                row[x, g] = row.get((x, g), 0) + abs(c)
            for g, c in m.pair_product(y, x).items():
                col[x, g] = col.get((x, g), 0) + abs(c)
    for x in small:
        for g in small:
            assert (m.row_sum(x, g), m.col_sum(x, g)) == (row.get((x, g), 0), col.get((x, g), 0)), (x, g)
    rng = seeded(29)
    low = list(m.indices_up_to(min(rank, 2)))
    for _ in range(3):
        a, b = (from_pairs((rng.choice(low), random_gr(rng)) for _ in range(3)) for _ in range(2))
        assert m.involution(m.involution(a)) == a
        assert m.involution(multiply(m, a, b)) == multiply(m, m.involution(b), m.involution(a))


def test_wick_validation():
    with pytest.raises(DomainError):
        get_model("wick:0")
    with pytest.raises(DomainError):
        get_model("wick:1", hbar=Fraction(0))
    m = get_model("wick:2", hbar=Fraction(1, 2))
    with pytest.raises(DomainError):
        m.validate_index(((1,), (0, 0)))


def test_wick_index_json_round_trip():
    m = get_model("wick:2", hbar=Fraction(1, 2))
    idx = (MultiIndex((1, 0)), MultiIndex((0, 2)))
    assert m.index_from_json(m.index_to_json(idx)) == idx


# -- registry --------------------------------------------------------------


def test_get_model_rejects_unknown():
    with pytest.raises(DomainError):
        get_model("poly:nope")
    with pytest.raises(DomainError):
        get_model("nonsense")
    with pytest.raises(DomainError):
        get_model("group:Zd:0")


def test_registry_names_resolve():
    from exactstar.models import model_registry

    for entry in model_registry():
        name = entry["name"]
        if "<" in name:
            continue
        kwargs = {}
        if name.startswith(("wick", "cone", "disk")):
            kwargs["hbar"] = Fraction(1, 2)
        m = get_model(name, **kwargs)
        assert m.name == name


def _registry_instances():
    """One instance per registry entry, placeholders filled with small sizes;
    group entries at both weight exponents."""
    from exactstar.models import model_registry

    for entry in model_registry():
        name = entry["name"].replace("<d>", "2").replace("<N>", "2").replace("<n>", "1")
        if name.startswith("group"):
            for eps in (Fraction(1), Fraction(1, 2)):
                yield get_model(name, epsilon=eps)
        elif name.startswith(("wick", "cone", "disk")):
            yield get_model(name, hbar=Fraction(1, 2))
        else:
            yield get_model(name)


def test_commutative_flag_contract():
    # HTable keeps one cell per (m, gamma) for a commutative model, which is
    # sound only when row and column weights and fans coincide
    from exactstar.algebra import InfiniteFanError

    models = [*_registry_instances(), get_model("group:free:1")]
    commutative = {m.name for m in models if m.commutative}
    assert commutative == {"poly:monomial", "poly:factorial", "laurent:plain",
                           "laurent:factorial", "group:Z", "group:Zd:2"}
    for m in models:
        if not m.commutative:
            assert m.name in ("cone", "disk", "matrix:plain", "matrix:hat", "matrix:tilde",
                              "wick:1", "group:free:1", "group:free:2")
            continue
        grid = list(m.indices_up_to(3))
        for gamma in grid:
            for x in grid:
                assert m.row_sum(x, gamma) == m.col_sum(x, gamma), (m.name, x, gamma)
            try:
                row = m.fan(0, gamma)
            except InfiniteFanError:
                with pytest.raises(InfiniteFanError):
                    m.fan(1, gamma)
                continue
            assert m.fan(1, gamma) == row, (m.name, gamma)


def _reference_h2_factorial(model, table, ell, gamma):
    """The depth-2 factorial-Laurent bracket with the window summed from
    scratch at every widening; reference for the incremental window sum."""
    from exactstar.seminorms import TAG_MAJORANT, Bracket

    a = table.element
    pl = ell >> 1
    lk = abs(gamma)
    L = max(abs(j) for j in a.terms)
    k1 = sum((c.abs_squared() for c in a.terms.values()), Fraction(0))

    def term_bound(s):
        return laurent_term_bound(k1, L, lk, s)

    def ratio_bound(s):
        return laurent_ratio_bound(L, lk, s)

    def window(cutoff):
        total = Fraction(0)
        for n in range(-cutoff, cutoff + 1):
            q = table.h(1, pl, n).exact_rational()
            total += q * q * model.row_sum(n, gamma)
        return total

    smin = max(L, lk) + 1
    cutoff = smin
    while ratio_bound(cutoff + 1) >= Fraction(1, 2):
        cutoff += 1
    partial = window(cutoff)
    tail = term_bound(cutoff + 1) / (1 - ratio_bound(cutoff + 1))
    while tail > table.tol * (partial + tail) and cutoff < smin + 300:
        cutoff += 4
        partial = window(cutoff)
        tail = term_bound(cutoff + 1) / (1 - ratio_bound(cutoff + 1))
    return Bracket.enclosure(partial, partial + tail, cutoff, TAG_MAJORANT)


def test_laurent_incremental_window_matches_from_scratch():
    m = get_model("laurent:factorial")
    rng = seeded(17)
    elements = [
        from_pairs([(0, 1), (2, 1)]),
        from_pairs([(-3, random_gr(rng)), (1, random_gr(rng)), (3, Fraction(1, 2))]),
    ]
    widened = 0
    for a in elements:
        for tol in (Fraction(1, 10**12), Fraction(1, 10**40)):
            table = HTable(m, a, tol)
            for ell in range(4):
                for gamma in range(-4, 5):
                    got = table.h(2, ell, gamma).to_bracket()
                    want = _reference_h2_factorial(m, table, ell, gamma)
                    assert got == want, (a, ell, gamma)
                    widened += got.depth > max(max(abs(j) for j in a.terms), abs(gamma)) + 5
    # the cases above must reach the widening loop, not only the first window
    assert widened


def test_factorial_tail_matches_fraction_bounds():
    # the integer tail and ratio test of LaurentModel._h2_factorial against
    # the Fraction expressions they replace, wherever those are defined
    # (s >= |gamma|, ratio != 1)
    from exactstar.models import _factorial_tail, _ratio_at_least_half

    half = Fraction(1, 2)
    tails = 0
    for k1 in (Fraction(1), Fraction(3, 7), Fraction(250, 3), Fraction(1, 10**12)):
        for L in range(7):
            for lk in range(9):
                for s in range(lk, 41):
                    ratio = laurent_ratio_bound(L, lk, s)
                    assert _ratio_at_least_half(L, lk, s) == (ratio >= half), (L, lk, s)
                    if ratio == 1:
                        continue
                    got = _factorial_tail(k1, L, lk, s)
                    assert type(got) is Fraction
                    assert got == laurent_term_bound(k1, L, lk, s) / (1 - ratio), (k1, L, lk, s)
                    tails += ratio < half
    assert tails > 1000


def test_depth2_specials_unchanged():
    """Depth-2 Matrix (mixed branches) and Group cells, pinned bit for bit:
    the sha256 of their bracket reprs, recorded before these cells were
    summed through HTable.step."""
    import hashlib

    half = Fraction(1, 2)
    mat = from_pairs([((1, 2), GaussianRational.of(1, 1)), ((2, 2), 1), ((3, 1), Fraction(2, 3))])
    za = from_pairs([(0, 1), (1, GaussianRational.of(1, 1)), (-2, half)])
    # ell 1 and 2 are the Matrix branches that sum over support rows/columns
    mixed = [(ell, gamma) for gamma in ((1, 1), (1, 2), (2, 3), (3, 1)) for ell in (1, 2)]
    cases = [
        (get_model("matrix:hat"), mat, mixed),
        (get_model("matrix:tilde"), mat, mixed),
        (get_model("group:Z"), za, [(ell, gamma) for gamma in (0, 1, -2) for ell in range(4)]),
        # RootSum weights; one free-group cell runs into the shell budget and
        # closes with the shell bound's geometric tail
        (get_model("group:Z", epsilon=half), from_pairs([(0, 1), (-1, GaussianRational.of(1, 1))]),
         [(1, -1), (2, 1)]),
        (get_model("group:free:2"), from_pairs([(((1, -1),), GaussianRational.of(half, 1))]),
         [(3, ())]),
    ]
    digest = hashlib.sha256()
    for model, a, cells in cases:
        table = HTable(model, a)
        for ell, gamma in cells:
            digest.update(repr(table.h(2, ell, gamma).to_bracket()).encode() + b"\n")
    assert digest.hexdigest()[:16] == "1cd71d88f1b659b4"


def test_wick_depth2_cells_unchanged():
    """Flat Wick cells at m = 2, every branch word, pinned bit for bit: the
    sha256 of their bracket reprs, recorded before any change to the Wick fan."""
    import hashlib

    digest = hashlib.sha256()
    for spec in ("wick:1", "wick:2"):
        for hbar in (Fraction(1, 2), Fraction(3)):
            m = get_model(spec, hbar=hbar)
            e, z = MultiIndex.unit(m.n, 0), MultiIndex.zero(m.n)
            table = HTable(m, from_pairs([((e, z), 1), ((z, e), Fraction(1, 2)), ((e, e), 1)]))
            for gamma in ((z, z), (e, z), (e, e)):
                for ell in range(4):
                    digest.update(repr(table.h(2, ell, gamma).to_bracket()).encode() + b"\n")
    assert digest.hexdigest()[:16] == "c69a0537f532ddea"


def test_kernel_outputs_unchanged():
    """A fixed seeded slice of cone products, seminorm cells, disk reductions
    and vacuum actions, pinned bit for bit: the sha256 of their exact reprs,
    recorded before the cone weights and the seminorm sums ran on integers."""
    import hashlib

    from exactstar.cone import ConeModel, disk_lift, disk_reduce
    from exactstar.gns import gns_rep

    from oracles import random_cone_element, random_disk_element, random_vector

    half = Fraction(1, 2)
    rng = seeded(707)
    digest = hashlib.sha256()

    def put(*parts):
        digest.update(repr(parts).encode() + b"\n")

    def put_terms(terms, key=None):
        for idx in sorted(terms, key=key):
            put(idx, terms[idx])

    cone2 = ConeModel(2, half)
    for _ in range(6):
        ab = multiply(cone2, random_cone_element(rng, 2, 3), random_cone_element(rng, 2, 3))
        put_terms(ab.terms, cone2.index_sort_key)
    laurent_element = from_pairs([(0, random_gr(rng)), (1, random_gr(rng)), (-2, half)])
    for model, a, rank in ((ConeModel(1, half), random_cone_element(rng, 1, 3), 3),
                           (get_model("laurent:factorial"), laurent_element, 3)):
        table = HTable(model, a)
        for m in range(4):
            for ell in range(1 << m):
                for gamma in model.indices_up_to(rank):
                    v = table.h(m, ell, gamma)
                    put(m, ell, gamma, v.kind, v.sq, v.to_bracket())
    psi = random_vector(rng, 2, 2)
    for _ in range(2):
        x = random_disk_element(rng, 2, 2)
        put_terms(disk_reduce(multiply(cone2, disk_lift(x), disk_lift(x)), half).terms)
        put_terms(gns_rep(x, psi, half).terms)
    assert digest.hexdigest()[:16] == "e17474ab8c6910a8"


def test_reduction_and_vacuum_outputs_unchanged_off_half():
    """Disk reductions and the vacuum action, inner product and state at
    hbar = 5/7 (2 hbar = 10/7) and reductions at hbar = -5/7 (2 hbar = -10/7),
    pinned bit for bit.  At hbar = 1/2 every power of the numerator and the
    denominator of 2 hbar is 1, so only a value off 1/2 pins those powers and
    the sign of a negative hbar."""
    import hashlib

    from exactstar.cone import ConeModel, disk_lift, disk_reduce
    from exactstar.gns import gns_inner, gns_rep, positivity_check

    from oracles import random_disk_element, random_vector

    digests = []
    for hbar in (Fraction(5, 7), Fraction(-5, 7)):
        rng = seeded(5077)
        digest = hashlib.sha256()

        def put(*parts):
            digest.update(repr(parts).encode() + b"\n")

        for n, level in ((1, 4), (2, 2)):
            cone = ConeModel(n, hbar)
            for alpha in range(level + 2):
                t = (MultiIndex.unit(n, 0), MultiIndex.zero(n), alpha + 1)
                put(sorted(disk_reduce(Element.basis(t), hbar).terms.items()))
            for _ in range(3):
                x = random_disk_element(rng, n, level)
                y = random_disk_element(rng, n, level)
                put(sorted(disk_reduce(multiply(cone, disk_lift(x), disk_lift(y)), hbar).terms.items()))
                if hbar > 0:
                    psi, phi = random_vector(rng, n, level), random_vector(rng, n, level)
                    rep = gns_rep(x, psi, hbar)
                    put(sorted(rep.terms.items()))
                    put(gns_inner(rep, phi, hbar), gns_inner(psi, psi, hbar))
                    put(positivity_check(x, hbar))
        digests.append(digest.hexdigest()[:16])
    assert digests == ["9dc96a314ebf7b79", "0ab531136447ebd4"]
