from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactstar.algebra import DimensionError, DomainError, Element, settled_element
from exactstar.cone import DiskModel, disk_involution, disk_multiply, disk_rows
from exactstar.gns import (
    GnsVector,
    check_kernel_absorbed,
    check_representation,
    coherent_vector,
    gns_inner,
    gns_norm_squared,
    gns_rep,
    gns_rep_via_product,
    gns_vector_from_json,
    gns_vector_to_json,
    inner_weight,
    iota,
    positivity_check,
    state_kernel_part,
)
from exactstar.scalars import GaussianRational, MultiIndex, factorial, settle

from laws import check_reproducing
from oracles import (
    gns_project,
    random_disk_element,
    random_gr,
    random_vector,
    seeded,
    vacuum_expectation_full_product,
)

H = Fraction(1, 2)
GR = GaussianRational.of
Z1 = MultiIndex((0,))
E1 = MultiIndex((1,))


def test_inner_weight_values():
    for hbar in (H, Fraction(1), Fraction(3)):
        nu = Fraction(1, 2 * hbar)
        assert inner_weight((0,), hbar) == 1
        assert inner_weight((1,), hbar) == nu
        assert inner_weight((2,), hbar) == nu * (nu + 1) / 8
        assert inner_weight((1, 1), hbar) == nu * (nu + 1) / 4
        assert inner_weight((3,), hbar) == nu * (nu + 1) * (nu + 2) / Fraction(36 * 6)
    with pytest.raises(DomainError):
        inner_weight((1,), Fraction(0))
    with pytest.raises(DomainError):
        inner_weight((1,), Fraction(-1))


def test_inner_weight_matches_vacuum_state():
    # the pairing weight at q must be the vacuum expectation of f* . f for
    # the basis vector at (0, q): the state and the inner product are one
    for hbar in (H, Fraction(1), Fraction(5, 3)):
        for q in (Z1, E1, MultiIndex((2,)), MultiIndex((3,))):
            a = Element.basis((Z1, q))
            val = positivity_check(a, hbar)
            assert val == inner_weight(q, hbar)


def test_gns_inner_orthogonality_and_sesquilinearity():
    psi = GnsVector.basis(E1)
    phi = GnsVector.basis(MultiIndex((2,)))
    assert gns_inner(psi, phi, H) == GR(0)
    c = GR(Fraction(1, 3), 2)
    lhs = gns_inner(psi.scale(c), psi, H)
    assert lhs == c.conjugate() * gns_inner(psi, psi, H)
    rhs = gns_inner(psi, psi.scale(c), H)
    assert rhs == c * gns_inner(psi, psi, H)


def test_gns_norm_positive():
    rng = seeded(83)
    for _ in range(5):
        psi = random_vector(rng, 1, 3)
        n2 = gns_norm_squared(psi, H)
        assert n2 >= 0
        assert (n2 == 0) == psi.is_zero()


def test_iota_rejects_mixed_lengths():
    """iota reads n from every index, not the first: a vector that mixes
    lengths, or an n that is not its indices' length, is a DimensionError."""
    with pytest.raises(DimensionError, match="vector indices have n = 1 and n = 2"):
        iota(GnsVector({(1,): 1, (1, 0): 1}))
    psi = GnsVector.basis(E1)
    with pytest.raises(DimensionError, match="vector indices have n = 1 and n = 2"):
        iota(psi, 2)
    assert iota(psi, 1) == iota(psi) == Element.basis((Z1, E1))
    assert iota(GnsVector.zero(), 2).is_zero()
    mixed = Element({(E1, Z1): 1, (MultiIndex((1, 0)), MultiIndex((0, 0))): 1})
    with pytest.raises(DimensionError, match="disk indices have n = 1 and n = 2"):
        positivity_check(mixed, H)


def test_iota_project_round_trip():
    rng = seeded(89)
    psi = random_vector(rng, 1, 3)
    assert gns_project(iota(psi, 1)) == psi
    a = Element.basis((E1, Z1))
    # projection keeps only the holomorphically trivial first slot
    assert gns_project(a).is_zero()


def test_delta0_pairing_matches_inner():
    rng = seeded(97)
    for n in (1, 2):
        for _ in range(3):
            a = random_disk_element(rng, n, 2)
            b = random_disk_element(rng, n, 2)
            lhs = gns_inner(gns_project(a), gns_project(b), H)
            prod = disk_multiply(disk_involution(a), b, H)
            zero = MultiIndex.zero(n)
            vac = prod.coeff((zero, zero))
            # vacuum expectation of a* b against the projected pairing
            psi_a, psi_b = gns_project(a), gns_project(b)
            pair = GR(0)
            for q, ca in psi_a.terms.items():
                cb = psi_b.coeff(q)
                pair = pair + ca.conjugate() * cb * inner_weight(q, H)
            assert lhs == pair
            assert vac == sum(
                (ca.conjugate() * psi_b.coeff(q) * inner_weight(q, H) for q, ca in psi_a.terms.items()),
                GR(0),
            )


def test_two_representation_routes_agree():
    rng = seeded(101)
    for n in (1, 2):
        for hbar in (H, Fraction(1), Fraction(3)):
            for _ in range(3):
                a = random_disk_element(rng, n, 2)
                psi = random_vector(rng, n, 2)
                assert gns_rep(a, psi, hbar) == gns_rep_via_product(a, psi, hbar)


@pytest.mark.parametrize("hbar", [Fraction(5, 7), Fraction(3, 11)], ids=str)
@pytest.mark.parametrize("n, level", [(1, 5), (2, 2)])
def test_routes_agree_where_nu_has_a_numerator(n, level, hbar):
    """At nu = 1/(2 hbar) = 7/10 and 11/6 the numerator u of nu is not 1, so
    a wrong power of u in the rising factors of the closed-form action
    breaks the agreement with the product route and the representation law."""
    rng = seeded(179 + n)
    for _ in range(3):
        a, b = random_disk_element(rng, n, level), random_disk_element(rng, n, level)
        psi = random_vector(rng, n, level)
        assert gns_rep(a, psi, hbar) == gns_rep_via_product(a, psi, hbar)
        assert check_representation(a, b, psi, hbar)


def test_actions_build_valid_vectors():
    """Both routes settle their result once, without GnsVector()'s checks:
    it must still be what GnsVector() builds, with MultiIndex keys and no
    zero coefficient, also where every s lies below P and where two
    contributions cancel."""
    from exactstar import gns

    rng = seeded(173)
    cases = [(random_disk_element(rng, n, 2), random_vector(rng, n, 2), hbar)
             for n in (1, 2) for hbar in (H, Fraction(5, 7))]
    below = (Element.basis((MultiIndex((2,)), Z1)), GnsVector({(0,): 1, (1,): GR(1, 1)}), H)
    # pi(f_{1,1}) e_1 = k e_1, so k f_{0,0} - f_{1,1} sends e_1 to an accumulated zero
    k = gns_rep(Element.basis((E1, E1)), GnsVector.basis(E1), H).coeff(E1)
    cancel = (Element({(Z1, Z1): k, (E1, E1): -1}), GnsVector.basis(E1), H)
    acc = gns._action(gns._parts(cancel[0]), gns._parts(cancel[1]), H)
    assert acc[E1][:2] == (0, 0)
    for a, psi, hbar in cases + [below, cancel]:
        for out in (gns_rep(a, psi, hbar), gns_rep_via_product(a, psi, hbar)):
            assert out == GnsVector(dict(out.terms))
            assert all(type(q) is MultiIndex and not c.is_zero() for q, c in out.terms.items())
    for a, psi, hbar in (below, cancel):
        assert gns_rep(a, psi, hbar).is_zero() and gns_rep_via_product(a, psi, hbar).is_zero()


def test_closed_route_runs_without_the_product_route(monkeypatch):
    """gns_rep must not fall back on multiply-then-project: with the disk
    product and the reduction rows disabled it still gives the same action."""
    from exactstar import cone, gns

    rng = seeded(107)
    cases = [(random_disk_element(rng, n, 2), random_vector(rng, n, 2), hbar)
             for n in (1, 2) for hbar in (H, Fraction(5, 7))]
    want = [gns_rep(a, psi, hbar) for a, psi, hbar in cases]

    def disabled(*args, **kw):
        raise AssertionError("the closed-form action reached the product route")

    monkeypatch.setattr(cone, "disk_multiply", disabled)
    monkeypatch.setattr(gns, "disk_rows", disabled)
    monkeypatch.setattr(cone, "_reduce_cached", disabled)
    assert [gns_rep(a, psi, hbar) for a, psi, hbar in cases] == want


@pytest.mark.parametrize(
    "hbar", [H, Fraction(3), Fraction(5, 7), Fraction(3, 11), Fraction(-5, 7)], ids=str)
@pytest.mark.parametrize("n, level", [(1, 5), (2, 2)])
def test_disk_column_is_the_projected_product(n, level, hbar):
    """The rows P <= bound of a . b, computed alone by disk_rows, are those
    of the whole product, for general right factors and for embedded
    vectors.  Bound 0 is the holomorphic column; the others are a random
    bound, the componentwise max of a vector's support and a bound past
    every row of the product."""
    rng = seeded(149 + n)
    pairs = [(random_disk_element(rng, n, level), random_disk_element(rng, n, level))
             for _ in range(4)]
    pairs += [(random_disk_element(rng, n, level), iota(random_vector(rng, n, level), n))
              for _ in range(2)]
    x = pairs[0][0]
    pairs.append((disk_involution(x), x))
    support = random_vector(rng, n, level).terms
    bounds = [MultiIndex.zero(n), MultiIndex([rng.randint(0, level) for _ in range(n)]),
              MultiIndex([max(column) for column in zip(*support)]),
              MultiIndex([2 * level + 1] * n)]
    for a, b in pairs:
        whole = disk_multiply(a, b, hbar)
        for bound in bounds:
            rows = settled_element(disk_rows(a, b, hbar, [bound]))
            assert rows == Element({k: c for k, c in whole.terms.items() if k[0] <= bound})
        column = {q: z for (_, q), z in disk_rows(a, b, hbar, bounds[:1]).items()}
        assert GnsVector(settle(column)) == gns_project(whole)
    assert disk_rows(Element.zero(), Element.zero(), hbar, bounds[:1]) == {}
    with pytest.raises(DomainError, match="not an allowed value"):
        disk_rows(x, x, Fraction(-1, 2), bounds[:1])


def test_positivity_matches_full_product():
    rng = seeded(151)
    for n, level in ((1, 4), (2, 2)):
        for hbar in (H, Fraction(3), Fraction(5, 7)):
            for _ in range(4):
                a = random_disk_element(rng, n, level)
                want = vacuum_expectation_full_product(a, hbar)
                assert want.im == 0
                assert positivity_check(a, hbar) == want.re


def test_product_route_runs_without_the_closed_forms(monkeypatch):
    """gns_rep_via_product and positivity_check must not fall back on the
    closed-form action or weights: with those disabled they still give the
    same values.  These are the names gns binds, so patching them in gns
    reaches every call."""
    from exactstar import gns

    rng = seeded(157)
    cases = [(random_disk_element(rng, n, 2), random_vector(rng, n, 2), hbar)
             for n in (1, 2) for hbar in (H, Fraction(5, 7))]
    want = [(gns_rep_via_product(a, psi, hbar), positivity_check(a, hbar))
            for a, psi, hbar in cases]

    def disabled(*args, **kw):
        raise AssertionError("the product route reached a closed form")

    for name in ("gns_rep", "_action", "inner_weight", "_weight_parts", "rising_numerator"):
        monkeypatch.setattr(gns, name, disabled)
    got = [(gns.gns_rep_via_product(a, psi, hbar), gns.positivity_check(a, hbar))
           for a, psi, hbar in cases]
    assert got == want


def test_representation_property():
    rng = seeded(103)
    a = random_disk_element(rng, 1, 2)
    b = random_disk_element(rng, 1, 2)
    psi = random_vector(rng, 1, 2)
    assert check_representation(a, b, psi, H)
    unit = Element.basis((Z1, Z1))
    assert gns_rep(unit, psi, H) == psi


def check_adjoint(a: Element, psi: GnsVector, phi: GnsVector, hbar) -> bool:
    """<pi(a) psi, phi> = <psi, pi(a*) phi>, exactly."""
    lhs = gns_inner(gns_rep(a, psi, hbar), phi, hbar)
    rhs = gns_inner(psi, gns_rep(disk_involution(a), phi, hbar), hbar)
    return lhs == rhs


def check_cauchy_schwarz(psi: GnsVector, phi: GnsVector, hbar) -> bool:
    pairing = gns_inner(psi, phi, hbar)
    return pairing.abs_squared() <= gns_norm_squared(
        psi, hbar
    ) * gns_norm_squared(phi, hbar)


def test_representation_check_skips_the_whole_product(monkeypatch):
    """check_representation multiplies a . b only in the rows that gns_rep
    reads, those below some s of psi: with the whole product disabled the
    seeded cases still hold, and scaling one reduction entry of a row it
    reads breaks the law."""
    from exactstar import cone, gns

    rng = seeded(163)
    cases = [(random_disk_element(rng, n, 2), random_disk_element(rng, n, 2),
              random_vector(rng, n, 2), hbar) for n in (1, 2) for hbar in (H, Fraction(5, 7))]

    def disabled(*args, **kw):
        raise AssertionError("the representation check built the whole product")

    monkeypatch.setattr(cone, "disk_multiply", disabled)
    monkeypatch.setattr(gns, "disk_multiply", disabled, raising=False)
    reduced, rows = [], cone._reduce_cached

    def recording(t, hbar):
        reduced.append(t)
        return rows(t, hbar)

    monkeypatch.setattr(cone, "_reduce_cached", recording)
    assert all(check_representation(*case) for case in cases)

    a, b, psi, hbar = cases[0]
    reduced.clear()
    assert check_representation(a, b, psi, hbar)
    target = reduced[0]
    (first, rc), *rest = rows(target, hbar)
    assert any(first[0] <= s for s in psi.terms)

    def scaled(t, hbar):
        return ((first, 2 * rc), *rest) if t == target else rows(t, hbar)

    monkeypatch.setattr(cone, "_reduce_cached", scaled)
    assert not check_representation(a, b, psi, hbar)
    assert check_representation(a, b, GnsVector.zero(), hbar)
    with pytest.raises(DomainError):
        check_representation(a, b, psi, Fraction(-1, 2))


def test_representation_check_reads_the_minimal_level_rows(monkeypatch):
    """Doubling the constant 1 of one minimal-level triple's row, which
    skips the reduction table, breaks the law: check_representation reads
    the shortcut, not only the cached rows of higher triples."""
    from exactstar import cone

    rng = seeded(173)
    rows = cone._reduction_rows
    for n in (1, 2):
        for hbar in (H, Fraction(5, 7)):
            a, b = random_disk_element(rng, n, 2), random_disk_element(rng, n, 2)
            psi = random_vector(rng, n, 2)
            minimal = []

            def recording(t, h):
                if t[2] == max(sum(t[0]), sum(t[1])):
                    minimal.append(t)
                return rows(t, h)

            monkeypatch.setattr(cone, "_reduction_rows", recording)
            assert check_representation(a, b, psi, hbar)
            assert minimal
            target = minimal[0]

            def scaled(t, h):
                return (((t[0], t[1]), 2),) if t == target else rows(t, h)

            monkeypatch.setattr(cone, "_reduction_rows", scaled)
            assert not check_representation(a, b, psi, hbar)
            monkeypatch.setattr(cone, "_reduction_rows", rows)


def test_sides_compare_as_integer_parts():
    """_same_parts compares accumulate() dicts without settling them: an
    explicit zero equals an absent key, equal values over different
    denominators are equal, and a difference in re alone or in im alone is
    caught."""
    from exactstar.gns import _same_parts

    key, other = MultiIndex((1,)), MultiIndex((2,))
    assert _same_parts({key: (0, 0, 5)}, {})
    assert _same_parts({}, {key: (0, 0, 3)})
    assert _same_parts({key: (1, 0, 2), other: (0, 0, 7)}, {key: (2, 0, 4)})
    assert _same_parts({key: (3, -6, 9)}, {key: (-1, 2, -3)})
    assert not _same_parts({key: (1, 0, 2)}, {key: (2, 1, 4)})
    assert not _same_parts({key: (1, 1, 2)}, {key: (3, 2, 4)})
    assert not _same_parts({key: (0, 1, 2)}, {})
    assert not _same_parts({}, {other: (1, 0, 3)})


def test_representation_holds_over_different_denominators(monkeypatch):
    """The two sides of the law reach the comparison over different
    denominators, and check_representation still finds them equal."""
    from exactstar import gns

    compare, compared = gns._same_parts, []

    def recording(lhs, rhs):
        compared.append(any(lhs[k][2] != rhs[k][2] for k in lhs.keys() & rhs.keys()))
        return compare(lhs, rhs)

    monkeypatch.setattr(gns, "_same_parts", recording)
    rng = seeded(163)
    for n in (1, 2):
        a, b, psi = random_disk_element(rng, n, 2), random_disk_element(rng, n, 2), random_vector(rng, n, 2)
        assert check_representation(a, b, psi, Fraction(5, 7))
    assert compared == [True, True]


@pytest.mark.parametrize("route", [gns_rep, gns_rep_via_product,
                                   lambda a, psi, hbar: check_representation(a, a, psi, hbar)],
                         ids=["gns_rep", "gns_rep_via_product", "check_representation"])
def test_action_rejects_a_dimension_mismatch(route):
    """An element at n = 2 against a vector with 1-entry indices is a domain
    error, not a truncated or empty action."""
    a = random_disk_element(seeded(167), 2, 2)
    with pytest.raises(DomainError, match="vector indices have length 1, the element has n = 2"):
        route(a, GnsVector({(0,): 1, (2,): GR(1, 1)}), H)
    # a vector or an element that mixes lengths, whose first index fits
    one = Element.basis((MultiIndex((1,)), Z1))
    with pytest.raises(DimensionError, match="vector indices have n = 1 and n = 2"):
        route(one, GnsVector({(1,): 1, (1, 0): 1}), H)
    mixed = Element({(MultiIndex((1,)), Z1): 1, (MultiIndex((1, 0)), MultiIndex((0, 0))): 1})
    with pytest.raises(DimensionError, match="disk indices have n = 1 and n = 2"):
        route(mixed, GnsVector({(1,): 1}), H)


@pytest.mark.parametrize("route", [disk_multiply, lambda a, b, hbar: disk_rows(a, b, hbar, [(0, 0)]),
                                   check_kernel_absorbed],
                         ids=["disk_multiply", "disk_rows", "check_kernel_absorbed"])
def test_disk_products_reject_mixed_dimensions(route):
    """Operands at n = 1 and n = 2 are a dimension error, not a truncated
    product, an empty row set or a passing kernel check."""
    a = Element.basis((MultiIndex((1,)), Z1))
    j = Element.basis((MultiIndex((1, 0)), MultiIndex((0, 1))))
    with pytest.raises(DimensionError, match="disk operands have n = 1 and n = 2"):
        route(a, j, H)
    with pytest.raises(DimensionError, match="disk operands have n = 2 and n = 1"):
        route(j, a, H)
    # one operand that mixes n = 1 and n = 2 indices, whose first index fits
    mixed = Element({(MultiIndex((1,)), Z1): 1, (MultiIndex((1, 0)), MultiIndex((0, 1))): 1})
    with pytest.raises(DimensionError, match="disk indices have n = 1 and n = 2"):
        route(a, mixed, H)


def test_disk_rows_rejects_a_bound_of_another_length():
    a = Element.basis((MultiIndex((1,)), Z1))
    with pytest.raises(DimensionError, match="a box has length 2, the operands n = 1"):
        disk_rows(a, a, H, [(0, 0)])


def test_adjoint_relation():
    rng = seeded(107)
    for n in (1, 2):
        a = random_disk_element(rng, n, 2)
        psi = random_vector(rng, n, 2)
        phi = random_vector(rng, n, 2)
        assert check_adjoint(a, psi, phi, H)
        assert check_adjoint(a, psi, phi, Fraction(3))


def test_cauchy_schwarz():
    rng = seeded(109)
    for _ in range(5):
        psi = random_vector(rng, 1, 3)
        phi = random_vector(rng, 1, 3)
        assert check_cauchy_schwarz(psi, phi, H)


def test_coherent_vector_pin():
    w = (GR(Fraction(1, 2)),)
    psi = coherent_vector(w, 2)
    assert psi.coeff(Z1) == GR(1)
    assert psi.coeff(E1) == GR(Fraction(2, 3))
    assert psi.coeff(MultiIndex((2,))) == GR(Fraction(8, 9))
    with pytest.raises(DomainError):
        coherent_vector((GR(1),), 2)
    with pytest.raises(DomainError):
        coherent_vector((GR(Fraction(4, 5), Fraction(3, 5)),), 1)


def test_reproducing_identity():
    points = [
        (GR(0),),
        (GR(Fraction(1, 2)),),
        (GR(Fraction(1, 3), Fraction(1, 3)),),
    ]
    rng = seeded(113)
    for w in points:
        psi = random_vector(rng, 1, 2)
        out = check_reproducing(w, psi, H)
        assert out["holds"], out
        out = check_reproducing(w, psi, Fraction(1))
        assert out["holds"], out


def test_positivity_exact():
    rng = seeded(127)
    for hbar in (H, Fraction(1), Fraction(3)):
        for _ in range(10):
            a = random_disk_element(rng, 1, 3)
            val = positivity_check(a, hbar)
            assert isinstance(val, Fraction)
            assert val >= 0
    assert positivity_check(Element.zero(), H) == 0
    with pytest.raises(DomainError):
        positivity_check(Element.basis((Z1, Z1)), Fraction(0))


def test_kernel_split_and_absorption():
    rng = seeded(131)
    a = random_disk_element(rng, 1, 2)
    k = state_kernel_part(a)
    assert all(p.degree() > 0 for (p, _q) in k.terms)
    assert state_kernel_part(a - k).is_zero()
    j = state_kernel_part(random_disk_element(rng, 1, 2))
    if not j.is_zero():
        assert check_kernel_absorbed(a, j, H)
    for n in (1, 2):
        a = random_disk_element(rng, n, 3)
        j = state_kernel_part(random_disk_element(rng, n, 3, nterms=6))
        assert not j.is_zero()
        assert gns_project(disk_multiply(a, j, H)).is_zero()
        assert check_kernel_absorbed(a, j, H)
    with pytest.raises(DomainError):
        check_kernel_absorbed(a, Element.basis((Z1, Z1)), H)


def test_involution_basics():
    rng = seeded(137)
    a = random_disk_element(rng, 1, 2)
    assert DiskModel(1, H).involution(a) == disk_involution(a)
    assert disk_involution(disk_involution(a)) == a
    # both a*a and aa* pair positively, though the two values differ in general
    assert positivity_check(a, H) >= 0
    assert positivity_check(disk_involution(a), H) >= 0
    c = GR(Fraction(2, 5), 1)
    assert disk_involution(a.scale(c)) == disk_involution(a).scale(c.conjugate())


def test_vector_json_round_trip():
    rng = seeded(139)
    psi = random_vector(rng, 2, 2)
    assert gns_vector_from_json(gns_vector_to_json(psi)) == psi


def test_vector_arithmetic():
    psi = GnsVector.basis(E1).scale(GR(2))
    phi = GnsVector.basis(E1)
    assert (psi - phi) == GnsVector.basis(E1)
    assert (phi - phi).is_zero()
    assert (phi - GnsVector.basis(Z1)).coeff(Z1) == GR(-1)
    assert (psi + phi).coeff(E1) == GR(3)
    assert GnsVector.zero().is_zero()
