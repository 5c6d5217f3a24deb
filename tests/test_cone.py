from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exactstar.algebra import (
    DimensionError,
    DomainError,
    Element,
    InfiniteFanError,
    accumulate_product,
    multiply,
    settled_element,
)
from exactstar.cone import (
    ConeModel,
    DiskModel,
    cone_rowsum,
    cone_y,
    disk_lift,
    disk_multiply,
    disk_reduce,
    disk_rows,
    eval_disk,
    eval_pair,
    eval_upstairs,
    ideal_level_dimension,
    make_triple,
    occupancy_count,
    oracle_structure_constants,
    tilde_structure_constants,
    vanishing_ideal_witness,
    y_minus_one,
)
from exactstar.models import get_model
from exactstar.scalars import (
    GaussianRational,
    MultiIndex,
    factorial,
    multi_indices_up_to_degree,
    multi_range,
)
from exactstar.seminorms import HTable, HVal, OmegaWeights, omega_h
from exactstar.su1n import apply_pullback, as_matrix

from laws import cone_rowsum_gamma_total
from oracles import (
    _tilde_coefficient,
    disk_coefficient_extraction,
    disk_multiply_two_step,
    disk_product_by_extraction,
    eval_disk_reference,
    eval_upstairs_reference,
    pochhammer,
    random_cone_element,
    random_disk_element,
    random_gr,
    reduction_rows_reference,
    seeded,
)

H = Fraction(1, 2)
Z1 = MultiIndex((0,))
E1 = MultiIndex((1,))

# five rational points of the cone surface y = 1 with their quotient images
SURFACE_POINTS = [
    ((GaussianRational.of(1), GaussianRational.of(0)), GaussianRational.of(0)),
    (
        (GaussianRational.of(Fraction(5, 4)), GaussianRational.of(Fraction(3, 4))),
        GaussianRational.of(Fraction(3, 5)),
    ),
    (
        (GaussianRational.of(Fraction(13, 12)), GaussianRational.of(Fraction(5, 12))),
        GaussianRational.of(Fraction(5, 13)),
    ),
    (
        (GaussianRational.of(Fraction(5, 3)), GaussianRational.of(Fraction(4, 3))),
        GaussianRational.of(Fraction(4, 5)),
    ),
    (
        (GaussianRational.of(Fraction(5, 4)), GaussianRational.of(0, Fraction(3, 4))),
        GaussianRational.of(0, Fraction(3, 5)),
    ),
]

# interior points with y != 1 exercise the pointwise law away from the surface
INTERIOR_POINTS = [
    (GaussianRational.of(2), GaussianRational.of(0)),
    (GaussianRational.of(2), GaussianRational.of(1)),
    (GaussianRational.of(Fraction(3, 2)), GaussianRational.of(Fraction(1, 2))),
    (GaussianRational.of(1), GaussianRational.of(0, Fraction(1, 2))),
    (GaussianRational.of(Fraction(5, 4), Fraction(1, 4)), GaussianRational.of(Fraction(1, 2))),
]


def _triples(n, level):
    return list(ConeModel(n, H).indices_up_to(level))


def test_two_routes_agree_n1():
    for t1 in _triples(1, 2):
        for t2 in _triples(1, 2):
            ref = tilde_structure_constants(t1, t2)
            for hb in (H, Fraction(3, 7)):
                assert oracle_structure_constants(t1, t2, hb) == ref


def test_two_routes_agree_n2():
    for t1 in _triples(2, 1):
        for t2 in _triples(2, 1):
            assert oracle_structure_constants(t1, t2, Fraction(1)) == tilde_structure_constants(
                t1, t2
            )


def test_oracle_cancels_non_dyadic_hbar():
    # 2 hbar = 10/7 and 6/11: both the numerator and the denominator of 2 hbar
    # differ from 1, so one wrong power of either leaves hbar in a constant
    for n, level in ((1, 3), (2, 2)):
        triples = _triples(n, level)
        for t1 in triples:
            for t2 in triples:
                ref = tilde_structure_constants(t1, t2)
                for hb in (Fraction(5, 7), Fraction(3, 11)):
                    assert oracle_structure_constants(t1, t2, hb) == ref, (t1, t2, hb)


def test_constant_support_window_and_occupancy():
    for t1 in _triples(1, 2):
        for t2 in _triples(1, 2):
            alpha, beta = t1[2], t2[2]
            for (I, J, g), c in tilde_structure_constants(t1, t2).items():
                assert isinstance(c, Fraction) and c != 0
                assert max(alpha, beta) <= g <= alpha + beta
                assert occupancy_count(t1, t2, (I, J, g)) in (0, 1)


def test_closed_form_occupancy_matches_witness():
    for n, level in ((1, 3), (2, 3)):
        triples = _triples(n, level)
        for t1 in triples:
            P, Q, alpha = t1
            for t2 in triples:
                R, S, beta = t2
                # every target triple with a consistent Kp = P+R-I = Q+S-J
                # and kp = alpha+beta-gamma-|Kp| >= 0
                for Kp in multi_range((P + R).meet(Q + S)):
                    I, J = (P + R).minus(Kp), (Q + S).minus(Kp)
                    low = max(I.degree(), J.degree())
                    for gamma in range(low, alpha + beta - Kp.degree() + 1):
                        target = (I, J, gamma)
                        closed = _tilde_coefficient(t1, t2, target) != 0
                        assert closed == (occupancy_count(t1, t2, target) == 1)


def test_closed_form_fans_match_nonzero_weights():
    # row_parents generates the fan from alpha <= gamma, Q <= J,
    # alpha - |Q| <= gamma - |J|; witness: every index up to the level,
    # filtered by a nonzero weight (same order too).  The column fan, the
    # starred row fan of the starred target, holds the nonzero column
    # weights once each, in its own order
    for n, level in ((1, 4), (2, 3), (3, 2)):
        model = ConeModel(n, H)
        for g in model.indices_up_to(level):
            every = list(model.indices_up_to(g[2]))
            assert list(model.row_parents(g)) == [p for p in every if model._row(p, g) != 0]
            col = model.fan(1, g)
            assert len(col) == len(set(col))
            assert set(col) == {(p, w) for p in every if (w := model.col_sum(p, g)) != 0}


def test_constant_transpose_mirror():
    for t1 in _triples(1, 2):
        for t2 in _triples(1, 2):
            fwd = tilde_structure_constants(t1, t2)
            back = tilde_structure_constants((t2[1], t2[0], t2[2]), (t1[1], t1[0], t1[2]))
            assert back == {(J, I, g): c for (I, J, g), c in fwd.items()}


def test_rowsum_zero_above_level_and_at_least_one():
    t = (Z1, Z1, 2)
    assert cone_rowsum(t, (Z1, Z1, 1)) == 0
    for alpha in range(3):
        for gamma in range(alpha, 4):
            assert cone_rowsum((Z1, Z1, alpha), (Z1, Z1, gamma)) >= 1
    assert cone_rowsum((E1, Z1, 1), (E1, Z1, 1)) >= 1


def test_rowsum_matches_brute_force():
    # both weights against sums of |C| over every partner (R, S, beta) with
    # beta <= gamma, read off the pair tables (a constant needs
    # gamma >= max(alpha, beta))
    E2, F2 = MultiIndex((1, 0)), MultiIndex((0, 1))
    Z2 = MultiIndex((0, 0))
    cases = (
        (1, [(Z1, Z1, 1), (E1, Z1, 1), (E1, E1, 2)]),
        (2, [(Z2, Z2, 1), (E2, F2, 1), (E2 + F2, F2, 2), (F2 + F2, E2, 2)]),
    )
    for n, ts in cases:
        model = ConeModel(n, H)
        targets = list(model.indices_up_to(2))
        for t in ts:
            for out in targets:
                brute_row = brute_col = Fraction(0)
                for partner in model.indices_up_to(out[2]):
                    brute_row += abs(tilde_structure_constants(t, partner).get(out, 0))
                    brute_col += abs(tilde_structure_constants(partner, t).get(out, 0))
                assert cone_rowsum(t, out) == brute_row, (t, out)
                assert model.col_sum(t, out) == brute_col, (t, out)


def test_cone_col_weights_read_the_row_memo():
    # col_sum is row_sum at the transposed pair, so filling a table on both
    # branch bits stores each column fan as the transposed row fan of the
    # transposed target, every weight of it held in the row memo
    model = ConeModel(1, H)
    a = random_cone_element(seeded(17), 1, 2)
    table = HTable(model, a)
    for t in model.indices_up_to(2):
        for m in (1, 2):
            for ell in range(1 << m):
                table.h(m, ell, t)
    cols = {g: fan for (bit, g), fan in model._fan_memo.items() if bit == 1}
    assert cols
    for (I, J, gamma), fan in cols.items():
        assert fan == [((Q, P, al), w) for (P, Q, al), w in model.fan(0, (J, I, gamma))]
        assert all(model._row_memo[(Q, P, al), (J, I, gamma)] == w for (P, Q, al), w in fan)
    t, g = (E1, Z1, 1), (E1 + E1, E1, 2)
    assert model.col_sum(t, g) == model.row_sum((Z1, E1, 1), (E1, E1 + E1, 2)) > 0


def test_cone_operands_of_another_dimension():
    # a cone product or weight with operands of another n raises instead of
    # returning an n = 1 triple from the n = 2 model
    a = Element.basis((E1, Z1, 1))
    b = Element.basis((MultiIndex((1, 0)), MultiIndex((0, 1)), 1))
    for n in (1, 2):
        with pytest.raises(DimensionError, match="cone operands have n = 1 and n = 2"):
            multiply(ConeModel(n, H), a, b)
        with pytest.raises(DimensionError, match="cone operands have n = 2 and n = 1"):
            multiply(ConeModel(n, H), b, a)
    with pytest.raises(DimensionError, match="cone operands have n = 1, the model n = 2"):
        multiply(ConeModel(2, H), a, a)
    with pytest.raises(DimensionError, match="cone operands have n = 1, the model n = 2"):
        multiply(ConeModel(2, H), Element.zero(), a)
    assert multiply(ConeModel(2, H), Element.zero(), Element.zero()) == Element.zero()
    # the disk model's product, built from the same pair tables
    x = Element.basis((E1, Z1))
    with pytest.raises(DimensionError, match="disk operands have n = 1, the model n = 2"):
        multiply(DiskModel(2, H), x, x)
    with pytest.raises(DimensionError, match="disk operands have n = 1 and n = 2"):
        multiply(DiskModel(1, H), x, Element.basis((MultiIndex((1, 0)), MultiIndex((0, 1)))))
    t1, t2 = next(iter(a.terms)), next(iter(b.terms))
    model = ConeModel(2, H)
    with pytest.raises(DimensionError, match="cone indices have n = 1 and n = 2"):
        cone_rowsum(t1, t2)
    with pytest.raises(DimensionError, match="cone indices have n = 1 and n = 2"):
        model.col_sum(t1, t2)
    with pytest.raises(DimensionError, match="cone indices have n = 1 and n = 2"):
        HTable(model, a).h(1, 0, t2)
    with pytest.raises(DimensionError, match="cone indices have n = 1 and n = 2"):
        cone_rowsum((E1, MultiIndex((0, 0)), 1), (E1, Z1, 1))
    # one operand that mixes n = 1 and n = 2 indices, whose first index fits
    mixed = Element({make_triple((1,), (0,), 1): 1, make_triple((1, 0), (0, 0), 1): 1})
    with pytest.raises(DimensionError, match="cone indices have n = 1 and n = 2"):
        multiply(ConeModel(1, H), mixed, Element.basis((E1, E1, 1)))
    mixed_disk = Element({(E1, Z1): 1, (MultiIndex((1, 0)), MultiIndex((0, 0))): 1})
    for left, right in ((mixed_disk, x), (x, mixed_disk)):
        with pytest.raises(DimensionError, match="disk indices have n = 1 and n = 2"):
            multiply(DiskModel(1, H), left, right)


def _tilde_pairs_reference(t1, t2):
    """The per-target loop: derive each target from Kp, then ask
    _tilde_coefficient for its constant (which derives Kp again)."""
    (P, Q, alpha), (R, S, beta) = t1, t2
    out = {}
    for Kp in multi_range(P.meet(S)):
        I, J = (P + R).minus(Kp), (Q + S).minus(Kp)
        for gamma in range(max(alpha, beta), alpha + beta - Kp.degree() + 1):
            c = _tilde_coefficient(t1, t2, (I, J, gamma))
            if c:
                out[(I, J, gamma)] = c
    return out


def test_weights_and_constants_match_wick_route():
    # row and column weights on every (t, target) against sums of |C| from
    # the Wick route (each product computed once), and the pair table
    # against the per-target closed form, key order included
    for n, level in ((1, 3), (2, 2)):
        model = ConeModel(n, H)
        triples = _triples(n, level)
        row, col = {}, {}
        for t1 in triples:
            for t2 in triples:
                oracle = oracle_structure_constants(t1, t2, H)
                pairs = tilde_structure_constants(t1, t2)
                assert list(pairs.items()) == list(_tilde_pairs_reference(t1, t2).items())
                assert oracle == pairs
                for target, c in oracle.items():
                    row[t1, target] = row.get((t1, target), 0) + abs(c)
                    col[t2, target] = col.get((t2, target), 0) + abs(c)
        for t in triples:
            for target in triples:
                assert cone_rowsum(t, target) == row.get((t, target), 0), (t, target)
                assert model.col_sum(t, target) == col.get((t, target), 0), (t, target)


def test_pair_table_order_n3():
    # the ordered comparison above, at n = 3 where Kp runs over three entries
    triples = _triples(3, 1)
    for t1 in triples:
        for t2 in triples:
            pairs = tilde_structure_constants(t1, t2)
            assert list(pairs.items()) == list(_tilde_pairs_reference(t1, t2).items())
            assert pairs == oracle_structure_constants(t1, t2, Fraction(5, 7))


def test_pair_tables_in_the_cone_kernel_regime():
    # n = 2 triples of level <= 3, the products the cone-kernel benchmark
    # multiplies: the model's table is the per-target closed form in order,
    # an integral constant is an int and any other a Fraction, and the public
    # view gives Fractions only
    triples = _triples(2, 3)
    rng = seeded(23)
    model = ConeModel(2, H)
    for _ in range(400):
        t1, t2 = rng.choice(triples), rng.choice(triples)
        table = model.pair_product(t1, t2)
        assert list(table.items()) == list(_tilde_pairs_reference(t1, t2).items())
        assert all((type(c) is int) == (Fraction(c).denominator == 1) for c in table.values())
        assert all(type(c) is Fraction for c in tilde_structure_constants(t1, t2).values())


def test_reduction_rows_match_the_fraction_reference():
    # keys, order and values of every row set against the Fraction-built
    # reference; |P| never decreases along a row list, which disk_rows reads
    from exactstar import cone

    for n, level in ((1, 4), (2, 3), (3, 2)):
        for t in _triples(n, level):
            for hbar in (H, Fraction(3), Fraction(5, 7), Fraction(-3, 7)):
                rows = cone._reduce_cached(t, hbar)
                assert list(rows) == list(reduction_rows_reference(t, hbar)), (t, hbar)
                assert all((type(c) is int) == (Fraction(c).denominator == 1) for _, c in rows)
                degrees = [sum(P) for (P, _), _ in rows]
                assert degrees == sorted(degrees), (t, hbar)


def test_rowsum_gamma_total_bound():
    for t in _triples(1, 2):
        for gamma in range(5):
            total = cone_rowsum_gamma_total(t, gamma)
            assert total <= Fraction(gamma + 1) ** 5 * Fraction(4) ** gamma


def test_cone_associativity_on_basis():
    model = ConeModel(1, H)
    basis = [Element.basis(t) for t in _triples(1, 1)]
    for a in basis:
        for b in basis:
            ab = multiply(model, a, b)
            for c in basis:
                assert multiply(model, ab, c) == multiply(model, a, multiply(model, b, c))


def test_cone_unit_and_involution():
    model = ConeModel(1, H)
    rng = seeded(3)
    a = random_cone_element(rng, 1, 2)
    b = random_cone_element(rng, 1, 2)
    u = model.unit()
    assert multiply(model, u, a) == a
    assert multiply(model, a, u) == a
    lhs = model.involution(multiply(model, a, b))
    rhs = multiply(model, model.involution(b), model.involution(a))
    assert lhs == rhs
    assert model.involution(Element.basis((E1, Z1, 1))) == Element.basis((Z1, E1, 1))


def rank_sum(model, a, m, ell, gamma, table=None):
    """h[m, ell, .] summed over every triple of level gamma."""
    if table is None:
        table = HTable(model, a)
    acc = HVal.zero()
    for P in multi_indices_up_to_degree(model.n, gamma):
        for Q in multi_indices_up_to_degree(model.n, gamma):
            acc = acc.plus(table.h(m, ell, (P, Q, gamma)))
    return acc


def test_rank_sum_pins():
    model = ConeModel(1, H)
    u = model.unit()
    assert [rank_sum(model, u, 0, 0, g).exact_rational() for g in range(3)] == [1, 0, 0]
    assert [rank_sum(model, u, 1, 0, g).exact_rational() for g in range(3)] == [1, 4, 9]
    a = Element.basis((Z1, Z1, 1))
    assert [rank_sum(model, a, 1, 0, g).exact_rational() for g in range(4)] == [0, 3, 18, 60]
    assert rank_sum(model, a, 2, 1, 2).exact_rational() == 538
    # single-term elements reduce the combined value to a row-sum total
    for g in range(4):
        assert rank_sum(model, a, 1, 0, g).exact_rational() == cone_rowsum_gamma_total(
            (Z1, Z1, 1), g
        )


def test_h_vanishes_below_filtration():
    model = ConeModel(1, H)
    table = HTable(model, Element.basis((Z1, Z1, 2)))
    for m in (1, 2):
        for idx in model.indices_up_to(1):
            assert table.h(m, 0, idx).is_zero()


def test_combined_square_inequality():
    model = ConeModel(1, H)
    rng = seeded(9)
    for _ in range(3):
        a = random_cone_element(rng, 1, 2, nterms=3)
        table = HTable(model, a)
        for m in (0, 1):
            for ell in range(1 << m):
                for g in range(3):
                    lhs = sum(
                        (rank_sum(model, a, m, ell, al, table).exact_rational() or Fraction(0))
                        ** 2
                        for al in range(g + 1)
                    )
                    rhs = (g + 1) ** 2 * rank_sum(model, a, m + 1, 2 * ell, g, table).exact_rational()
                    assert lhs <= rhs


def test_cone_h_majorant_dominates():
    model = ConeModel(1, H)
    rng = seeded(21)
    a = random_cone_element(rng, 1, 2, nterms=3)
    table = HTable(model, a)
    for m in (0, 1, 2):
        K, B, p = model.h_majorant(a, m)
        for ell in range(1 << m):
            for g in range(5):
                br = rank_sum(model, a, m, ell, g, table).to_bracket()
                assert not br.hi.infinite
                assert br.hi.value <= K * B**g * Fraction(g + 1) ** p


def test_omega_point_factorial_cone_nests_and_shrinks():
    model = ConeModel(1, H)
    a = Element.basis((Z1, Z1, 1))
    weights = OmegaWeights.point_factorial(Fraction(1, 3))
    prev = None
    for depth in (2, 4, 6, 8):
        br = omega_h(model, a, 1, 0, weights, depth)
        assert br.finite_certified()
        if prev is not None:
            assert br.lo >= prev.lo
            assert br.hi.value <= prev.hi.value
        prev = br
    assert omega_h(model, Element.zero(), 1, 0, weights, 2).is_zero()
    with pytest.raises(DomainError):
        omega_h(model, a, 1, 0, OmegaWeights.point_factorial(Fraction(0)), 2)


def test_eval_upstairs_pins():
    for g in range(4):
        v = eval_upstairs(Element.basis((Z1, Z1, g)), (1, 0), H)
        assert v == GaussianRational.of(Fraction(1, factorial(g)))
    for hb in (Fraction(1, 3), Fraction(2)):
        v = eval_upstairs(Element.basis((Z1, Z1, 2)), (1, 0), hb)
        assert v == GaussianRational.of(pochhammer(Fraction(1, 2 * hb), 2) / 4)
    v = eval_upstairs(Element.basis((E1, E1, 1)), (Fraction(5, 4), Fraction(3, 4)), H)
    assert v == GaussianRational.of(Fraction(9, 16))


def test_eval_upstairs_rejects_outside_points():
    a = Element.basis((Z1, Z1, 0))
    with pytest.raises(DomainError):
        eval_upstairs(a, (Fraction(1, 2), 1), H)
    with pytest.raises(DomainError):
        eval_upstairs(a, (0, 0), H)
    with pytest.raises(DomainError):
        eval_upstairs(a, (1, 0), Fraction(0))
    # a triple built without make_triple, below its minimal level
    with pytest.raises(DomainError, match="level 1 below"):
        eval_upstairs(Element.basis((MultiIndex((2,)), Z1, 1)), (2, 0), H)


@pytest.mark.parametrize("point", [(2,), (2, 0, 0)])
def test_evaluate_rejects_points_of_the_wrong_dimension(point):
    # a cone point has n + 1 coordinates and a disk point n
    with pytest.raises(DimensionError, match="coordinates"):
        ConeModel(1, H).evaluate(Element.basis((E1, Z1, 1)), point)
    with pytest.raises(DimensionError, match="coordinates"):
        DiskModel(1, H).evaluate(Element.basis((E1, Z1)), tuple(Fraction(1, 4) for _ in point[1:]))


@pytest.mark.parametrize("n", [1, 2])
def test_evaluations_reject_points_of_the_wrong_length(n):
    # the library functions check the point against the element's n: n + 1
    # coordinates upstairs, n on the disk; any point fits the zero element,
    # but a cone point has a coordinate w0 and the two points of a pair
    # agree in length
    z, e = MultiIndex.zero(n), MultiIndex.unit(n, 0)
    cone_a, disk_a = Element.basis((e, z, 1)), Element.basis((e, z))
    cone_ok, disk_ok = (1,) + (0,) * n, (0,) * n
    for point in (cone_ok[:-1], cone_ok + (0,)):
        match = f"a cone point has {n + 1} coordinates, got {len(point)}"
        with pytest.raises(DimensionError, match=match):
            eval_upstairs(cone_a, point, H)
        with pytest.raises(DimensionError, match=match):
            eval_pair(cone_a, point, cone_ok, H)
        with pytest.raises(DimensionError, match=match):
            eval_pair(cone_a, cone_ok, point, H)
        assert eval_upstairs(Element.zero(), point, H).is_zero()
    for point in (disk_ok[:-1], disk_ok + (0,)):
        with pytest.raises(DimensionError, match=f"a disk point has {n} coordinates, got {len(point)}"):
            eval_disk(disk_a, point, H)
        assert eval_disk(Element.zero(), point, H).is_zero()
    # an element that mixes lengths fits no point, whichever its first index
    mixed = Element({(e, z, 1): 1, (MultiIndex.unit(n + 1, 0), MultiIndex.zero(n + 1), 1): 1})
    mixed_disk = Element({(e, z): 1, (MultiIndex.zero(n + 1), MultiIndex.zero(n + 1)): 1})
    match = f"indices have n = {n} and n = {n + 1}"
    with pytest.raises(DimensionError, match=match):
        eval_upstairs(mixed, cone_ok, H)
    with pytest.raises(DimensionError, match=match):
        eval_pair(mixed, cone_ok, cone_ok, H)
    with pytest.raises(DimensionError, match=match):
        eval_disk(mixed_disk, disk_ok, H)
    zero = Element.zero()
    with pytest.raises(DimensionError, match="a cone point has no coordinates"):
        eval_upstairs(zero, (), H)
    with pytest.raises(DimensionError, match="a cone point has no coordinates"):
        eval_pair(zero, (), (), H)
    with pytest.raises(DimensionError, match=f"a cone point has {n + 1} coordinates, got {n + 2}"):
        eval_pair(zero, cone_ok, cone_ok + (0,), H)


def test_quotient_eval_consistency():
    rng = seeded(17)
    for _ in range(4):
        a = random_cone_element(rng, 1, 2)
        d = disk_reduce(a, H)
        for w, v in SURFACE_POINTS:
            assert eval_upstairs(a, w, H) == eval_disk(d, (v,), H)


@pytest.mark.parametrize("n", [1, 2])
def test_evaluations_match_the_reference_formulas(n):
    # eval_upstairs and eval_disk run through the table kernel eval_pair; the
    # y-based cone formula and the disk formula are the second routes
    rng = seeded(71 + n)
    for hbar in (Fraction(1, 2), Fraction(3, 7), Fraction(5, 2), Fraction(-3, 7)):
        for _ in range(6):
            a, d = random_cone_element(rng, n, 3), random_disk_element(rng, n, 3)
            w = (random_gr(rng) + 7,) + tuple(random_gr(rng, 1) for _ in range(n))
            v = tuple(random_gr(rng, 1) * Fraction(1, 2 * n) for _ in range(n))
            assert eval_upstairs(a, w, hbar) == eval_upstairs_reference(a, w, hbar)
            assert eval_disk(d, v, hbar) == eval_disk_reference(d, v, hbar)


def test_reduce_class_pins():
    got = disk_reduce(Element.basis((Z1, Z1, 1)), H)
    assert got == Element(
        {(Z1, Z1): GaussianRational.of(1), (E1, E1): GaussianRational.of(1)}
    )
    got = disk_reduce(Element.basis((Z1, Z1, 1)), Fraction(1))
    assert got == Element(
        {(Z1, Z1): GaussianRational.of(Fraction(1, 2)), (E1, E1): GaussianRational.of(1)}
    )
    # level-zero classes drop the level marker and stay put
    assert disk_reduce(Element.basis((E1, Z1, 1)), H).coeff((E1, Z1)) != GaussianRational.of(0)


def test_ideal_dimension_pins():
    assert ideal_level_dimension(1, H, 2) == 5
    assert ideal_level_dimension(1, H, 3) == 14
    assert ideal_level_dimension(1, Fraction(1), 2) == 5
    assert ideal_level_dimension(1, Fraction(1), 3) == 14


def test_quotient_kills_ideal():
    rng = seeded(29)
    for _ in range(5):
        a = random_cone_element(rng, 1, 2)
        b = random_cone_element(rng, 1, 2)
        w = vanishing_ideal_witness(b, H, 1)
        assert disk_reduce(a + w, H) == disk_reduce(a, H)
        for pt, _v in SURFACE_POINTS:
            assert eval_upstairs(w, pt, H).is_zero()


def test_radial_pointwise_law():
    rng = seeded(31)
    for _ in range(4):
        b = random_cone_element(rng, 1, 2)
        w = vanishing_ideal_witness(b, H, 1)
        for pt in INTERIOR_POINTS:
            y = cone_y(pt)
            lhs = eval_upstairs(w, pt, H)
            rhs = GaussianRational.of(y - 1) * eval_upstairs(b, pt, H)
            assert lhs == rhs


def test_y_minus_one_values():
    ym1 = y_minus_one(1, H)
    for pt in INTERIOR_POINTS + [w for w, _ in SURFACE_POINTS]:
        assert eval_upstairs(ym1, pt, H) == GaussianRational.of(cone_y(pt) - 1)


def test_disk_product_well_defined():
    rng = seeded(41)
    model = ConeModel(1, H)
    for _ in range(3):
        d1 = random_disk_element(rng, 1, 2)
        d2 = random_disk_element(rng, 1, 2)
        direct = disk_multiply(d1, d2, H)
        via_lift = disk_reduce(multiply(model, disk_lift(d1), disk_lift(d2)), H)
        assert direct == via_lift
        # perturbing the lift by the ideal cannot change the class
        pert = disk_lift(d1) + vanishing_ideal_witness(random_cone_element(rng, 1, 1), H, 1)
        assert disk_reduce(multiply(model, pert, disk_lift(d2)), H) == direct


@pytest.mark.parametrize("hbar", [H, Fraction(-3, 7), Fraction(5, 2)], ids=str)
@pytest.mark.parametrize("n", [1, 2])
def test_disk_associativity_and_unit(n, hbar):
    rng = seeded(43)
    dm = DiskModel(n, hbar)
    a, b, c = (random_disk_element(rng, n, 2, nterms=3) for _ in range(3))
    assert multiply(dm, multiply(dm, a, b), c) == multiply(dm, a, multiply(dm, b, c))
    assert multiply(dm, dm.unit(), a) == a
    assert multiply(dm, a, dm.unit()) == a


@pytest.mark.parametrize("hbar", [H, Fraction(3, 7), Fraction(-5, 7)], ids=["1/2", "3/7", "-5/7"])
@pytest.mark.parametrize("n", [1, 2])
def test_disk_model_multiply_matches_disk_multiply(n, hbar):
    # multiply() on a DiskModel runs disk_multiply; coefficient extraction
    # from the cone product of the lifts is the route that reads no
    # reduction rows
    rng = seeded(59 + n)
    dm = DiskModel(n, hbar)
    for _ in range(2):
        a = random_disk_element(rng, n, 2, nterms=3)
        b = random_disk_element(rng, n, 2, nterms=3)
        got = multiply(dm, a, b)
        assert got == disk_multiply(a, b, hbar) == disk_product_by_extraction(a, b, hbar)
        assert not got.is_zero()
    # a disk class is a cone triple at its minimal level, and that level is its rank
    minimal = [(P, Q, alpha) for P, Q, alpha in ConeModel(n, hbar).indices_up_to(2)
               if alpha == max(P.degree(), Q.degree())]
    assert sorted(dm.indices_up_to(2)) == sorted((P, Q) for P, Q, _ in minimal)
    assert all(dm.index_rank((P, Q)) == alpha for P, Q, alpha in minimal)


@pytest.mark.parametrize("hbar", [H, Fraction(-3, 7)], ids=str)
def test_disk_model_multiply_reduces_each_upstairs_triple_once(monkeypatch, hbar):
    """multiply on a DiskModel sums the whole upstairs product before it
    reduces: each nonzero upstairs triple reads its reduction rows once, and
    no other triple reads them."""
    from exactstar import cone

    rng = seeded(83)
    dm = DiskModel(2, hbar)
    a, b = (random_disk_element(rng, 2, 2, nterms=6) for _ in range(2))
    up = accumulate_product(ConeModel(2, hbar).pair_product, disk_lift(a).terms.items(),
                            disk_lift(b).terms.items())
    reduced, reduce_rows = [], cone._reduction_rows

    def recording_rows(t, hbar):
        reduced.append(t)
        return reduce_rows(t, hbar)

    monkeypatch.setattr(cone, "_reduction_rows", recording_rows)
    multiply(dm, a, b)
    assert len(reduced) == len(set(reduced))
    assert set(reduced) == {t for t, (re, im, _) in up.items() if re or im}


def _cancelling_pair(n):
    # (f_u + f_v)(f_v - f_u) with u = (e_0, 0) and v = (0, e_0): the pointwise
    # leading terms of f_u f_v and f_v f_u cancel upstairs
    u = (MultiIndex.unit(n, 0), MultiIndex.zero(n))
    v = (u[1], u[0])
    return Element({u: 1, v: 1}), Element({u: -1, v: 1})


@pytest.mark.parametrize("hbar", [H, Fraction(3), Fraction(-5, 7), Fraction(3, 11)], ids=str)
@pytest.mark.parametrize("n, level", [(1, 5), (2, 2)])
def test_disk_multiply_matches_two_step_route(n, level, hbar):
    rng = seeded(67 + n)
    pairs = [(random_disk_element(rng, n, level), random_disk_element(rng, n, level))
             for _ in range(4)]
    x, y = _cancelling_pair(n)
    up = accumulate_product(ConeModel(n, hbar).pair_product, disk_lift(x).terms.items(),
                            disk_lift(y).terms.items())
    assert any(re == im == 0 for re, im, _ in up.values())
    for a, b in pairs + [(x, y)]:
        assert disk_multiply(a, b, hbar) == disk_multiply_two_step(a, b, hbar)


def test_disk_column_multiplies_only_column_pairs(monkeypatch):
    """A pair (P, Q) . (R, S) reaches a row I below a box only when
    R + (P - S)+ is below it, and only upstairs triples with I below some
    box reach those rows: disk_rows asks for no other pair table, and leaves
    the reduction rows of every other upstairs triple unread.  At the one
    box 0, the holomorphic column, that is R = 0 and P <= S."""
    from exactstar import cone

    rng = seeded(79)
    a, b = random_disk_element(rng, 2, 2, nterms=8), random_disk_element(rng, 2, 2, nterms=8)
    lifted_a, lifted_b = disk_lift(a).terms, disk_lift(b).terms
    seen, reduced = [], []
    pair_table, reduce_rows = cone._tilde_pairs, cone._reduction_rows

    def recording_pairs(left, right):
        seen.append((left, right))
        return pair_table(left, right)

    def recording_rows(t, hbar):
        reduced.append(t)
        return reduce_rows(t, hbar)

    def below(P, boxes):
        return any(P <= box for box in boxes)

    monkeypatch.setattr(cone, "_tilde_pairs", recording_pairs)
    monkeypatch.setattr(cone, "_reduction_rows", recording_rows)
    multiplied = {}
    for boxes in [[(0, 0)], [(1, 0)], [(0, 2)], [(1, 1)], [(1, 0), (0, 2)]]:
        boxes = list(map(MultiIndex, boxes))
        want = {(t1, t2) for t1 in lifted_a for t2 in lifted_b
                if below(MultiIndex([r + max(p - s, 0) for p, r, s in zip(t1[0], t2[0], t2[1])]),
                         boxes)}
        assert 0 < len(want) < len(lifted_a) * len(lifted_b)
        seen.clear()
        reduced.clear()
        rows = disk_rows(a, b, H, boxes)
        assert len(seen) == len(want) and set(seen) == want
        assert reduced and all(below(t[0], boxes) for t in reduced)
        assert rows and all(below(P, boxes) for P, _ in rows)
        multiplied[tuple(map(tuple, boxes))] = want
    # two boxes multiply each pair once, and more pairs than either box alone
    one, two = multiplied[((1, 0),)], multiplied[((0, 2),)]
    assert multiplied[((1, 0), (0, 2))] == one | two and one - two and two - one


def test_disk_products_build_no_cone_model(monkeypatch):
    """disk_multiply and disk_rows read the pair table directly: neither
    builds a ConeModel, and both give what they gave before."""
    rng = seeded(89)
    a, b = random_disk_element(rng, 2, 2), random_disk_element(rng, 2, 2)
    box = MultiIndex((1, 1))
    want = disk_multiply(a, b, H), disk_rows(a, b, H, [box])

    def refuse(self, *args):
        raise AssertionError("a disk product built a ConeModel")

    monkeypatch.setattr(ConeModel, "__init__", refuse)
    assert (disk_multiply(a, b, H), disk_rows(a, b, H, [box])) == want
    assert not want[0].is_zero() and want[1]


@pytest.mark.parametrize("n, level", [(1, 4), (2, 2), (3, 2)])
def test_disk_rows_over_boxes_are_the_rows_of_the_product(n, level):
    """disk_rows over a list of boxes gives exactly the entries of
    disk_multiply whose P lies below some box: for the one box 0, for
    several boxes, and with a box repeated or below another, which changes
    nothing."""
    rng = seeded(83 + n)
    indices = list(multi_indices_up_to_degree(n, level))
    zero = MultiIndex.zero(n)
    for hbar in (H, Fraction(3, 7), Fraction(-3, 7)):
        a = random_disk_element(rng, n, level)
        b = random_disk_element(rng, n, level)
        whole = disk_multiply(a, b, hbar)
        boxes = rng.sample(indices, 3)
        for box_set in ([zero], boxes, boxes + [boxes[0], zero, boxes[1].meet(boxes[2])]):
            rows = settled_element(disk_rows(a, b, hbar, box_set))
            assert rows == Element({k: c for k, c in whole.terms.items()
                                    if any(k[0] <= box for box in box_set)}), (n, hbar, box_set)
    assert disk_rows(a, b, H, []) == {}


def test_minimal_level_rows_skip_the_table(monkeypatch):
    """A triple at its minimal level reduces to itself with the int 1: for
    every such triple with n <= 2 and |I|, |J| <= 4, the shortcut equals the
    cached rows and the Fraction reference, value and int type alike, and it
    never reads the cache."""
    from exactstar import cone

    hbars = (H, Fraction(3, 7), Fraction(5, 2), Fraction(-3, 7))
    triples = [(I, J, max(sum(I), sum(J))) for n in (1, 2)
               for I in multi_indices_up_to_degree(n, 4) for J in multi_indices_up_to_degree(n, 4)]
    want = {(t, hbar): cone._reduce_cached(t, hbar) for t in triples for hbar in hbars}
    for (t, hbar), rows in want.items():
        assert list(rows) == list(reduction_rows_reference(t, hbar)) == [((t[0], t[1]), 1)]
        assert type(rows[0][1]) is int

    def disabled(*args, **kw):
        raise AssertionError("a minimal-level triple read the reduction table")

    monkeypatch.setattr(cone, "_reduce_cached", disabled)
    for (t, hbar), rows in want.items():
        got = cone._reduction_rows(t, hbar)
        assert got == rows and type(got[0][1]) is int


def test_disk_multiply_zero_operands_and_disallowed_hbar():
    zero, a = Element.zero(), random_disk_element(seeded(71), 1, 2)
    assert disk_multiply(zero, zero, Fraction(-1, 2)).is_zero()
    for x, y in ((a, zero), (zero, a), (a, a)):
        with pytest.raises(DomainError, match="hbar -1/2 is not an allowed value"):
            disk_multiply(x, y, Fraction(-1, 2))
    with pytest.raises(DomainError, match="hbar -1/2 is not an allowed value"):
        disk_reduce(disk_lift(a), Fraction(-1, 2))


def test_products_hold_no_zero_coefficient():
    rng = seeded(73)
    cone, dm = ConeModel(1, H), DiskModel(1, H)
    boost = as_matrix([[Fraction(5, 4), Fraction(3, 4)], [Fraction(3, 4), Fraction(5, 4)]])
    a, b = _cancelling_pair(1)
    products = [multiply(dm, a, b), disk_multiply(a, b, H),
                multiply(cone, disk_lift(a), disk_lift(b)),
                apply_pullback(boost, y_minus_one(1, H))]
    for _ in range(3):
        x, y = random_cone_element(rng, 1, 3), random_cone_element(rng, 1, 3)
        products += [multiply(cone, x, y), apply_pullback(boost, x)]
    for p in products:
        assert p.terms and all(not c.is_zero() for c in p.terms.values())


def test_disk_involution_is_antihomomorphism():
    rng = seeded(47)
    dm = DiskModel(1, H)
    a = random_disk_element(rng, 1, 2)
    b = random_disk_element(rng, 1, 2)
    lhs = dm.involution(disk_multiply(a, b, H))
    rhs = disk_multiply(dm.involution(b), dm.involution(a), H)
    assert lhs == rhs


def test_disk_coefficient_extraction_matches_reduce():
    rng = seeded(53)
    for _ in range(3):
        a = random_cone_element(rng, 1, 2)
        d = disk_reduce(a, H)
        for R, S in [(Z1, Z1), (E1, Z1), (E1, E1), (MultiIndex((2,)), E1)]:
            assert disk_coefficient_extraction(a, R, S, H) == d.coeff((R, S))


def test_disk_coefficient_extraction_skips_the_reduction_rows(monkeypatch):
    """The extraction route must not read the rows that disk_reduce uses."""
    from exactstar import cone

    rng = seeded(59)
    a = random_cone_element(rng, 1, 3)
    indices = [(Z1, Z1), (E1, Z1), (E1, E1), (MultiIndex((2,)), E1)]
    want = [disk_reduce(a, Fraction(5, 7)).coeff(idx) for idx in indices]

    def disabled(*args, **kw):
        raise AssertionError("coefficient extraction reached _reduce_cached")

    monkeypatch.setattr(cone, "_reduce_cached", disabled)
    assert [disk_coefficient_extraction(a, R, S, Fraction(5, 7)) for R, S in indices] == want


def test_tilde_coefficient_skips_the_pair_tables(monkeypatch):
    """The per-target reference must not read the tables it is compared with."""
    from exactstar import cone

    pairs = [(t1, t2) for t1 in _triples(2, 2) for t2 in _triples(2, 2)]
    want = {pair: tilde_structure_constants(*pair) for pair in pairs}

    def disabled(*args, **kw):
        raise AssertionError("the per-target reference reached the pair tables")

    monkeypatch.setattr(cone, "_tilde_pairs", disabled)
    monkeypatch.setattr(cone, "tilde_structure_constants", disabled)
    for (t1, t2), table in want.items():
        assert table and all(_tilde_coefficient(t1, t2, t) == c for t, c in table.items())
        assert _tilde_pairs_reference(t1, t2) == table


def test_disk_has_no_finite_fans():
    dm = DiskModel(1, H)
    a = Element.basis((Z1, Z1))
    with pytest.raises(InfiniteFanError):
        HTable(dm, a).h(1, 0, (Z1, Z1))
    with pytest.raises(InfiniteFanError):
        dm.row_parents((Z1, Z1))


def test_pair_evaluation_diagonal_and_symmetry():
    model = ConeModel(1, H)
    rng = seeded(59)
    a = random_cone_element(rng, 1, 2)
    for w, _v in SURFACE_POINTS:
        assert eval_pair(a, w, w, H) == eval_upstairs_reference(a, w, H)
    u = INTERIOR_POINTS[0]
    v = INTERIOR_POINTS[2]
    lhs = eval_pair(model.involution(a), u, v, H)
    rhs = eval_pair(a, v, u, H).conjugate()
    assert lhs == rhs


def test_pair_evaluation_rejects_degenerate():
    a = Element.basis((Z1, Z1, 0))
    u = (GaussianRational.of(1), GaussianRational.of(1))
    with pytest.raises(DomainError):
        eval_pair(a, u, (GaussianRational.of(1), GaussianRational.of(1)), H)


def test_cone_point_classifier():
    assert cone_y((1, 0)) == 1
    assert cone_y((Fraction(5, 4), Fraction(3, 4))) == 1
    assert cone_y((2, 1)) == 3
    assert cone_y((Fraction(1, 2), 1)) < 0


def test_get_model_cone_disk():
    c = get_model("cone", hbar=H, n=1)
    assert isinstance(c, ConeModel) and c.name == "cone"
    d = get_model("disk", hbar=H, n=1)
    assert isinstance(d, DiskModel)
    with pytest.raises(DomainError):
        get_model("cone", hbar=Fraction(0), n=1)
