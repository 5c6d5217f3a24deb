from fractions import Fraction

import pytest

from exactstar.algebra import DimensionError, DomainError, Element
from exactstar.scalars import GaussianRational, MultiIndex
from exactstar.su1n import (
    MOMENTUM_SIGN,
    apply_infinitesimal,
    apply_pullback,
    as_matrix,
    check_automorphism,
    check_derivation_identity,
    check_momentum_relations,
    check_y_invariance,
    eta_matrix,
    group_element_violations,
    infinitesimal_pullback,
    is_pseudo_unitary,
    lie_bracket,
    lie_element_violations,
    mat_adjoint,
    mat_det,
    mat_mul,
    momentum_element,
    pullback_entry_bound_holds,
    pullback_matrix,
)

from laws import phi_rescale
from oracles import pullback_sympy, random_cone_element, seeded

H = Fraction(1, 2)
GR = GaussianRational.of
Z1 = MultiIndex((0,))
E1 = MultiIndex((1,))

U_ID = as_matrix([[GR(1), GR(0)], [GR(0), GR(1)]])
U_DIAG = as_matrix(
    [[GR(Fraction(3, 5), Fraction(4, 5)), GR(0)], [GR(0), GR(Fraction(3, 5), Fraction(-4, 5))]]
)
U_BOOST = as_matrix(
    [[GR(Fraction(5, 4)), GR(Fraction(3, 4))], [GR(Fraction(3, 4)), GR(Fraction(5, 4))]]
)

XI_ROT = as_matrix([[GR(0, 1), GR(0)], [GR(0), GR(0, -1)]])
XI_SH1 = as_matrix([[GR(0), GR(1)], [GR(1), GR(0)]])
XI_SH2 = as_matrix([[GR(0), GR(0, 1)], [GR(0, -1), GR(0)]])


def test_pinned_group_elements_valid():
    for U in (U_ID, U_DIAG, U_BOOST):
        assert is_pseudo_unitary(U)
        assert group_element_violations(U) == []
        assert mat_det(U) == GR(1)


def test_violations_reported():
    bad = as_matrix([[GR(2), GR(0)], [GR(0), GR(1)]])
    v = group_element_violations(bad)
    assert len(v) >= 1
    assert not is_pseudo_unitary(bad)
    # unitary but wrong signature: eta is not preserved by a rotation mixing
    # the timelike and spacelike slots
    rot = as_matrix([[GR(0), GR(1)], [GR(-1), GR(0)]])
    assert not is_pseudo_unitary(rot)


def test_lie_elements():
    for xi in (XI_ROT, XI_SH1, XI_SH2):
        assert not lie_element_violations(xi)
        assert lie_element_violations(xi) == []
    assert lie_element_violations(as_matrix([[GR(1), GR(0)], [GR(0), GR(-1)]]))
    # the bracket stays inside the algebra
    assert not lie_element_violations(lie_bracket(XI_ROT, XI_SH1))


def test_matrix_helpers():
    eta = eta_matrix(1)
    assert eta == as_matrix([[GR(-1), GR(0)], [GR(0), GR(1)]])
    prod = mat_mul(U_DIAG, mat_adjoint(U_DIAG))
    assert prod == U_ID


def test_pullback_diagonal_entry_pin():
    M = pullback_matrix(U_DIAG, 1)
    assert M[((Z1, Z1), (Z1, Z1))] == GR(1)
    assert M[((E1, Z1), (E1, Z1))] == GR(Fraction(-7, 25), Fraction(-24, 25))
    assert M[((Z1, E1), (Z1, E1))] == GR(Fraction(-7, 25), Fraction(24, 25))
    assert M[((E1, E1), (E1, E1))] == GR(1)
    # the diagonal transformation mixes nothing else at level one
    assert len(M) == 4


def test_pullback_boost_row_matches_oracle():
    M = pullback_matrix(U_BOOST, 1)
    row = {key[1]: v for key, v in M.items() if key[0] == (E1, Z1)}
    pairs = (
        ((Fraction(5, 4), Fraction(0)), (Fraction(3, 4), Fraction(0))),
        ((Fraction(3, 4), Fraction(0)), (Fraction(5, 4), Fraction(0))),
    )
    assert row == pullback_sympy(pairs, 1, (1,), (0,))


def test_pullback_identity_is_identity():
    M = pullback_matrix(U_ID, 2)
    for (src, tgt), v in M.items():
        assert src == tgt and v == GR(1)


def compose_pullbacks(first: dict, second: dict) -> dict:
    """Matrix of applying `first` then `second` (both on one slice)."""
    by_src: dict = {}
    for (src, tgt), val in second.items():
        by_src.setdefault(src, []).append((tgt, val))
    out: dict = {}
    for (src, mid), v1 in first.items():
        for tgt, v2 in by_src.get(mid, ()):
            key = (src, tgt)
            acc = out.get(key)
            val = v1 * v2
            out[key] = val if acc is None else acc + val
    return {k: v for k, v in out.items() if not v.is_zero()}


def test_pullback_composition_law():
    UV = mat_mul(U_DIAG, U_BOOST)
    direct = pullback_matrix(UV, 2)
    composed = compose_pullbacks(pullback_matrix(U_DIAG, 2), pullback_matrix(U_BOOST, 2))
    assert direct == composed


def test_pullback_entry_bound():
    for U in (U_DIAG, U_BOOST):
        for gamma in range(4):
            assert pullback_entry_bound_holds(U, gamma)


def test_apply_pullback_linear_and_unital():
    rng = seeded(61)
    a = random_cone_element(rng, 1, 2)
    b = random_cone_element(rng, 1, 2)
    c = GR(Fraction(2, 3), 1)
    # U_DIAG has complex slice entries, U_BOOST real ones
    for U in (U_DIAG, U_BOOST):
        lhs = apply_pullback(U, a.scale(c) + b)
        rhs = apply_pullback(U, a).scale(c) + apply_pullback(U, b)
        assert lhs == rhs
    unit = Element.basis((Z1, Z1, 0))
    assert apply_pullback(U_BOOST, unit) == unit


def test_automorphism_on_basis_pairs():
    model_triples = [
        (Z1, Z1, 0),
        (Z1, Z1, 1),
        (E1, Z1, 1),
        (Z1, E1, 1),
        (E1, E1, 1),
    ]
    for U in (U_ID, U_DIAG, U_BOOST):
        for t1 in model_triples:
            for t2 in model_triples:
                out = check_automorphism(U, Element.basis(t1), Element.basis(t2), H)
                assert out["holds"], (U, t1, t2, out["witness"])


def test_y_invariance():
    for U in (U_ID, U_DIAG, U_BOOST):
        assert check_y_invariance(U, H)
        assert check_y_invariance(U, Fraction(2))


def test_momentum_element_pin():
    J = momentum_element(XI_ROT, H)
    assert J == Element({(Z1, Z1, 1): GR(Fraction(1, 2)), (E1, E1, 1): GR(Fraction(1, 2))})
    # scaling in hbar is linear
    assert momentum_element(XI_ROT, Fraction(2)) == J.scale(GR(4))


def test_momentum_commutators():
    gens = (XI_ROT, XI_SH1, XI_SH2)
    for xi in gens:
        for zeta in gens:
            out = check_momentum_relations(xi, zeta, H)
            assert out["holds"], out["witness"]


def test_momentum_sign_golden():
    # the derivation convention is fixed once; both sides computed exactly
    assert MOMENTUM_SIGN == -1
    probe = Element.basis((E1, Z1, 1))
    for xi in (XI_ROT, XI_SH1):
        out = check_derivation_identity(xi, probe, H)
        assert out["holds"], out["witness"]
    rng = seeded(67)
    a = random_cone_element(rng, 1, 2)
    out = check_derivation_identity(XI_SH2, a, H)
    assert out["holds"], out["witness"]


def test_infinitesimal_is_derivation():
    from exactstar.algebra import multiply
    from exactstar.cone import ConeModel

    model = ConeModel(1, H)
    rng = seeded(71)
    a = random_cone_element(rng, 1, 1, nterms=3)
    b = random_cone_element(rng, 1, 1, nterms=3)
    for xi in (XI_ROT, XI_SH1):
        lhs = apply_infinitesimal(xi, multiply(model, a, b))
        rhs = multiply(model, apply_infinitesimal(xi, a), b) + multiply(
            model, a, apply_infinitesimal(xi, b)
        )
        assert lhs == rhs


def test_infinitesimal_zeroth_order():
    # entries of the level-one infinitesimal action for the rotation generator
    D = infinitesimal_pullback(XI_ROT, 1)
    assert isinstance(D, dict)
    assert all(isinstance(v, GaussianRational) for v in D.values())
    assert apply_infinitesimal(XI_ROT, Element.basis((Z1, Z1, 0))).is_zero()


def test_phi_rescale_square_ratio():
    rng = seeded(73)
    a = random_cone_element(rng, 1, 2)
    out = phi_rescale(a, Fraction(1, 2), Fraction(1, 8))
    assert out["status"] == "ok"
    assert out["holds"] is True
    assert Fraction(out["scale_sqrt"]) == 2
    assert out["points_checked"] >= 3


def test_phi_rescale_skips_non_square_ratio():
    rng = seeded(79)
    a = random_cone_element(rng, 1, 1)
    out = phi_rescale(a, Fraction(1, 2), Fraction(1))
    assert out["status"] == "skipped"


def test_n2_embedded_boost():
    boost3 = as_matrix(
        [
            [GR(Fraction(5, 4)), GR(Fraction(3, 4)), GR(0)],
            [GR(Fraction(3, 4)), GR(Fraction(5, 4)), GR(0)],
            [GR(0), GR(0), GR(1)],
        ]
    )
    assert is_pseudo_unitary(boost3)
    assert check_y_invariance(boost3, H)
    assert pullback_entry_bound_holds(boost3, 2)
    z2 = MultiIndex((0, 0))
    e1 = MultiIndex((1, 0))
    e2 = MultiIndex((0, 1))
    for t1 in ((z2, z2, 1), (e1, z2, 1), (e2, e2, 1)):
        out = check_automorphism(boost3, Element.basis(t1), Element.basis((e1, e2, 1)), H)
        assert out["holds"]


def test_dimension_mismatch_rejected():
    with pytest.raises(DomainError):
        check_automorphism(U_BOOST, Element.basis((MultiIndex((1, 0)), MultiIndex((0, 0)), 1)),
                           Element.basis((MultiIndex((0, 0)), MultiIndex((0, 0)), 0)), H)


@pytest.mark.parametrize("act", [
    lambda a: apply_pullback(U_BOOST, a),
    lambda a: apply_infinitesimal(XI_SH1, a),
], ids=["pullback", "infinitesimal"])
def test_action_rejects_terms_outside_every_slice(act):
    # a term no slice holds raises instead of dropping out of the image
    with pytest.raises(DomainError, match="level 1 below"):
        act(Element.basis((MultiIndex((2,)), Z1, 1)))
    with pytest.raises(DomainError, match="level 1 below"):
        act(Element.basis((Z1, MultiIndex((2,)), 1)))
    with pytest.raises(DimensionError, match="length 1 and 2"):
        act(Element.basis((E1, MultiIndex((0, 0)), 1)))
    with pytest.raises(DimensionError, match="length 2 and 2"):
        act(Element.basis((MultiIndex((1, 0)), MultiIndex((0, 0)), 1)))
    # a valid term beside the bad one does not hide it
    with pytest.raises(DomainError):
        act(Element.basis((E1, Z1, 1)) + Element.basis((MultiIndex((2,)), Z1, 1)))


def test_automorphism_check_rejects_a_below_level_term():
    with pytest.raises(DomainError, match="level 1 below"):
        check_automorphism(U_BOOST, Element.basis((MultiIndex((2,)), Z1, 1)),
                           Element.basis((Z1, Z1, 0)), H)


def test_su1n_and_oracle_outputs_unchanged():
    """Pullback slices, infinitesimal slices and oracle constants pinned bit
    for bit: the sha256 of their exact reprs, recorded before the slices and
    the oracle ran on integers."""
    import hashlib

    from exactstar.cone import ConeModel, oracle_structure_constants

    digest = hashlib.sha256()

    def put_sorted(M):
        for key in sorted(M):
            digest.update(repr((key, M[key])).encode() + b"\n")

    boost3 = as_matrix(
        [
            [GR(Fraction(5, 4)), GR(Fraction(3, 4)), GR(0)],
            [GR(Fraction(3, 4)), GR(Fraction(5, 4)), GR(0)],
            [GR(0), GR(0), GR(1)],
        ]
    )
    for U in (U_ID, U_DIAG, U_BOOST):
        for gamma in range(5):
            put_sorted(pullback_matrix(U, gamma))
    for gamma in range(3):
        put_sorted(pullback_matrix(boost3, gamma))
    for xi in (XI_ROT, XI_SH1, XI_SH2):
        for gamma in range(4):
            put_sorted(infinitesimal_pullback(xi, gamma))
    triples = list(ConeModel(1, H).indices_up_to(2))
    for hbar in (H, Fraction(2), Fraction(5, 7)):
        for t1 in triples:
            for t2 in triples:
                put_sorted(oracle_structure_constants(t1, t2, hbar))
    assert digest.hexdigest()[:16] == "590f7a59cc5250b3"


def test_process_caches_bounded_and_recompute_identically():
    from exactstar import cone, su1n
    from exactstar.cone import disk_multiply
    from oracles import random_disk_element

    caches = {name: obj for mod in (cone, su1n) for name, obj in vars(mod).items()
              if hasattr(obj, "cache_clear")}
    assert {"_tilde_pairs", "_reduce_cached", "_pullback_cached",
            "_infinitesimal_cached"} <= set(caches)
    for name, cache in caches.items():
        assert cache.cache_info().maxsize is not None, name

    rng = seeded(53)
    a, b = random_disk_element(rng, 1, 3), random_disk_element(rng, 1, 3)
    c = random_cone_element(rng, 1, 3)

    def results():
        return (
            disk_multiply(a, b, H),
            disk_multiply(b, a, Fraction(5, 7)),
            apply_pullback(U_BOOST, c),
            apply_pullback(U_DIAG, c),
            apply_infinitesimal(XI_SH2, c),
        )

    # a caller that mutated a cached table would make the warm or the cold
    # recomputation differ from the first one
    first = results()
    assert results() == first
    for cache in caches.values():
        cache.cache_clear()
    assert results() == first
