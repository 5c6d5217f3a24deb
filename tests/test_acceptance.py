"""Release checklist: one test per line, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -s` to see the checklist as it runs.
Every comparison is exact unless a bracket width is stated; tolerances and
scopes are pinned inline and are not meant to be loosened.
"""

import random
import time
from fractions import Fraction

from exactstar.algebra import Element, from_pairs, multiply
from exactstar.cone import (
    ConeModel,
    cone_y,
    disk_lift,
    disk_multiply,
    disk_reduce,
    eval_disk,
    eval_upstairs,
    make_triple,
    occupancy_count,
    oracle_structure_constants,
    tilde_structure_constants,
    vanishing_ideal_witness,
)
from exactstar.gns import gns_rep, gns_rep_via_product, positivity_check
from exactstar.models import get_model
from exactstar.scalars import (
    GaussianRational,
    MultiIndex,
    factorial,
    multi_indices_up_to_degree,
)
from exactstar.seminorms import (
    DEFAULT_TOL,
    HTable,
    OmegaWeights,
    check_product_inequality,
    omega_h,
)
from exactstar import su1n

from laws import (
    check_reproducing,
    comparison_constant,
    cone_rowsum_gamma_total,
    growth_classify,
    phi_rescale,
    seminorm_max_ell,
)
from oracles import (
    e_minus_one_decimal,
    random_cone_element,
    random_disk_element,
    random_gr,
    random_vector,
    seeded,
)

GR = GaussianRational.of
H = Fraction(1, 2)


def finish(num, label, failures, checks, detail=""):
    status = "PASS" if not failures else "FAIL"
    print(f"[{num:02d}] {label}: {status} ({checks} checks)")
    assert not failures, detail or f"{label}: {failures[:5]}"


def cone_basis(n, cap):
    out = []
    for alpha in range(cap + 1):
        for P in multi_indices_up_to_degree(n, alpha):
            for Q in multi_indices_up_to_degree(n, alpha):
                out.append(make_triple(P, Q, alpha))
    return out


SURFACE_POINTS = [
    ((GR(1), GR(0)), GR(0)),
    ((GR(Fraction(5, 4)), GR(Fraction(3, 4))), GR(Fraction(3, 5))),
    ((GR(Fraction(13, 12)), GR(Fraction(5, 12))), GR(Fraction(5, 13))),
    ((GR(Fraction(5, 3)), GR(Fraction(4, 3))), GR(Fraction(4, 5))),
    ((GR(Fraction(5, 4)), GR(0, Fraction(3, 4))), GR(0, Fraction(3, 5))),
]

INTERIOR_POINTS = [
    (GR(2), GR(0)),
    (GR(2), GR(1)),
    (GR(Fraction(3, 2)), GR(Fraction(1, 2))),
    (GR(1), GR(0, Fraction(1, 2))),
    (GR(Fraction(5, 4), Fraction(1, 4)), GR(Fraction(1, 2))),
]


def test_structure_constant_equivalence():
    t0 = time.monotonic()
    failures, checks = [], 0
    jobs = [(1, 3), (2, 2)]
    for n, cap in jobs:
        triples = cone_basis(n, cap)
        for t1 in triples:
            for t2 in triples:
                ref = tilde_structure_constants(t1, t2)
                for hbar in (Fraction(1, 2), Fraction(2)):
                    got = oracle_structure_constants(t1, t2, hbar)
                    checks += 1
                    if got != ref:
                        failures.append((n, t1, t2, hbar))
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    finish(1, "structure constants agree across both routes", failures, checks)


def test_associativity_everywhere():
    t0 = time.monotonic()
    failures, checks = [], 0

    def scan(name, mul, basis):
        nonlocal checks
        for a in basis:
            for b in basis:
                for c in basis:
                    checks += 1
                    if not (mul(mul(a, b), c) - mul(a, mul(b, c))).is_zero():
                        failures.append((name, a, b, c))

    cm = ConeModel(1, H)
    scan("cone", lambda x, y: multiply(cm, x, y),
         [Element.basis(t) for t in cone_basis(1, 2)])
    scan("disk", lambda x, y: disk_multiply(x, y, H),
         [Element.basis((P, Q))
          for P in multi_indices_up_to_degree(1, 2)
          for Q in multi_indices_up_to_degree(1, 2)])
    wm = get_model("wick:1", hbar=H)
    wick_basis = [
        Element.basis((MultiIndex((i,)), MultiIndex((j,))))
        for i in range(4) for j in range(4) if i + j <= 3
    ]
    scan("wick", lambda x, y: multiply(wm, x, y), wick_basis)
    for name in ("poly:monomial", "poly:factorial"):
        pm = get_model(name)
        scan(name, lambda x, y, m=pm: multiply(m, x, y),
             [Element.basis(k) for k in range(3)])
    lm = get_model("laurent:factorial")
    scan("laurent", lambda x, y: multiply(lm, x, y),
         [Element.basis(k) for k in range(-2, 3)])
    for name in ("matrix:hat", "matrix:tilde"):
        mm = get_model(name)
        scan(name, lambda x, y, m=mm: multiply(m, x, y),
             [Element.basis((r, s)) for r in (1, 2) for s in (1, 2)])
    gm = get_model("group:Z")
    scan("group", lambda x, y: multiply(gm, x, y),
         [Element.basis(k) for k in range(-2, 3)])

    elapsed = time.monotonic() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    finish(2, "associativity on all in-scope bases", failures, checks)


def _random_int_element(rng, lo, hi, count=4):
    return from_pairs([(rng.randint(lo, hi), random_gr(rng)) for _ in range(count)])


def test_product_inequality_zero_violations():
    failures, checks = [], 0
    rng = seeded(20260825)
    cm = ConeModel(1, H)
    jobs = [
        (get_model("poly:monomial"),
         lambda: _random_int_element(rng, 0, 3),
         lambda idx: idx <= 6),
        (get_model("laurent:factorial"),
         lambda: _random_int_element(rng, -3, 3),
         lambda idx: abs(idx) <= 6),
        (cm,
         lambda: random_cone_element(rng, 1, 3),
         lambda idx: idx[2] <= 6),
    ]
    for model, draw, in_scope in jobs:
        for _ in range(50):
            a, b = draw(), draw()
            ab = multiply(model, a, b)
            tables = (
                HTable(model, ab, DEFAULT_TOL),
                HTable(model, a, DEFAULT_TOL),
                HTable(model, b, DEFAULT_TOL),
            )
            targets = [t for t in sorted(ab.terms, key=model.index_sort_key)
                       if in_scope(t)]
            for m in range(3):
                for ell in range(1 << m):
                    for t in targets:
                        out = check_product_inequality(
                            model, a, b, m, ell, t, tables=tables
                        )
                        checks += 1
                        if out["holds"] is not True:
                            failures.append((model.name, m, ell, t, out["mode"]))
    finish(3, "product inequality with zero violations", failures, checks)


def test_divergence_witnesses():
    failures, checks = [], 0
    rng = seeded(41)

    lp = get_model("laurent:plain")
    laurent_elems = [
        from_pairs([(1, 1)]),
        from_pairs([(-2, 1), (3, Fraction(1, 2))]),
        _random_int_element(rng, -4, 4),
    ]
    for a in laurent_elems:
        if a.is_zero():
            continue
        table = HTable(lp, a, DEFAULT_TOL)
        target = next(iter(a.terms))
        for ell in range(4):
            checks += 1
            if not table.h(2, ell, target).is_infinite():
                failures.append(("laurent:plain", ell))

    mp = get_model("matrix:plain")
    matrix_elems = [
        from_pairs([((1, 1), 1)]),
        from_pairs([((1, 2), 1), ((2, 3), GR(0, 1))]),
    ]
    for a in matrix_elems:
        # the presentation takes the largest branch word; mixed words stay
        # finite here, so the flag must come from the pure ones
        target = next(iter(a.terms))
        res = seminorm_max_ell(mp, a, 2, target)
        checks += 1
        if not res.h_bracket.is_divergent():
            failures.append(("matrix:plain", target))

    pm = get_model("poly:monomial")
    for p in (1, 2, 5):
        a = from_pairs([(p, 1)])
        for radius in (Fraction(1), Fraction(3, 2)):
            br = omega_h(pm, a, 1, 0, OmegaWeights.point(radius), 4)
            checks += 1
            if not br.is_divergent():
                failures.append(("poly radius", p, radius))
        br = omega_h(pm, a, 1, 0, OmegaWeights.point(Fraction(1, 2)), 4)
        checks += 1
        if not br.finite_certified():
            failures.append(("poly radius 1/2 not finite", p))
    finish(4, "divergence witnesses where expected", failures, checks)


def test_constant_symmetries_window_occupancy():
    failures, checks = [], 0
    for n, cap in ((1, 3), (2, 2)):
        triples = cone_basis(n, cap)
        for t1 in triples:
            for t2 in triples:
                alpha, beta = t1[2], t2[2]
                table = tilde_structure_constants(t1, t2)
                for (I, J, g), c in table.items():
                    checks += 1
                    if not isinstance(c, Fraction):
                        failures.append(("not rational", t1, t2, I, J, g))
                    if not (max(alpha, beta) <= g <= alpha + beta):
                        failures.append(("window", t1, t2, g))
                    if occupancy_count(t1, t2, (I, J, g)) not in (0, 1):
                        failures.append(("occupancy", t1, t2, I, J, g))
                mirrored = {(J, I, g): c for (I, J, g), c in table.items()}
                back = tilde_structure_constants(
                    (t2[1], t2[0], beta), (t1[1], t1[0], alpha)
                )
                checks += 1
                if back != mirrored:
                    failures.append(("transpose", t1, t2))
    finish(5, "reality, transpose, window, occupancy", failures, checks)


def test_rowsum_bound():
    failures, checks = [], 0
    for g in range(7):
        bound = Fraction((g + 1) ** 5 * 4 ** g)
        for alpha in range(g + 1):
            for P in multi_indices_up_to_degree(1, alpha):
                for Q in multi_indices_up_to_degree(1, alpha):
                    t = make_triple(P, Q, alpha)
                    total = cone_rowsum_gamma_total(t, g)
                    checks += 1
                    if total > bound:
                        failures.append((t, g, total, bound))
    finish(6, "row sums within the level bound", failures, checks)


def test_quotient_soundness():
    failures, checks = [], 0
    rng = seeded(59)
    cm = ConeModel(1, H)
    for _ in range(20):
        x = random_disk_element(rng, 1, 3)
        y = random_disk_element(rng, 1, 3)
        g = random_cone_element(rng, 1, 2)
        j = vanishing_ideal_witness(g, H)
        X, Y = disk_lift(x), disk_lift(y)
        base = disk_reduce(multiply(cm, X, Y), H)
        checks += 1
        if base != disk_multiply(x, y, H):
            failures.append("lift route disagrees with quotient product")
        left = disk_reduce(multiply(cm, X + j, Y), H)
        right = disk_reduce(multiply(cm, X, Y + j), H)
        checks += 1
        if not (left - base).is_zero() or not (right - base).is_zero():
            failures.append("ideal perturbation leaked into the quotient")
    for _ in range(3):
        X = random_cone_element(rng, 1, 2)
        Y = random_cone_element(rng, 1, 2)
        prod = multiply(cm, X, Y)
        red = disk_reduce(prod, H)
        for w, v in SURFACE_POINTS:
            checks += 1
            if eval_upstairs(prod, w, H) != eval_disk(red, (v,), H):
                failures.append(("surface evaluation mismatch", w))
    finish(7, "quotient ignores the radial ideal exactly", failures, checks)


def test_radial_pointwise_law():
    failures, checks = [], 0
    rng = seeded(61)
    for _ in range(10):
        b = random_cone_element(rng, 1, 3)
        witness = vanishing_ideal_witness(b, H)
        for w in INTERIOR_POINTS:
            y = GR(cone_y(w) - 1)
            checks += 1
            if eval_upstairs(witness, w, H) != y * eval_upstairs(b, w, H):
                failures.append((w,))
    finish(8, "radial factor acts pointwise", failures, checks)


def test_symmetry_and_momentum():
    failures, checks = [], 0
    u = GR(Fraction(3, 5), Fraction(4, 5))
    zero, one, i = GR(0), GR(1), GR(0, 1)
    pinned = [
        ((one, zero), (zero, one)),
        ((u, zero), (zero, u.conjugate())),
        ((GR(Fraction(5, 4)), GR(Fraction(3, 4))),
         (GR(Fraction(3, 4)), GR(Fraction(5, 4)))),
    ]
    basis = [Element.basis(t) for t in cone_basis(1, 2)]
    for U in pinned:
        for a in basis:
            for b in basis:
                checks += 1
                if not su1n.check_automorphism(U, a, b, H)["holds"]:
                    failures.append(("automorphism", U))
    gens = [((i, zero), (zero, -i)), ((zero, one), (one, zero)),
            ((zero, i), (-i, zero))]
    for xi in gens:
        for zeta in gens:
            checks += 1
            if not su1n.check_momentum_relations(xi, zeta, H)["holds"]:
                failures.append(("momentum", xi, zeta))
    finish(9, "symmetries are automorphisms, momenta close", failures, checks)


def test_vacuum_representation():
    failures, checks = [], 0
    rng = seeded(67)
    for hbar in (Fraction(1, 2), Fraction(1), Fraction(3)):
        for _ in range(50):
            a = random_disk_element(rng, 1, 3)
            checks += 1
            if positivity_check(a, hbar) < 0:
                failures.append(("negative state value", hbar))
    for k in range(30):
        hbar = (Fraction(1, 2), Fraction(1), Fraction(3))[k % 3]
        a = random_disk_element(rng, 1, 2)
        psi = random_vector(rng, 1, 2)
        checks += 1
        if gns_rep(a, psi, hbar) != gns_rep_via_product(a, psi, hbar):
            failures.append(("representation routes differ", hbar))
    points = [(GR(0),), (GR(Fraction(1, 2)),),
              (GR(Fraction(1, 3), Fraction(1, 3)),)]
    for w in points:
        for hbar in (Fraction(1, 2), Fraction(1)):
            psi = random_vector(rng, 1, 2)
            checks += 1
            if not check_reproducing(w, psi, hbar)["holds"]:
                failures.append(("reproducing", w, hbar))
    finish(10, "vacuum pairing positive, routes and kernel agree",
           failures, checks)


def test_parameter_rescaling():
    failures, checks = [], 0
    rng = seeded(71)
    points = INTERIOR_POINTS[:3]
    for _ in range(10):
        a = random_cone_element(rng, 1, 3)
        out = phi_rescale(a, Fraction(1, 2), Fraction(1, 8), points=points)
        checks += 1
        if not (out["status"] == "ok" and out["holds"]
                and Fraction(out["scale_sqrt"]) == 2
                and out["points_checked"] == 3):
            failures.append(out)
        for w in points:
            doubled = tuple(c * Fraction(2) for c in w)
            checks += 1
            if eval_upstairs(a, w, Fraction(1, 8)) != eval_upstairs(
                a, doubled, Fraction(1, 2)
            ):
                failures.append(("doubling identity", w))
    finish(11, "parameter rescaling is argument doubling", failures, checks)


def test_growth_bookkeeping():
    failures, checks = [], 0
    br = comparison_constant(Fraction(1), 20)
    lo, hi = e_minus_one_decimal(45)
    checks += 1
    if not (br.lo <= lo and hi <= br.hi.value):
        failures.append("bracket misses the series limit")
    checks += 1
    if not br.hi.value - br.lo < Fraction(1, 10 ** 10):
        failures.append(f"width {br.hi.value - br.lo} too large")

    exp_seq = {k: Fraction(2) ** k for k in range(7)}
    out = growth_classify(exp_seq, lambda k: k, [Fraction(1, 2), Fraction(1)],
                          bound={"kind": "exponential", "base": 2})
    for entry in out["entries"]:
        checks += 1
        if entry["subfactorial"] is not True or not entry["certified_sup"].finite_certified():
            failures.append(("exponential entry", entry["epsilon"]))

    fact_seq = {k: Fraction(factorial(k)) for k in range(6)}
    out = growth_classify(fact_seq, lambda k: k,
                          [Fraction(1, 2), Fraction(1)],
                          bound={"kind": "factorial"})
    half, one = out["entries"]
    checks += 2
    if half["subfactorial"] is not False or half["witness_rank"] < 1:
        failures.append("factorial sequence not rejected below the threshold")
    if one["subfactorial"] is not True or one["certified_sup"].lo != 1:
        failures.append("factorial sequence at the threshold")
    finish(12, "series bookkeeping with certified brackets", failures, checks)
