"""Invariant suites behind `exactstar check`.

Each suite is a generator taking (n, hbar, level) that yields one item per
check: None when the check holds, otherwise its failure message, which is
formatted only then.  run_suite counts the items.  The seeds and the order
of every draw are fixed, so a suite runs the same checks on every call.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import DEFAULT_TOL, Element, from_pairs, get_model, multiply
from .cone import (
    ConeModel,
    cone_triples,
    disk_reduce,
    make_triple,
    occupancy_count,
    oracle_structure_constants,
    tilde_structure_constants,
    vanishing_ideal_witness,
)
from .scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    MultiIndex,
    multi_indices_up_to_degree,
)


def _seeded_disk_elements(n: int, level: int, count: int, seed: int = 11):
    rng = random.Random(seed)
    idx = list(multi_indices_up_to_degree(n, level))
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(4):
            c = GaussianRational.of(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            )
            terms[(rng.choice(idx), rng.choice(idx))] = c
        out.append(Element(terms))
    return out


def oracle(n: int, hbar: Fraction, level: int):
    """Closed-form structure constants against the oracle route, at hbar and hbar + 1."""
    triples = list(cone_triples(n, level))
    for t1 in triples:
        for t2 in triples:
            ref = tilde_structure_constants(t1, t2)
            for h in (hbar, hbar + 1):
                yield (None if oracle_structure_constants(t1, t2, h) == ref
                       else f"constants differ at {t1} x {t2}, hbar={h}")


def positivity(n: int, hbar: Fraction, level: int):
    """The vacuum state is nonnegative on a* a for seeded disk elements a."""
    from .gns import positivity_check

    for a in _seeded_disk_elements(n, min(level, 3), 20):
        val = positivity_check(a, hbar)
        yield None if val >= 0 else f"negative vacuum expectation {val}"


def laurent_divergence(n: int, hbar: Fraction, level: int):
    """Plain Laurent and matrix weights diverge at depth 2; factorial ones do not."""
    from .seminorms import HTable

    a = from_pairs([(1, 1), (2, Fraction(1, 2))])
    plain = get_model("laurent:plain")
    for ell in range(4):
        yield (None if HTable(plain, a, DEFAULT_TOL).h(2, ell, 0).is_infinite()
               else f"plain weights should diverge at branch {ell}")
    hv = HTable(get_model("laurent:factorial"), a, DEFAULT_TOL).h(2, 0, 0)
    yield "factorial weights should stay finite" if hv.is_infinite() else None
    b = from_pairs([((1, 1), 1), ((2, 3), Fraction(1, 3))])
    hv = HTable(get_model("matrix:plain"), b, DEFAULT_TOL).h(2, 0, (1, 1))
    yield None if hv.is_infinite() else "plain matrix weights should diverge"


def ideal(n: int, hbar: Fraction, level: int):
    """The quotient ignores the radial ideal; the vacuum null space is absorbed."""
    from .gns import check_kernel_absorbed, state_kernel_part

    rng = random.Random(23)
    triples = list(cone_triples(n, min(level, 2)))
    for _ in range(5):
        t = rng.choice(triples)
        a = Element.basis(t).scale(GaussianRational.of(Fraction(rng.randint(1, 3)), 1))
        pert = a + vanishing_ideal_witness(Element.basis(rng.choice(triples)), hbar, n)
        yield (None if disk_reduce(a, hbar) == disk_reduce(pert, hbar)
               else f"radial perturbation changed the class of {t}")
    for a in _seeded_disk_elements(n, 2, 5, seed=29):
        yield (None if check_kernel_absorbed(a, state_kernel_part(a), hbar)
               else "vacuum null space not absorbed")


def symmetry(n: int, hbar: Fraction, level: int):
    """SU(1,1) acts by automorphisms fixing y; the momenta obey their two laws."""
    from . import su1n

    u0 = GaussianRational.of(Fraction(3, 5), Fraction(4, 5))
    ch, sh = GaussianRational.of(Fraction(5, 4)), GaussianRational.of(Fraction(3, 4))
    # the identity, a rotation and a boost
    pinned = [((GR_ONE, GR_ZERO), (GR_ZERO, GR_ONE)),
              ((u0, GR_ZERO), (GR_ZERO, u0.conjugate())), ((ch, sh), (sh, ch))]
    gens = [((GR_I, GR_ZERO), (GR_ZERO, -GR_I)), ((GR_ZERO, GR_ONE), (GR_ONE, GR_ZERO)),
            ((GR_ZERO, GR_I), (-GR_I, GR_ZERO))]
    basis = [Element.basis(t) for t in cone_triples(1, 1)]
    for U in pinned:
        yield (None if su1n.is_pseudo_unitary(U)
               else "pinned symmetry fails the defining identities")
        yield None if su1n.check_y_invariance(U, hbar) else "radial element moved by pullback"
        for a in basis:
            for b in basis:
                yield (None if su1n.check_automorphism(U, a, b, hbar)["holds"]
                       else "pullback is not multiplicative")
    for x in gens:
        for z in gens:
            yield (None if su1n.check_momentum_relations(x, z, hbar)["holds"]
                   else "momentum commutator mismatch")
    probe = Element.basis(make_triple(MultiIndex((1,)), MultiIndex((0,)), 1))
    for x in gens:
        yield (None if su1n.check_derivation_identity(x, probe, hbar)["holds"]
               else "derivation identity fails")


def filtration(n: int, hbar: Fraction, level: int):
    """Level window, 0/1 occupancy and transpose symmetry of the structure constants."""
    triples = list(cone_triples(n, min(level, 2)))
    for t1 in triples:
        for t2 in triples:
            alpha, beta = t1[2], t2[2]
            consts = tilde_structure_constants(t1, t2)
            for target in consts:
                if not max(alpha, beta) <= target[2] <= alpha + beta:
                    yield f"level window violated at {t1} x {t2}"
                elif occupancy_count(t1, t2, target) not in (0, 1):
                    yield "occupancy must be 0 or 1"
                else:
                    yield None
            back = tilde_structure_constants((t2[1], t2[0], beta), (t1[1], t1[0], alpha))
            mirrored = {(J, I, g): c for (I, J, g), c in consts.items()}
            yield None if back == mirrored else f"transpose symmetry fails at {t1} x {t2}"


def associativity(n: int, hbar: Fraction, level: int):
    """(ab)c = a(bc) on small bases of the cone and three other models."""
    cone = ConeModel(1, hbar)
    jobs = [
        (cone, [Element.basis(t) for t in cone.indices_up_to(1)]),
        (get_model("laurent:factorial"), [Element.basis(k) for k in range(-2, 3)]),
        (get_model("matrix:hat"), [Element.basis((r, s)) for r in (1, 2) for s in (1, 2)]),
        (get_model("group:Z"), [Element.basis(k) for k in range(-2, 3)]),
    ]
    for model, basis in jobs:
        for a in basis:
            for b in basis:
                for c in basis:
                    lhs = multiply(model, multiply(model, a, b), c)
                    rhs = multiply(model, a, multiply(model, b, c))
                    yield None if (lhs - rhs).is_zero() else f"{model.name}: associativity fails"


SUITES = {
    "oracle": oracle,
    "positivity": positivity,
    "laurent-divergence": laurent_divergence,
    "ideal": ideal,
    "symmetry": symmetry,
    "filtration": filtration,
    "associativity": associativity,
}


def run_suite(name: str, n: int, hbar: Fraction, level: int) -> tuple[int, list[str]]:
    """(number of checks, failure messages) of the suite SUITES[name]."""
    results = list(SUITES[name](n, hbar, level))
    return len(results), [msg for msg in results if msg is not None]
