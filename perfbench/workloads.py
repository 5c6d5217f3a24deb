"""The benchmark's seeded jobs, one per workload.

A job runs once per fresh interpreter (see worker.py).  It draws all of its
inputs from the seed before the first operation, then runs a fixed list of
operations in a closed loop: one caller, each operation starts after the
previous one ends.  Every result is checked against an independent route and
reduced to a digest, so that runs of one seed can be compared exactly with
each other and with the digests recorded in baseline.json.

Why each workload exists, and which layer metric should move which end-to-end
metric, is written down in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction

from exactstar import algebra, cone, gns, seminorms, su1n
from exactstar.algebra import Element, element_to_json, from_pairs
from exactstar.models import get_model
from exactstar.scalars import GaussianRational, MultiIndex, multi_indices_up_to_degree

GR = GaussianRational.of
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# results: canonical form and digest


def canon(x):
    """Order-independent, exact description of a result."""
    if isinstance(x, (Element, gns.GnsVector)):
        return sorted((repr(k), canon(v)) for k, v in x.terms.items())
    if isinstance(x, GaussianRational):
        return (str(x.re), str(x.im))
    if isinstance(x, dict):
        return sorted((repr(k), canon(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    return repr(x)


def digest(x) -> str:
    return hashlib.sha256(repr(canon(x)).encode()).hexdigest()[:12]


class Run:
    """Times operations, counts failures and keeps one digest per operation."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.first_start: float | None = None
        self.latencies_ms: list[float] = []
        self.digests: list[str] = []
        self.failed_ops: list[int] = []
        self.notes: list[str] = []
        self.counts: Counter = Counter()

    def op(self, fn, *args):
        """Run one timed operation; None when it raises."""
        start = time.monotonic()
        if self.first_start is None:
            self.first_start = start
        try:
            out = fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.latencies_ms.append((time.monotonic() - start) * 1e3)
            self.digests.append("error")
            self.fail(f"{getattr(fn, '__name__', fn)} raised {exc!r}")
            return None
        self.latencies_ms.append((time.monotonic() - start) * 1e3)
        self.digests.append(digest(out))
        return out

    def check(self, ok: bool, what: str, count: str | None = None) -> None:
        """Mark the last operation failed when an independent route disagrees."""
        if not ok:
            self.fail(what)
            if count is not None:
                self.counts[count] += 1

    def fail(self, what: str) -> None:
        last = len(self.latencies_ms) - 1
        if not self.failed_ops or self.failed_ops[-1] != last:
            self.failed_ops.append(last)
        if len(self.notes) < 20:
            self.notes.append(what)


# ---------------------------------------------------------------------------
# seeded inputs


def coeff(rng: random.Random) -> GaussianRational:
    while True:
        z = GR(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
               Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if not z.is_zero():
            return z


def cone_element(rng, n: int, levels, support_rng=None) -> Element:
    """One term per entry of levels, at a random (P, Q) of that level.

    support_rng, when given, draws the indices and rng only the coefficients."""
    srng = support_rng or rng
    terms = {}
    for alpha in levels:
        idx = list(multi_indices_up_to_degree(n, alpha))
        while True:
            key = (srng.choice(idx), srng.choice(idx), alpha)
            if key not in terms:
                terms[key] = coeff(rng)
                break
    return Element(terms)


def disk_element(rng, n: int, level: int, nterms: int = 4) -> Element:
    idx = list(multi_indices_up_to_degree(n, level))
    terms = {}
    while len(terms) < nterms:
        terms[(rng.choice(idx), rng.choice(idx))] = coeff(rng)
    return Element(terms)


def gns_vector(rng, n: int, level: int, nterms: int = 3) -> gns.GnsVector:
    idx = list(multi_indices_up_to_degree(n, level))
    terms = {}
    while len(terms) < nterms:
        terms[rng.choice(idx)] = coeff(rng)
    return gns.GnsVector(terms)


def laurent_element(rng, support_rng=None) -> Element:
    degrees = (support_rng or rng).sample(range(-3, 4), 4)
    return from_pairs([(k, coeff(rng)) for k in degrees])


def pinned_symmetries():
    """The three SU(1,1) matrices pinned by the acceptance checklist."""
    u = GR(Fraction(3, 5), Fraction(4, 5))
    zero, one = GR(0), GR(1)
    return [
        ((one, zero), (zero, one)),
        ((u, zero), (zero, u.conjugate())),
        ((GR(Fraction(5, 4)), GR(Fraction(3, 4))),
         (GR(Fraction(3, 4)), GR(Fraction(5, 4)))),
    ]


def scalar_inputs(elements) -> dict:
    """Index tuples and coefficients of a job's inputs, for the micro-batches."""
    indices, coeffs = [], []
    for el in elements:
        for idx, c in el.terms.items():
            coeffs.append(c)
            if isinstance(idx, tuple):
                indices.extend(tuple(p) for p in idx if isinstance(p, tuple))
    return {"indices": indices, "coeffs": coeffs}


# ---------------------------------------------------------------------------
# cone-kernel: cold structure-constant tables at n = 2


CONE_MUL_OPS = 96
CONE_MUL_LEVELS = (1, 2, 3, 3)
CONE_ORACLE_PER_OP = 3
CONE_AUT_OPS = 12
CONE_AUT_LEVELS = (0, 1, 2)


def cone_kernel(rng: random.Random, run: Run) -> dict:
    model = cone.ConeModel(2, HALF)
    muls = [(cone_element(rng, 2, CONE_MUL_LEVELS), cone_element(rng, 2, CONE_MUL_LEVELS))
            for _ in range(CONE_MUL_OPS)]
    oracle_picks = [
        [(rng.choice(list(a.terms)), rng.choice(list(b.terms)), rng.choice((HALF, Fraction(2))))
         for _ in range(CONE_ORACLE_PER_OP)]
        for a, b in muls
    ]
    syms = pinned_symmetries()
    auts = [(syms[i % 3], cone_element(rng, 1, CONE_AUT_LEVELS),
             cone_element(rng, 1, CONE_AUT_LEVELS)) for i in range(CONE_AUT_OPS)]

    for (a, b), picks in zip(muls, oracle_picks):
        prod = run.op(algebra.multiply, model, a, b)
        if prod is None:
            continue
        for t1, t2, hbar in picks:
            oracle = cone.oracle_structure_constants(t1, t2, hbar)
            run.check(oracle == cone.tilde_structure_constants(t1, t2),
                      f"oracle constants differ at {t1} x {t2}", "cone.oracle_mismatches")
    for U, a, b in auts:
        out = run.op(su1n.check_automorphism, U, a, b, HALF)
        if out is not None:
            run.check(out["holds"], "pullback is not multiplicative")
    return scalar_inputs([x for pair in muls for x in pair]
                         + [x for _, a, b in auts for x in (a, b)])


# ---------------------------------------------------------------------------
# seminorm-sweep: the product inequality of the acceptance checklist


SWEEP_CONE_PAIRS = 3
SWEEP_CONE_LEVELS = (0, 1, 2)
SWEEP_LAURENT_PAIRS = 2
SWEEP_TARGET_RANK = 6
SWEEP_M_MAX = 2
SWEEP_SUPPORT_SEED = "seminorm-sweep:supports"
SWEEP_MODES = {
    "exact": "seminorms.mode_exact",
    "root-sum-exact": "seminorms.mode_rootsum",
    "interval": "seminorms.mode_interval",
    "interval-inconclusive": "seminorms.mode_interval",
}


def seminorm_sweep(rng: random.Random, run: Run) -> dict:
    cone_model = cone.ConeModel(1, HALF)
    laurent = get_model("laurent:factorial")
    srng = random.Random(SWEEP_SUPPORT_SEED)
    pairs = [(cone_model, cone_element(rng, 1, SWEEP_CONE_LEVELS, srng),
              cone_element(rng, 1, SWEEP_CONE_LEVELS, srng)) for _ in range(SWEEP_CONE_PAIRS)]
    pairs += [(laurent, laurent_element(rng, srng), laurent_element(rng, srng))
              for _ in range(SWEEP_LAURENT_PAIRS)]

    for model, a, b in pairs:
        ab = algebra.multiply(model, a, b)
        tables = tuple(seminorms.HTable(model, x, seminorms.DEFAULT_TOL) for x in (ab, a, b))
        targets = [t for t in sorted(ab.terms, key=model.index_sort_key)
                   if model.index_rank(t) <= SWEEP_TARGET_RANK]
        for m in range(SWEEP_M_MAX + 1):
            for ell in range(1 << m):
                for t in targets:
                    out = run.op(seminorms.check_product_inequality,
                                 model, a, b, m, ell, t, seminorms.DEFAULT_TOL, tables)
                    if out is None:
                        continue
                    run.counts[SWEEP_MODES.get(out["mode"], "seminorms.mode_other")] += 1
                    # certified: exact comparison or a strict interval separation
                    run.check(out["holds"] is True,
                              f"{model.name} m={m} ell={ell} {t}: {out['mode']}",
                              "seminorms.violations")
    return scalar_inputs([x for _, a, b in pairs for x in (a, b)])


# ---------------------------------------------------------------------------
# disk-gns: quotient products and the vacuum representation


DISK_CASES = ((1, 5), (2, 2))
DISK_HBARS = (HALF, Fraction(3))
DISK_CASES_EACH = 10


def disk_gns(rng: random.Random, run: Run) -> dict:
    cases = []
    for n, level in DISK_CASES:
        for hbar in DISK_HBARS:
            for _ in range(DISK_CASES_EACH):
                cases.append((n, hbar, disk_element(rng, n, level), disk_element(rng, n, level),
                              gns_vector(rng, n, level)))

    for n, hbar, a, b, psi in cases:
        value = run.op(gns.positivity_check, a, hbar)
        if value is not None:
            vacuum = gns.GnsVector.basis(MultiIndex.zero(n))
            # <pi(a) vacuum, pi(a) vacuum> through the closed-form action
            run.check(value == gns.gns_norm_squared(gns.gns_rep(a, vacuum, hbar), hbar),
                      "vacuum expectation differs from the norm of pi(a) vacuum")
        closed = run.op(gns.gns_rep, a, psi, hbar)
        product = run.op(gns.gns_rep_via_product, a, psi, hbar)
        if closed is not None and product is not None:
            run.check(closed == product, "gns_rep differs from gns_rep_via_product",
                      "gns.route_mismatches")
        holds = run.op(gns.check_representation, a, b, psi, hbar)
        if holds is not None:
            run.check(holds is True, "pi(ab) psi != pi(a) pi(b) psi")
    return scalar_inputs([x for case in cases for x in case[2:4]])


# ---------------------------------------------------------------------------
# cli-batch: exactstar commands, each in its own interpreter


CHECK_SUITES = ("oracle", "positivity", "laurent-divergence", "ideal", "symmetry",
                "filtration", "associativity")


def _write(path: str, data) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True)
    return path


def _cli(run: Run, kind: str, args: list[str]):
    """One CLI command as an operation; its stdout, or None when it failed."""
    def command():
        proc = subprocess.run([sys.executable, "-m", "exactstar.cli", *args],
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout

    with run.tracer.span("cli." + kind) if run.tracer is not None else nullcontext():
        out = run.op(command)
    if out is None:
        return None
    code, stdout = out
    run.check(code == 0, f"exactstar {' '.join(args)} exited {code}")
    return stdout if code == 0 else None


def cli_batch(rng: random.Random, run: Run, workdir: str) -> dict:
    cone_model = cone.ConeModel(1, HALF)
    disk_model = cone.DiskModel(1, HALF)
    a = cone_element(rng, 1, (0, 1, 2, 3))
    b = cone_element(rng, 1, (0, 1, 2, 3))
    s = cone_element(rng, 1, (0, 1, 2))
    x = disk_element(rng, 1, 3)
    psi = gns_vector(rng, 1, 3)
    point = f"{rng.randint(1, 4)}/{rng.randint(5, 9)}"
    files = {
        "a": _write(os.path.join(workdir, "a.json"), element_to_json(cone_model, a)),
        "b": _write(os.path.join(workdir, "b.json"), element_to_json(cone_model, b)),
        "s": _write(os.path.join(workdir, "s.json"), element_to_json(cone_model, s)),
        "x": _write(os.path.join(workdir, "x.json"), element_to_json(disk_model, x)),
        "psi": _write(os.path.join(workdir, "psi.json"), gns.gns_vector_to_json(psi)),
    }
    cone_flags = ["--model", "cone", "--hbar", "1/2"]
    disk_flags = ["--model", "disk", "--hbar", "1/2"]

    out = _cli(run, "startup", ["algebra", "list"])
    if out is not None:
        run.check(any(m["name"] == "cone" for m in json.loads(out)["rows"]),
                  "cone model not listed")

    out = _cli(run, "product", cone_flags + ["product", files["a"], files["b"]])
    if out is not None:
        expected = element_to_json(cone_model, algebra.multiply(cone_model, a, b))
        run.check(json.loads(out) == expected, "product differs from the library product")

    out = _cli(run, "seminorm", cone_flags + ["--gamma-max", "4", "--depth", "4", "seminorm",
                                              files["s"], "--m-max", "2", "--radius", "1/2"])
    if out is not None:
        rows = json.loads(out)["rows"]
        run.check(len(rows) == 3 * len(s.terms) + 3, "seminorm table has the wrong shape")

    out = _cli(run, "eval", cone_flags + ["eval", files["a"], "--point", "2,0", "--point", "3/2,1/2"])
    if out is not None:
        got = [(r["re"], r["im"]) for r in json.loads(out)["rows"]]
        want = [canon(cone.eval_upstairs(a, w, HALF)) for w in ((GR(2), GR(0)),
                                                                  (GR(Fraction(3, 2)), GR(HALF)))]
        run.check(got == [tuple(v) for v in want], "eval differs from eval_upstairs")

    out = _cli(run, "gns_rep", disk_flags + ["gns", "rep", files["x"], files["psi"], "--route", "both"])
    if out is not None:
        run.check(json.loads(out) == gns.gns_vector_to_json(gns.gns_rep(x, psi, HALF)),
                  "gns rep differs from the library action")

    out = _cli(run, "gns_positivity", disk_flags + ["gns", "positivity", files["x"]])
    if out is not None:
        data = json.loads(out)
        run.check(data["nonnegative"] is True
                  and Fraction(data["value"]) == gns.positivity_check(x, HALF),
                  "gns positivity differs from the library value")

    out = _cli(run, "gns_coherent", ["gns", "coherent", "--point", point, "--cap", "4"])
    if out is not None:
        want = gns.gns_vector_to_json(gns.coherent_vector((GR(Fraction(point)),), 4))
        run.check(json.loads(out) == want, "coherent vector differs from the library")

    for suite in CHECK_SUITES:
        out = _cli(run, "check", ["check", suite])
        if out is not None:
            run.check(out.startswith(f"check {suite}: PASS"), f"check {suite} did not pass")
    return scalar_inputs([a, b, s, x])


def run_cli_batch(rng: random.Random, run: Run) -> dict:
    workdir = os.path.join(os.getcwd(), ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        return cli_batch(rng, run, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


JOBS = {
    "cone-kernel": cone_kernel,
    "seminorm-sweep": seminorm_sweep,
    "disk-gns": disk_gns,
    "cli-batch": run_cli_batch,
}
