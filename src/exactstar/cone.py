"""Star product on the cone over index triples and its quotient to the disk.

Basis functions f_{P,Q,alpha} carry two multiindices and a level
alpha >= max(|P|, |Q|).  Their product has rational structure constants that
do not depend on the deformation parameter hbar: the closed form
(tilde_structure_constants) and an independent route through the unscaled
e-basis product (oracle_structure_constants) must agree.  Setting y = 1
quotients onto the unit disk, where classes reduce to pairs (P, Q) at the
minimal level; hbar reenters through the reduction and the evaluation
functionals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd
from operator import le
from typing import Iterable, Iterator

from .algebra import (
    BaseModel,
    DimensionError,
    DomainError,
    Element,
    InfiniteFanError,
    _as_int,
    accumulate_product,
    check_point_dimension,
    multiply,
    settled_element,
)
from .scalars import (
    CACHE_ENTRIES,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    MultiIndex,
    accumulate,
    factorial,
    factorials_through,
    gaussian_parts,
    is_allowed_hbar,
    multi_indices_of_degree_within,
    multi_indices_up_to_degree,
    multi_range,
    settle,
    _multi_index,
)

Triple = tuple  # (P: MultiIndex, Q: MultiIndex, alpha: int)
DiskIndex = tuple  # (P: MultiIndex, Q: MultiIndex)


def make_triple(P, Q, alpha) -> Triple:
    P, Q = MultiIndex(P), MultiIndex(Q)
    if len(P) != len(Q):
        raise DomainError("triple multiindices must share one dimension")
    alpha = _as_int(alpha, "triple level")
    _check_levels((P, Q, alpha))
    return (P, Q, alpha)


def _check_levels(*triples: Triple) -> None:
    """DomainError unless each triple's level is at least max(|P|, |Q|).
    The cached kernels test their own slacks and call it only when one is
    negative."""
    for P, Q, alpha in triples:
        if alpha < max(sum(P), sum(Q)):
            raise DomainError(f"level {alpha} below max(|P|, |Q|)")


def allowed_hbar(hbar) -> Fraction:
    """hbar as a Fraction; DomainError unless it is an allowed value, one at
    which no prefactor (1/(2 hbar))_r of the quotient vanishes."""
    hbar = Fraction(hbar)
    if not is_allowed_hbar(hbar):
        raise DomainError(f"hbar {hbar} is not an allowed value")
    return hbar


def cone_triples(n: int, level: int) -> Iterator[Triple]:
    """Every triple (P, Q, alpha) with alpha <= level, by alpha, then P, then Q."""
    for alpha in range(level + 1):
        for P in multi_indices_up_to_degree(n, alpha):
            for Q in multi_indices_up_to_degree(n, alpha):
                yield (P, Q, alpha)


def _falling(m: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= m - j
    return out


def _multi_falling(P: MultiIndex, K: MultiIndex) -> int:
    out = 1
    for p, k in zip(P, K, strict=True):
        out *= _falling(p, k)
    return out


# ---------------------------------------------------------------------------
# structure constants, two routes


def _wick_terms(t1: Triple, t2: Triple, a: int, b: int) -> dict:
    """The explicit (k, K) double sum of the e-basis product with 2 hbar = a/b,
    as {target: (num, den)} integer pairs; each cell adds
    (-1)^k (a/b)^(k+|K|) (alpha-|P|)_k (beta-|S|)_k (P)_K (S)_K / (k! K!),
    the falling factorials (m)_k = m (m-1) ... (m-k+1)."""
    (P, Q, alpha), (R, S, beta) = t1, t2
    sum_pr, sum_qs = P + R, Q + S
    pd, sd = P.degree(), S.degree()
    acc: dict = {}
    for k in range(min(alpha - pd, beta - sd) + 1):
        lead = _falling(alpha - pd, k) * _falling(beta - sd, k)
        if k % 2:
            lead = -lead
        kf = factorial(k)
        for K in multi_range(P.meet(S)):
            e = k + K.degree()
            num = lead * _multi_falling(P, K) * _multi_falling(S, K) * a**e
            den = kf * K.factorial() * b**e
            tgt = (
                _multi_index(x - y for x, y in zip(sum_pr, K)),
                _multi_index(x - y for x, y in zip(sum_qs, K)),
                alpha + beta - e,
            )
            prev = acc.get(tgt)
            acc[tgt] = (num, den) if prev is None else (
                prev[0] * den + num * prev[1], prev[1] * den)
    return acc


def occupancy_count(t1: Triple, t2: Triple, target: Triple) -> int:
    """How many (k, K) cells of the e-basis double sum hit the target index.

    Brute-force witness for the closed-form occupancy of the per-target
    reference _tilde_coefficient in tests/oracles.py: the count is always 0
    or 1, which the test suite asserts."""
    (P, Q, alpha), (R, S, beta) = t1, t2
    I, J, gamma = target
    count = 0
    kmax = min(alpha - P.degree(), beta - S.degree())
    for k in range(kmax + 1):
        for K in multi_range(P.meet(S)):
            if (
                alpha + beta - k - K.degree() == gamma
                and (P + R).minus(K) == I
                and (Q + S).minus(K) == J
            ):
                count += 1
    return count


@lru_cache(maxsize=CACHE_ENTRIES)
def _tilde_pairs(t1: Triple, t2: Triple) -> dict:
    """The nonzero closed-form constants, keyed in (Kp, gamma) order.

    Each Kp <= P.meet(S) fixes the target multiindices, so the Kp and
    C(I, R) C(J, Q) that the per-target reference (_tilde_coefficient in
    tests/oracles.py) re-derives are computed once here.  Its range test
    0 <= kp <= min(alpha-|P|, beta-|S|) is the level loop's range: the loop
    stops at kp = 0, and the two level binomials vanish exactly when kp
    exceeds alpha-|P| or beta-|S|, so it starts where kp is that minimum.
    With gamma = alpha+beta-|Kp|-kp
    the level binomials read C(beta-|R| + alpha-|P| - kp, beta-|R|) and
    C(alpha-|Q| + beta-|S| - kp, alpha-|Q|), which do not depend on Kp; and
    C(I, R) C(J, Q) >= 1, since I - R = P - Kp and J - Q = S - Kp.  So every
    constant met is nonzero.

    The table is one pass per Kp in integers: math.comb for the binomials,
    one factorial lookup (factorials_through(alpha): kp and every entry of
    Kp are at most alpha) for kp! and Kp!.  A constant is stored as an int
    when the division comes out even and as a Fraction only when it does
    not; accumulate() reads either.  A triple below its level raises
    DomainError."""
    (P, Q, alpha), (R, S, beta) = t1, t2
    a_slack, b_slack = alpha - sum(P), beta - sum(S)
    r_slack, q_slack = beta - sum(R), alpha - sum(Q)
    if min(a_slack, b_slack, r_slack, q_slack) < 0:
        _check_levels(t1, t2)
    fact = factorials_through(alpha)
    # (gamma + |Kp|, signed level factor, kp!) from the lowest level up
    levels = []
    for kp in range(min(a_slack, b_slack), -1, -1):
        lv = comb(r_slack + a_slack - kp, r_slack) * comb(q_slack + b_slack - kp, q_slack)
        levels.append((alpha + beta - kp, -lv if kp & 1 else lv, fact(kp)))
    out = {}
    for Kp in product(*[range(min(p, s) + 1) for p, s in zip(P, S)]):
        pair = kf = 1
        I, J = [], []
        for p, q, r, s, k in zip(P, Q, R, S, Kp):
            i, j = p + r - k, q + s - k
            pair *= comb(i, r) * comb(j, q)
            kf *= fact(k)
            I.append(i)
            J.append(j)
        I, J, kd = _multi_index(I), _multi_index(J), sum(Kp)
        for top, lv, kpf in levels:
            num, den = pair * lv, kpf * kf
            whole, rest = divmod(num, den)
            out[(I, J, top - kd)] = Fraction(num, den) if rest else whole
    return out


def tilde_structure_constants(t1: Triple, t2: Triple) -> dict:
    """Closed-form structure constants of the f-basis product; hbar-free.
    The Fraction view of the pair table, whose integral constants are ints."""
    return {t: Fraction(c) for t, c in _tilde_pairs(t1, t2).items()}


def _f_scale(t: Triple, a: int, b: int) -> tuple[int, int]:
    """The e-to-f scale (a/b)^alpha P! (alpha-|P|)! Q! (alpha-|Q|)! of a
    triple, as an integer (num, den) pair."""
    P, Q, alpha = t
    weight = (P.factorial() * factorial(alpha - P.degree())
              * Q.factorial() * factorial(alpha - Q.degree()))
    return a**alpha * weight, b**alpha


def oracle_structure_constants(t1: Triple, t2: Triple, hbar) -> dict:
    """Independent route: unscale f to e, multiply there, rescale back.

    Each constant is one integer ratio carrying the powers of 2 hbar = a/b of
    the e-basis product and of the three scales; they cancel only when that
    ratio is normalised, so a wrong power leaves hbar in the result."""
    hbar = allowed_hbar(hbar)
    _check_levels(t1, t2)
    two_h = 2 * hbar
    a, b = two_h.numerator, two_h.denominator
    n1, d1 = _f_scale(t1, a, b)
    n2, d2 = _f_scale(t2, a, b)
    out = {}
    for t, (num, den) in _wick_terms(t1, t2, a, b).items():
        if num:
            fn, fd = _f_scale(t, a, b)
            out[t] = Fraction(num * fn * d1 * d2, den * fd * n1 * n2)
    return out


# ---------------------------------------------------------------------------
# recursion weights: both fans are finite on the cone


def _partial_matchings(a: int, b: int) -> int:
    """sum_j C(a, j) C(b, j) j!: the partial matchings between an a-set and
    a b-set."""
    return sum(comb(a, j) * comb(b, j) * factorial(j) for j in range(min(a, b) + 1))


def cone_rowsum(t: Triple, out_t: Triple) -> Fraction:
    """Sum of |C| over the right partners mapping t into out_t.

    Each Kp <= P fixes the partner multiindices (R, S) = (I, J) + Kp - (P, Q);
    the closed form of _tilde_coefficient (tests/oracles.py) then reads
    C(I,R) C(J,Q) C(gamma-|I|, beta-|R|) C(gamma-|J|, alpha-|Q|) / (kp! Kp!)
    with kp = alpha + beta - gamma - |Kp|.  The Kp-free factor vanishes
    unless Q <= J and alpha - |Q| <= gamma - |J|, which give alpha <= gamma,
    S >= Kp and kp <= beta - |S| (so beta >= |S| once kp >= 0).  With
    s = alpha - |P|, beta - |R| = kp + (gamma-|I|) - s for every Kp, so the
    level sum is sum_kp C(gamma-|I|, kp + gamma-|I| - s) s!/kp! =
    M(gamma-|I|, s) over the denominator s!, and the sum over Kp of
    C(I, R) P!/Kp! splits into M(i, p) per entry, M = _partial_matchings:
    row sum = C(J,Q) C(gamma-|J|, alpha-|Q|) M(gamma-|I|, s) prod M(i, p)
    / (s! P!).  Mixed lengths raise DimensionError."""
    P, Q, alpha = t
    I, J, gamma = out_t
    if not len(P) == len(Q) == len(I) == len(J):
        ns = sorted({len(P), len(Q), len(I), len(J)})
        raise DimensionError(f"cone indices have n = {ns[0]} and n = {ns[-1]}")
    aq, gj = alpha - sum(Q), gamma - sum(J)
    if not 0 <= aq <= gj:
        return Fraction(0)
    outer = comb(gj, aq)
    for j, q in zip(J, Q):
        outer *= comb(j, q)
    if not outer:
        return Fraction(0)
    slack = alpha - sum(P)
    top = factorial(slack)
    gi = gamma - sum(I)
    if gi < 0:
        return Fraction(0)
    num, pf = outer * _partial_matchings(gi, slack), top
    for i, p in zip(I, P):
        num *= _partial_matchings(i, p)
        pf *= factorial(p)
    return Fraction(num, pf)


class ConeModel(BaseModel):
    """Cone algebra in the level-filtered f-basis.

    Structure constants are hbar-free; the stored hbar only enters the
    evaluation functionals and the quotient machinery.  Both recursion fans
    are finite, so every seminorm value is exact."""

    commutative = False

    def __init__(self, n: int, hbar):
        super().__init__()
        n = _as_int(n, "dimension")
        if n < 1:
            raise DomainError("dimension must be >= 1")
        self.n = n
        self.hbar = Fraction(hbar)
        if self.hbar == 0:
            raise DomainError("hbar must be nonzero")
        self.name = "cone"

    def _pair(self, left, right):
        return _tilde_pairs(left, right)

    def check_operands(self, a: Element, b: Element) -> None:
        n = _dimension(a, b, self.name)
        if n is not None and n != self.n:
            raise DimensionError(f"{self.name} operands have n = {n}, the model n = {self.n}")

    def _row(self, alpha_idx, gamma_idx):
        return cone_rowsum(alpha_idx, gamma_idx)

    def star(self, idx):
        P, Q, alpha = idx
        return (Q, P, alpha)

    def row_parents(self, gamma_idx):
        """Exactly the (P, Q, alpha) with row_sum != 0: alpha <= gamma,
        Q <= J and alpha - |Q| <= gamma - |J| (a binomial of the closed form
        vanishes otherwise), in indices_up_to order."""
        _, J, gamma = gamma_idx
        slack = gamma - J.degree()
        for alpha in range(gamma + 1):
            bounded = [
                Q for d in range(max(0, alpha - slack), alpha + 1)
                for Q in multi_indices_of_degree_within(J, d)
            ]
            if bounded:
                for P in multi_indices_up_to_degree(self.n, alpha):
                    for Q in bounded:
                        yield (P, Q, alpha)

    # -- index plumbing -----------------------------------------------------
    def validate_index(self, idx):
        if not (isinstance(idx, tuple) and len(idx) == 3):
            raise DomainError("cone index must be a (P, Q, alpha) triple")
        t = make_triple(*idx)
        if len(t[0]) != self.n:
            raise DimensionError(f"multiindex length must be {self.n}")
        return t

    def index_sort_key(self, idx):
        P, Q, alpha = idx
        return (alpha, tuple(P), tuple(Q))

    def index_rank(self, idx) -> int:
        return idx[2]

    def indices_up_to(self, rank: int) -> Iterator[Triple]:
        return cone_triples(self.n, rank)

    def unit_index(self):
        z = MultiIndex.zero(self.n)
        return (z, z, 0)

    def index_to_json(self, idx):
        P, Q, alpha = idx
        return {"P": list(P), "Q": list(Q), "alpha": alpha}

    def index_from_json(self, data):
        if not (isinstance(data, dict) and {"P", "Q", "alpha"} <= set(data)):
            raise DomainError('cone index JSON must be {"P": [..], "Q": [..], "alpha": k}')
        return self.validate_index(
            (MultiIndex(data["P"]), MultiIndex(data["Q"]), data["alpha"])
        )

    def evaluate(self, a: Element, w) -> GaussianRational:
        check_point_dimension(w, self.n + 1, "a cone point")
        return eval_upstairs(a, w, self.hbar)

    def h_majorant(self, a: Element, m: int):
        """Level 0 sums coefficient moduli, bounded via |c| <= (1 + |c|^2)/2;
        level 1 sums squared moduli against the crude row-sum bound
        (k+1)^(4n+1) * 4^k; each further level squares the sum and picks up
        one more row-sum bound and a level count."""
        if m == 0:
            C = sum(((1 + c.abs_squared()) / 2 for c in a.terms.values()), Fraction(0))
            return C, Fraction(1), 0
        C = sum((c.abs_squared() for c in a.terms.values()), Fraction(0))
        B, p = Fraction(4), 4 * self.n + 1
        for _ in range(m - 1):
            C, B, p = C * C, 4 * B * B, 2 * p + 4 * self.n + 2
        return C, B, p


# ---------------------------------------------------------------------------
# evaluation functionals


def cone_y(w) -> Fraction:
    w = tuple(GaussianRational.coerce(c) for c in w)
    return w[0].abs_squared() - sum((c.abs_squared() for c in w[1:]), Fraction(0))


def _coordinates(a: Element, point, kind: str) -> tuple:
    """The point as Gaussian rationals; DimensionError unless it has n + 1
    coordinates on the cone and n on the disk, n the dimension of a (any
    point fits the zero element, except an empty one on the cone, which
    needs w0)."""
    point = tuple(GaussianRational.coerce(c) for c in point)
    n, what = element_dimension(a, kind), f"a {kind} point"
    extra = 1 if kind == "cone" else 0
    if n is not None:
        check_point_dimension(point, n + extra, what)
    elif extra and not point:
        raise DimensionError(f"{what} has no coordinates")
    return point


def _power_rows(point: tuple, top: int) -> list:
    """Per coordinate c, gaussian_parts of c^0, ..., c^top."""
    rows = []
    for c in point:
        x, y, d = gaussian_parts(c)
        row = [(1, 0, 1)]
        for _ in range(top):
            re, im, den = row[-1]
            row.append((re * x - im * y, re * y + im * x, den * d))
        rows.append(row)
    return rows


def eval_pair(a: Element, u, v, hbar) -> GaussianRational:
    """Two-point extension: holomorphic in u, antiholomorphic in v; the one
    evaluation kernel of the cone and the disk.

    The rational y of a cone point is replaced by the sesquilinear pairing
    yhat(u, v) = u0 conj(v0) - sum_i u_i conj(v_i), which must not vanish,
    and f_{P,Q,alpha} takes the value u0^(alpha-|P|) u^P conj(v0)^(alpha-|Q|)
    conj(v)^Q s[alpha] pref(P, Q, alpha), with s[alpha] =
    (yhat/2hbar)_alpha / yhat^alpha and pref(P, Q, alpha) =
    1/(P! (alpha-|P|)! Q! (alpha-|Q|)!).  The powers of each coordinate and
    s are tabled once up to the top level of a; each term is an integer
    (re, im, den) product, and the sum is settled once."""
    hbar = Fraction(hbar)
    if hbar == 0:
        raise DomainError("hbar must be nonzero")
    u = _coordinates(a, u, "cone")
    v = _coordinates(a, v, "cone")
    check_point_dimension(v, len(u), "a cone point")
    vc = tuple(c.conjugate() for c in v)
    yhat = u[0] * vc[0]
    for ui, vi in zip(u[1:], vc[1:]):
        yhat = yhat - ui * vi
    if yhat.is_zero():
        raise DomainError("pair evaluation needs yhat != 0")
    top = max((t[2] for t in a.terms), default=0)
    z, s = yhat / (2 * hbar), [GR_ONE]
    for k in range(top):
        s.append(s[-1] * (z + k) / yhat)
    s = [gaussian_parts(x) for x in s]
    (u0, *us), (v0, *vs) = _power_rows(u, top), _power_rows(vc, top)
    fact = factorials_through(top)
    acc: dict = {}
    for (P, Q, alpha), c in a.terms.items():
        sp, sq = alpha - sum(P), alpha - sum(Q)
        if sp < 0 or sq < 0:
            raise DomainError(f"level {alpha} below max(|P|, |Q|)")
        re, im, den = gaussian_parts(c)
        den *= fact(sp) * fact(sq)
        factors = [s[alpha], u0[sp], v0[sq]]
        for rows, M in ((us, P), (vs, Q)):
            for row, m in zip(rows, M):
                factors.append(row[m])
                den *= fact(m)
        for x, y, d in factors:
            re, im, den = re * x - im * y, re * y + im * x, den * d
        accumulate(acc, None, (re, im, den), 1)
    return settle(acc).get(None, GR_ZERO)


def eval_upstairs(a: Element, w, hbar) -> GaussianRational:
    """Exact evaluation of a finite cone element at a rational cone point:
    the pair evaluation on the diagonal, where yhat(w, w) = y."""
    w = _coordinates(a, w, "cone")
    y = cone_y(w)
    if y <= 0:
        raise DomainError(f"point outside the cone: y = {y}")
    return eval_pair(a, w, w, hbar)


# ---------------------------------------------------------------------------
# the vanishing ideal of y = 1 and the quotient to the disk


def y_minus_one(n: int, hbar) -> Element:
    """The function y - 1 written in the level <= 1 basis."""
    hbar = Fraction(hbar)
    z = MultiIndex.zero(n)
    terms = {
        (z, z, 1): GaussianRational.coerce(2 * hbar),
        (z, z, 0): GaussianRational.of(-1),
    }
    for i in range(n):
        e = MultiIndex.unit(n, i)
        terms[(e, e, 1)] = GaussianRational.coerce(-2 * hbar)
    return Element(terms)


def vanishing_ideal_witness(b: Element, hbar, n: int | None = None) -> Element:
    """(y - 1) star b: an element vanishing at every y = 1 point."""
    if n is None:
        n = element_dimension(b, "cone")
        if n is None:
            raise DomainError("cannot infer the dimension from the zero element")
    model = ConeModel(n, hbar)
    return multiply(model, y_minus_one(n, hbar), b)


def _rank(rows: list[list[GaussianRational]]) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    r0 = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = None
        for r in range(r0, len(rows)):
            if not rows[r][col].is_zero():
                piv = r
                break
        if piv is None:
            continue
        rows[r0], rows[piv] = rows[piv], rows[r0]
        pr = rows[r0]
        pv = pr[col]
        for r in range(r0 + 1, len(rows)):
            f = rows[r][col]
            if not f.is_zero():
                fac = f / pv
                rows[r] = [x - fac * y for x, y in zip(rows[r], pr)]
        rank += 1
        r0 += 1
        if r0 == len(rows):
            break
    return rank


def ideal_level_dimension(n: int, hbar, level_cap: int) -> int:
    """Exact dimension of the ideal piece supported in levels <= level_cap.

    Spanned by (y - 1) star f_t over triples t of level < level_cap; the rank
    is computed by Gaussian elimination over the exact coefficient field."""
    model = ConeModel(n, hbar)
    cols = {t: i for i, t in enumerate(model.indices_up_to(level_cap))}
    rows = []
    for t in model.indices_up_to(level_cap - 1):
        w = vanishing_ideal_witness(Element.basis(t), hbar, n)
        row = [GaussianRational.of(0)] * len(cols)
        for tt, c in w.terms.items():
            row[cols[tt]] = c
        rows.append(row)
    return _rank(rows)


@lru_cache(maxsize=CACHE_ENTRIES)
def _reduce_cached(t: Triple, hbar: Fraction) -> tuple:
    """The reduction rows of f_t: ((I + K, J + K), constant) for every K with
    |K| <= gamma - max(|I|, |J|), in increasing |K| (disk_rows stops on it).
    Callers read it through _reduction_rows.

    The constant of a K of degree k is (nu)_gamma / (nu)_(mx+k) C(top, k)
    k!/K! pref(I, J, gamma) / pref(I+K, J+K, mx+k), with nu = 1/(2 hbar),
    mx = max(|I|, |J|), top = gamma - mx and pref the weight of eval_pair.
    The rows are one pass per K in integers: a K-free numerator and
    denominator per degree k, then (I+K)! (J+K)! / K! from one factorial lookup
    (factorials_through(gamma): every i + k and j + k is at most gamma).  A
    constant is stored as an int when the division comes out even and as a
    Fraction only when it does not; accumulate() reads either.  A triple
    below its level raises DomainError."""
    I, J, gamma = t
    # nu = u/v in lowest terms with v > 0, so a negative hbar leaves its sign on u
    u, v = hbar.denominator, 2 * hbar.numerator
    g = gcd(u, v) if v > 0 else -gcd(u, v)
    u, v = u // g, v // g
    di, dj = sum(I), sum(J)
    mx = max(di, dj)
    top = gamma - mx
    if top < 0:
        _check_levels(t)
    fact = factorials_through(gamma)
    # the denominator of pref(I, J, gamma)
    lower = fact(gamma - di) * fact(gamma - dj)
    for i, j in zip(I, J):
        lower *= fact(i) * fact(j)
    # 1/pref(I+K, J+K, mx+k) = (I+K)! (J+K)! times this K-free factor
    lift = fact(mx - di) * fact(mx - dj)
    # (nu)_gamma / (nu)_(mx+k) = (nu+mx+k)_(top-k) = rising[k] / v^(top-k),
    # grown downward in k by one factor u + (mx+k) v per level, never zero
    # at an allowed hbar
    rising = [1] * (top + 1)
    for k in range(top - 1, -1, -1):
        rising[k] = rising[k + 1] * (u + (mx + k) * v)
    # (K-free numerator, denominator) per degree k = |K|
    lead = [(rising[k] * comb(top, k) * fact(k) * lift, lower * v ** (top - k))
            for k in range(top + 1)]
    out = []
    for K in multi_indices_up_to_degree(len(I), top):
        num, den = lead[sum(K)]
        IK, JK = [], []
        for i, j, kk in zip(I, J, K):
            i, j = i + kk, j + kk
            # (i+kk)!/kk! is exact
            num *= fact(i) // fact(kk) * fact(j)
            IK.append(i)
            JK.append(j)
        whole, rest = divmod(num, den)
        out.append(((_multi_index(IK), _multi_index(JK)),
                    Fraction(num, den) if rest else whole))
    return tuple(out)


def _lifted(a: Element) -> Iterator[tuple]:
    """(minimal-level triple, coefficient) of each disk pair of a."""
    for (P, Q), c in a.terms.items():
        yield (P, Q, max(sum(P), sum(Q))), c


def disk_lift(a: Element) -> Element:
    """Lift each disk pair to its minimal-level triple."""
    return Element(dict(_lifted(a)))


def _reduction_rows(t: Triple, hbar: Fraction) -> tuple:
    """The reduction rows of f_t, read before the cache: a triple at its
    minimal level gamma = max(|I|, |J|) reduces to itself, its one row
    ((I, J), 1) (every factorial of the constant cancels, and the constant
    is the int 1, as _reduce_cached stores it).  Any other triple reads
    _reduce_cached."""
    I, J, gamma = t
    if gamma == max(sum(I), sum(J)):
        return (((I, J), 1),)
    return _reduce_cached(t, hbar)


def _reduce_sum(upstairs: Iterable[tuple], hbar: Fraction) -> dict:
    """accumulate() dict of the disk class of sum_t z_t f_t, from (t, z_t)
    pairs with z_t given as integers (re_num, im_num, den); entries may be
    zero.  The whole reduction step of disk_reduce and disk_multiply, the
    one disk product.  Each triple's rows come from _reduction_rows,
    so a minimal-level triple skips the table; disk_rows reads the same rows
    only as far as its boxes."""
    acc: dict = {}
    for t, parts in upstairs:
        for idx, rc in _reduction_rows(t, hbar):
            accumulate(acc, idx, parts, rc)
    return acc


def disk_reduce(a: Element, hbar) -> Element:
    """Reduce an upstairs element to its disk class, term by term."""
    hbar = allowed_hbar(hbar)
    return settled_element(_reduce_sum(((t, gaussian_parts(c)) for t, c in a.terms.items()), hbar))


def one_length(lengths: set, what: str) -> int | None:
    """The one multiindex length in a set, None when it is empty;
    DimensionError when it holds two."""
    if len(lengths) > 1:
        raise DimensionError(f"{what} have n = {min(lengths)} and n = {max(lengths)}")
    return next(iter(lengths), None)


def element_dimension(a: Element, kind: str) -> int | None:
    """The n of a cone or disk element, read from every P and Q: None for
    the zero element, DimensionError when two lengths differ."""
    lengths = set()
    for idx in a.terms:
        lengths.add(len(idx[0]))
        lengths.add(len(idx[1]))
    return one_length(lengths, f"{kind} indices")


def _dimension(a: Element, b: Element, kind: str = "disk") -> int | None:
    """The n of two cone or disk operands; None when both are zero,
    DimensionError when the lengths differ."""
    na, nb = element_dimension(a, kind), element_dimension(b, kind)
    if na is not None and nb is not None and na != nb:
        raise DimensionError(f"{kind} operands have n = {na} and n = {nb}")
    return nb if na is None else na


def disk_multiply(a: Element, b: Element, hbar) -> Element:
    """Quotient product: lift at minimal levels, multiply upstairs, reduce.

    The upstairs product stays the integer accumulator of accumulate_product
    over the cone pair table _tilde_pairs; its nonzero entries go through the
    reduction rows unnormalised, and only the disk result is settled."""
    n = _dimension(a, b)
    if n is None:
        return Element.zero()
    hbar = allowed_hbar(hbar)
    up = accumulate_product(_tilde_pairs, _lifted(a), _lifted(b))
    return settled_element(_reduce_sum(((t, z) for t, z in up.items() if z[0] or z[1]), hbar))


def disk_rows(a: Element, b: Element, hbar, boxes) -> dict:
    """accumulate() dict, keyed by (P, Q), of the entries of
    disk_multiply(a, b, hbar) whose P lies below some box of boxes
    componentwise, entries possibly zero.  The one box [0] is the
    holomorphic column.

    A pair (P, Q, alpha) . (R, S, beta) reaches I = P + R - Kp with Kp <= P
    meet S, and a reduction row sends (I, J, gamma) to (I + K, J + K).  So a
    row below a box needs I below it, and the least I of a pair is
    R + (P - S)+: only pairs with that below some box are multiplied, only
    their constants with I below some box are kept, and each upstairs
    triple reads its reduction rows (_reduction_rows: a minimal-level
    triple skips the table), which run in increasing |K|, only until
    |I + K| exceeds the largest |box|.  Each test tries the boxes in turn
    and stops at the first that holds, so one box costs one test."""
    n = _dimension(a, b)
    if n is None:
        return {}
    hbar = allowed_hbar(hbar)
    boxes = list(map(MultiIndex, boxes))
    for box in boxes:
        if len(box) != n:
            raise DimensionError(f"a box has length {len(box)}, the operands n = {n}")
    room = max(map(sum, boxes), default=-1)
    # R + (P - S)+ <= box is R <= box and P <= S + box - R: one cap on P per
    # box, the caps of one right term side by side
    right = [(t2, [s + m - r for r, s, m in zip(t2[0], t2[1], box)], gaussian_parts(c))
             for t2, c in _lifted(b) for box in boxes if all(map(le, t2[0], box))]
    up: dict = {}
    for t1, ca in _lifted(a):
        P = t1[0]
        x, y, d = gaussian_parts(ca)
        done = None
        for t2, cap, (u, v, e) in right:
            # a pair is multiplied once, at the first of its caps that holds
            if t2 is done or not all(map(le, P, cap)):
                continue
            done = t2
            factor = (x * u - y * v, x * v + y * u, d * e)
            for t, const in _tilde_pairs(t1, t2).items():
                for box in boxes:
                    if all(map(le, t[0], box)):
                        accumulate(up, t, factor, const)
                        break
    out: dict = {}
    for t, z in up.items():
        if z[0] or z[1]:
            for idx, rc in _reduction_rows(t, hbar):
                if sum(idx[0]) > room:
                    break
                for box in boxes:
                    if all(map(le, idx[0], box)):
                        accumulate(out, idx, z, rc)
                        break
    return out


def disk_involution(a: Element) -> Element:
    """Adjoint on disk coefficients: swap the index pair and conjugate."""
    return Element({(Q, P): c.conjugate() for (P, Q), c in a.terms.items()})


def eval_disk(a: Element, v, hbar) -> GaussianRational:
    """Exact evaluation of a disk element at a point with |v| < 1: the pair
    evaluation of its lift at u = (1, v) and (1, v)/(1 - |v|^2), where
    yhat = 1 and the monomial is v^P conj(v)^Q / (1 - |v|^2)^alpha."""
    hbar = allowed_hbar(hbar)
    v = _coordinates(a, v, "disk")
    s = 1 - sum((c.abs_squared() for c in v), Fraction(0))
    if s <= 0:
        raise DomainError("point outside the unit disk")
    u, inv = (GR_ONE, *v), 1 / s
    return eval_pair(disk_lift(a), u, tuple(c * inv for c in u), hbar)


class DiskModel(BaseModel):
    """Quotient algebra on the unit disk: classes f_{P,Q} at minimal level.

    Unlike the cone constants, the product (disk_multiply; no pair table)
    depends on hbar through the reduction, and hbar must be an allowed value.
    Recursion fans are not finite here; seminorms live upstairs on the cone."""

    commutative = False

    def __init__(self, n: int, hbar):
        super().__init__()
        n = _as_int(n, "dimension")
        if n < 1:
            raise DomainError("dimension must be >= 1")
        self.n = n
        self.hbar = allowed_hbar(hbar)
        self.name = "disk"

    check_operands = ConeModel.check_operands

    def element_product(self, a, b):
        return disk_multiply(a, b, self.hbar)

    def _row(self, alpha, gamma):
        raise InfiniteFanError(
            "disk classes have no finite row sums; lift to the cone model"
        )

    def star(self, idx):
        P, Q = idx
        return (Q, P)

    # -- index plumbing -----------------------------------------------------
    def validate_index(self, idx):
        if not (isinstance(idx, tuple) and len(idx) == 2):
            raise DomainError("disk index must be a (P, Q) pair")
        P, Q = MultiIndex(idx[0]), MultiIndex(idx[1])
        if len(P) != len(Q):
            raise DomainError("disk multiindices must share one dimension")
        if len(P) != self.n:
            raise DimensionError(f"multiindex length must be {self.n}")
        return (P, Q)

    def index_sort_key(self, idx):
        P, Q = idx
        return (max(P.degree(), Q.degree()), tuple(P), tuple(Q))

    def index_rank(self, idx) -> int:
        P, Q = idx
        return max(P.degree(), Q.degree())

    def indices_up_to(self, rank: int) -> Iterator[DiskIndex]:
        for P in multi_indices_up_to_degree(self.n, rank):
            for Q in multi_indices_up_to_degree(self.n, rank):
                yield (P, Q)

    def unit_index(self):
        z = MultiIndex.zero(self.n)
        return (z, z)

    def index_to_json(self, idx):
        P, Q = idx
        return {"P": list(P), "Q": list(Q)}

    def index_from_json(self, data):
        if not (isinstance(data, dict) and {"P", "Q"} <= set(data)):
            raise DomainError('disk index JSON must be {"P": [..], "Q": [..]}')
        return self.validate_index((MultiIndex(data["P"]), MultiIndex(data["Q"])))

    def evaluate(self, a: Element, v) -> GaussianRational:
        check_point_dimension(v, self.n, "a disk point")
        return eval_disk(a, v, self.hbar)
