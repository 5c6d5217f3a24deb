"""Worked basis models: polynomials, Laurent series, infinite matrices,
group algebras over Z / Z^d / free groups, and the flat Wick star product.

Each model fixes a countable basis, the structure constants of the product
in that basis, and the row/column weight sums driving the seminorm
recursion.  Models with infinitely many recursion contributors implement
h_special, returning certified Bracket values (or witnessed divergence).
"""

from __future__ import annotations

from fractions import Fraction

# BaseModel, get_model and model_registry live in algebra, below this module;
# they stay bound here as the same objects
from .algebra import (
    DEFAULT_TOL,
    BaseModel,
    DomainError,
    Element,
    _as_int,
    check_point_dimension,
    get_model,
    model_registry,
)
from .scalars import (
    GaussianRational,
    MultiIndex,
    RootSum,
    binomial,
    factorial,
    multi_range,
    multi_indices_up_to_degree,
    sqrt_bracket,
)
from .seminorms import (
    TAG_MAJORANT,
    Bracket,
    HTable,
    HVal,
    hval_product,
    truncated_sum,
)


# ---------------------------------------------------------------------------
# polynomials in one variable


class PolynomialModel(BaseModel):
    """Basis z^k (monomial) or z^k/k! (factorial), k >= 0."""

    commutative = True

    def __init__(self, basis: str):
        super().__init__()
        if basis not in ("monomial", "factorial"):
            raise DomainError(f"unknown polynomial basis {basis!r}")
        self.basis = basis
        self.name = f"poly:{basis}"

    def validate_index(self, idx):
        k = _as_int(idx, "polynomial degree")
        if k < 0:
            raise DomainError("polynomial degree must be nonnegative")
        return k

    def _pair(self, n, m):
        if self.basis == "monomial":
            return {n + m: Fraction(1)}
        return {n + m: Fraction(binomial(n + m, n))}

    def _row(self, n, k):
        if n < 0 or n > k:
            return Fraction(0)
        return Fraction(1) if self.basis == "monomial" else Fraction(binomial(k, n))

    def star(self, k):
        return k

    def row_parents(self, k):
        return range(k + 1)

    def index_rank(self, idx) -> int:
        return idx

    def indices_up_to(self, rank: int):
        return iter(range(rank + 1))

    def unit_index(self):
        return 0

    def evaluate(self, a: Element, point: tuple) -> GaussianRational:
        check_point_dimension(point, 1, f"a {self.name} point")
        z0 = GaussianRational.coerce(point[0])
        out = GaussianRational.of(0)
        for k, c in a.terms.items():
            term = c * z0**k
            if self.basis == "factorial":
                term = term * Fraction(1, factorial(k))
            out = out + term
        return out

    # h[m, ., k] <= C * B^k * (k+1)^p for all k (rank k holds the one index k)
    def h_majorant(self, a: Element, m: int):
        if m < 1:
            return None
        c = sum((coeff.abs_squared() for coeff in a.terms.values()), Fraction(0))
        if self.basis == "monomial":
            b, p = Fraction(1), 0
        else:
            b, p = Fraction(1), max((k for k in a.terms), default=0)
        for _ in range(m - 1):
            if self.basis == "monomial":
                c, b, p = c * c, b, 2 * p + 1
            else:
                c, b, p = c * c, 1 + b * b, 2 * p
        return c, b, p

    # h[m, ., k] is nondecreasing in k (weights [n <= k] and binom(k, n) are),
    # so its value at the top of the support is a lower bound from there on
    def h_lower_const(self, a: Element, m: int):
        if a.is_zero() or m < 1:
            return None
        k0 = max(a.terms)
        v = HTable(self, a).h(m, 0, k0).exact_rational()
        if v is None or v == 0:
            return None
        return v, k0


# ---------------------------------------------------------------------------
# Laurent bases


class LaurentModel(BaseModel):
    """Basis z^k (plain) or z^k/|k|! (factorial), k in Z.

    The plain basis is the deliberate failure case: every weight is 1, so the
    recursion at depth 2 sums a positive constant over all of Z."""

    commutative = True

    TRUNC_WINDOW = 12

    def __init__(self, basis: str):
        super().__init__()
        if basis not in ("plain", "factorial"):
            raise DomainError(f"unknown Laurent basis {basis!r}")
        self.basis = basis
        self.name = f"laurent:{basis}"

    def validate_index(self, idx):
        return _as_int(idx, "Laurent degree")

    def _pair(self, n, m):
        if self.basis == "plain":
            return {n + m: Fraction(1)}
        k = n + m
        return {k: Fraction(factorial(abs(k)), factorial(abs(n)) * factorial(abs(m)))}

    def _row(self, n, k):
        if self.basis == "plain":
            return Fraction(1)
        return Fraction(factorial(abs(k)), factorial(abs(n)) * factorial(abs(k - n)))

    def star(self, k):
        return -k

    def index_rank(self, idx) -> int:
        return abs(idx)

    def indices_up_to(self, rank: int):
        return iter(range(-rank, rank + 1))

    def unit_index(self):
        return 0

    def evaluate(self, a: Element, point: tuple) -> GaussianRational:
        check_point_dimension(point, 1, f"a {self.name} point")
        z0 = GaussianRational.coerce(point[0])
        if z0.is_zero():
            raise DomainError("Laurent evaluation needs a nonzero point")
        out = GaussianRational.of(0)
        for k, c in a.terms.items():
            term = c * z0**k
            if self.basis == "factorial":
                term = term * Fraction(1, factorial(abs(k)))
            out = out + term
        return out

    def h_special(self, table: HTable, m: int, ell: int, gamma):
        if self.basis == "plain":
            # depth-1 values are a positive constant on all of Z; the next
            # level sums it with weight 1 over infinitely many indices
            return HVal.infinite()
        if m == 2:
            return self._h2_factorial(table, ell, gamma)
        w = self.TRUNC_WINDOW
        parents = ((n, self.row_sum(n, gamma)) for n in range(-w, w + 1))
        return truncated_sum(table, m, ell, parents, w)

    def _h2_factorial(self, table: HTable, ell: int, gamma: int) -> HVal:
        """Window |n| <= cutoff plus a geometric tail, widened until the tail
        is within tol of the whole; k1 and L are the table's (HTable.mass).
        Window and tail stay integer pairs, normalised once for the bracket."""
        k1, L = table.mass()
        lk = abs(gamma)
        row_sum = self.row_sum
        tol_num, tol_den = table.tol.numerator, table.tol.denominator

        def window(indices, num: int = 0, den: int = 1) -> tuple[int, int]:
            # depth-1 cells on a finite support are exact and every weight is
            # a Fraction, so the whole window stays on step's integer path
            pairs = ((n, row_sum(n, gamma)) for n in indices)
            num, den, rest = table.step_ratio(2, ell, pairs, num, den)
            if rest is not None:
                raise TypeError("a depth-1 Laurent cell is not exact")
            return num, den

        smin = max(L, lk) + 1
        cutoff = smin
        while _ratio_at_least_half(L, lk, cutoff + 1):
            cutoff += 1
        pn, pd = window(range(-cutoff, cutoff + 1))
        tn, td = _factorial_tail(k1, L, lk, cutoff + 1)
        # tail > tol * (partial + tail), cleared of the positive denominators
        while tn * pd * tol_den > tol_num * (pn * td + tn * pd) and cutoff < smin + 300:
            # the sum is exact, so adding the 8 new indices gives the same
            # partial as summing the widened window again
            grown = [*range(-cutoff - 4, -cutoff), *range(cutoff + 1, cutoff + 5)]
            cutoff += 4
            pn, pd = window(grown, pn, pd)
            tn, td = _factorial_tail(k1, L, lk, cutoff + 1)
        partial, tail = Fraction(pn, pd), Fraction(tn, td)
        return HVal.bracket(
            Bracket.enclosure(partial, partial + tail, cutoff, TAG_MAJORANT)
        )


# The depth-2 tail of laurent:factorial past a window |n| < s, for an element
# of squared coefficient sum k1 and rank L, at a target of rank lk <= s.  The
# two terms at |n| = s are at most term(s) = 2 k1^2 (s+1)^(2L) lk!/(s! (s-lk)!)
# (h1(n) <= k1 (s+1)^L, weight <= lk!/(s! (s-lk)!)), and consecutive terms
# shrink by at most ratio(s) = (s+2)^(2L) / ((s+1)^(2L+1) (s+1-lk)).


def _ratio_at_least_half(L: int, lk: int, s: int) -> bool:
    """ratio(s) >= 1/2, cleared of its positive denominator."""
    return 2 * (s + 2) ** (2 * L) >= (s + 1) ** (2 * L + 1) * (s + 1 - lk)


def _factorial_tail(k1: Fraction, L: int, lk: int, s: int) -> tuple[int, int]:
    """term(s) / (1 - ratio(s)), the geometric majorant of the terms from
    |n| = s on, as an unnormalised integer pair (numerator, denominator),
    both positive where ratio(s) < 1."""
    b = s + 1
    d = b ** (2 * L + 1) * (b - lk)
    num = 2 * k1.numerator ** 2 * b ** (2 * L) * factorial(lk) * d
    den = k1.denominator ** 2 * factorial(s) * factorial(s - lk) * (d - (s + 2) ** (2 * L))
    return num, den


# ---------------------------------------------------------------------------
# infinite matrices


class MatrixModel(BaseModel):
    """Matrix units over indices (i, j), i, j >= 1.

    variant plain:  basis E_ij,          pair weight 1
    variant hat:    basis E_ij/sqrt(i!j!), pair weight 1/j!
    variant tilde:  basis E_ij/(i j),     pair weight 1/j^2

    The plain variant is the second deliberate failure case: the depth-2
    branch sums a constant over a full row, with weight 1."""

    commutative = False

    TILDE_CAP = 1500
    TRUNC_WINDOW = 25

    def __init__(self, variant: str):
        super().__init__()
        if variant not in ("plain", "hat", "tilde"):
            raise DomainError(f"unknown matrix variant {variant!r}")
        self.variant = variant
        self.name = f"matrix:{variant}"
        self._weight_sums: dict[Fraction, HVal] = {}

    def pair_weight(self, j: int) -> Fraction:
        if self.variant == "plain":
            return Fraction(1)
        if self.variant == "hat":
            return Fraction(1, factorial(j))
        return Fraction(1, j * j)

    def validate_index(self, idx):
        if not (isinstance(idx, tuple) and len(idx) == 2):
            raise DomainError(f"matrix index must be a pair, got {idx!r}")
        i, j = (_as_int(v, "matrix index entry") for v in idx)
        if i < 1 or j < 1:
            raise DomainError("matrix indices start at 1")
        return (i, j)

    def _pair(self, left, right):
        (i, j), (k, l) = left, right
        if j != k:
            return {}
        return {(i, l): self.pair_weight(j)}

    def _row(self, alpha, gamma):
        (i, j), (r, _s) = alpha, gamma
        return self.pair_weight(j) if i == r else Fraction(0)

    def star(self, idx):
        i, j = idx
        return (j, i)

    def index_sort_key(self, idx):
        i, j = idx
        return (max(i, j), i, j)

    def index_rank(self, idx) -> int:
        return max(idx)

    def indices_up_to(self, rank: int):
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                if max(i, j) <= rank:
                    yield (i, j)

    def index_to_json(self, idx):
        return list(idx)

    def index_from_json(self, data):
        if not isinstance(data, (list, tuple)):
            raise DomainError("matrix index JSON must be a two-entry list")
        return self.validate_index(tuple(data))

    def weight_series(self, tol: Fraction = DEFAULT_TOL) -> HVal:
        """sum_{j>=1} pair_weight(j), the depth-2 constant-branch factor,
        memoized per tolerance."""
        out = self._weight_sums.get(tol)
        if out is not None:
            return out
        if self.variant == "plain":
            out = HVal.infinite()
        elif self.variant == "hat":
            partial, j = Fraction(0), 0
            tail = Fraction(2)
            while tail > tol * partial or j < 1:
                j += 1
                partial += Fraction(1, factorial(j))
                tail = Fraction(2, factorial(j + 1))
            out = HVal.bracket(Bracket.enclosure(partial, partial + tail, j, TAG_MAJORANT))
        else:
            partial, j = Fraction(0), 0
            while j < self.TILDE_CAP:
                j += 1
                partial += Fraction(1, j * j)
            out = HVal.bracket(
                Bracket.enclosure(partial, partial + Fraction(1, j), j, TAG_MAJORANT)
            )
        self._weight_sums[tol] = out
        return out

    def h_special(self, table: HTable, m: int, ell: int, gamma):
        if m == 2:
            return self._h2(table, ell, gamma)
        r, s = gamma
        w = self.TRUNC_WINDOW
        weight = self.row_sum if ell & 1 == 0 else self.col_sum
        parents = ((r, t) if ell & 1 == 0 else (t, s) for t in range(1, w + 1))
        return truncated_sum(table, m, ell, ((p, weight(p, gamma)) for p in parents), w)

    def _h2(self, table: HTable, ell: int, gamma) -> HVal:
        r, s = gamma
        bit0 = ell & 1
        bit1 = (ell >> 1) & 1
        supp = list(table.element.support())
        if bit0 == 0 and bit1 == 0:
            # parents (r, j), depth-1 value independent of j: constant branch
            v = table.h(1, 0, (r, 1))
            return hval_product(v.squared(), self.weight_series(table.tol))
        if bit0 == 1 and bit1 == 1:
            v = table.h(1, 1, (1, s))
            return hval_product(v.squared(), self.weight_series(table.tol))
        if bit0 == 0:
            # parents (r, j); depth-1 column branch vanishes off support columns
            parents = [(r, j) for j in sorted({jj for _ii, jj in supp})]
            weight = self.row_sum
        else:
            parents = [(k, s) for k in sorted({ii for ii, _jj in supp})]
            weight = self.col_sum
        return table.step(2, ell, ((p, weight(p, gamma)) for p in parents))


# ---------------------------------------------------------------------------
# group algebras: Z, Z^d, free groups


class GroupModel(BaseModel):
    """Group algebra with basis e_g = g / (length(g)!)^epsilon.

    groups: Z (words = integers), Z^d (tuples), free group on N generators
    (reduced words as tuples of (generator, nonzero exponent)).  epsilon is
    1 (all-rational) or 1/2 (weights are exact square-root sums; products of
    basis vectors are not rational and are refused)."""

    SHELL_BUDGET = 20000
    TRUNC_PARENT_BUDGET = 80

    def __init__(self, kind: str, size: int = 0, epsilon: Fraction = Fraction(1)):
        super().__init__()
        epsilon = Fraction(epsilon)
        if epsilon not in (Fraction(1), Fraction(1, 2)):
            raise DomainError("group rescaling exponent must be 1 or 1/2")
        self.kind = kind
        self.size = size
        self.epsilon = epsilon
        if kind == "Z":
            self.name = "group:Z"
            self.commutative = True
        elif kind == "Zd":
            if size < 1:
                raise DomainError("Z^d needs d >= 1")
            self.name = f"group:Zd:{size}"
            self.commutative = True
        elif kind == "free":
            if size < 1:
                raise DomainError("free group needs at least one generator")
            self.name = f"group:free:{size}"
            self.commutative = False
        else:
            raise DomainError(f"unknown group kind {kind!r}")
        self._shell_memo: dict[int, list] = {}

    # -- group operations ---------------------------------------------------
    def identity(self):
        if self.kind == "Z":
            return 0
        if self.kind == "Zd":
            return (0,) * self.size
        return ()

    def mul(self, g, h):
        if self.kind == "Z":
            return g + h
        if self.kind == "Zd":
            return tuple(a + b for a, b in zip(g, h))
        out = list(g)
        for gen, exp in h:
            if out and out[-1][0] == gen:
                merged = out[-1][1] + exp
                out.pop()
                if merged != 0:
                    out.append((gen, merged))
            else:
                out.append((gen, exp))
        return tuple(out)

    def inv(self, g):
        if self.kind == "Z":
            return -g
        if self.kind == "Zd":
            return tuple(-a for a in g)
        return tuple((gen, -exp) for gen, exp in reversed(g))

    def length(self, g) -> int:
        if self.kind == "Z":
            return abs(g)
        if self.kind == "Zd":
            return sum(abs(a) for a in g)
        return sum(abs(exp) for _gen, exp in g)

    def shell(self, s: int) -> list:
        """All group elements of word length exactly s."""
        if s < 0:
            return []
        cached = self._shell_memo.get(s)
        if cached is not None:
            return cached
        if self.kind == "Z":
            out = [0] if s == 0 else [s, -s]
        elif self.kind == "Zd":
            out = [tuple(v) for v in self._zd_shell(self.size, s)]
        else:
            out = [tuple(w) for w in self._free_shell(None, s)]
        self._shell_memo[s] = out
        return out

    def _zd_shell(self, d: int, s: int):
        if d == 1:
            if s == 0:
                yield [0]
            else:
                yield [s]
                yield [-s]
            return
        for first in range(-s, s + 1):
            for rest in self._zd_shell(d - 1, s - abs(first)):
                yield [first] + rest

    def _free_shell(self, prev_gen, s: int):
        if s == 0:
            yield []
            return
        for gen in range(self.size):
            if gen == prev_gen:
                continue
            for e in range(1, s + 1):
                for sign in (1, -1):
                    for rest in self._free_shell(gen, s - e):
                        yield [(gen, sign * e)] + rest

    def shell_growth_base(self) -> int:
        return 2 if self.kind == "Z" else 2 * self.size

    # -- weights ------------------------------------------------------------
    def c_scale(self, g):
        """(length!)^epsilon as Fraction (eps=1) or RootSum (eps=1/2)."""
        f = factorial(self.length(g))
        if self.epsilon == 1:
            return Fraction(f)
        return RootSum.sqrt_rational(Fraction(f))

    def _ratio(self, k_len: int, g_len: int, h_len: int):
        q = Fraction(factorial(k_len), factorial(g_len) * factorial(h_len))
        if self.epsilon == 1:
            return q
        return RootSum.sqrt_rational(q)

    def _pair(self, g, h):
        if self.epsilon != 1:
            raise DomainError(
                "basis products with epsilon = 1/2 have irrational structure "
                "constants; use epsilon = 1 for algebra operations"
            )
        k = self.mul(g, h)
        return {k: self._ratio(self.length(k), self.length(g), self.length(h))}

    def _row(self, g, k):
        # single contributor: the partner is forced to g^{-1} k
        other = self.mul(self.inv(g), k)
        return self._ratio(self.length(k), self.length(g), self.length(other))

    def star(self, g):
        return self.inv(g)

    # -- indices ------------------------------------------------------------
    def validate_index(self, idx):
        if self.kind == "Z":
            return _as_int(idx, "group element")
        if self.kind == "Zd":
            if not (isinstance(idx, tuple) and len(idx) == self.size):
                raise DomainError(f"group element must be a {self.size}-tuple")
            return tuple(_as_int(v, "group element entry") for v in idx)
        if not isinstance(idx, tuple):
            raise DomainError("free-group element must be a tuple of syllables")
        word = []
        for syl in idx:
            if not (isinstance(syl, tuple) and len(syl) == 2):
                raise DomainError("free-group syllable must be (generator, exponent)")
            gen, exp = syl
            gen = _as_int(gen, "generator")
            exp = _as_int(exp, "exponent")
            if not 0 <= gen < self.size:
                raise DomainError(f"generator {gen} outside range(0, {self.size})")
            if exp == 0:
                raise DomainError("zero exponent in reduced word")
            if word and word[-1][0] == gen:
                raise DomainError("word not reduced: repeated adjacent generator")
            word.append((gen, exp))
        return tuple(word)

    def index_sort_key(self, idx):
        return (self.length(idx), idx if self.kind != "Z" else (idx,))

    def index_rank(self, idx) -> int:
        return self.length(idx)

    def indices_up_to(self, rank: int):
        for s in range(rank + 1):
            yield from self.shell(s)

    def unit_index(self):
        return self.identity()

    def index_to_json(self, idx):
        if self.kind == "Z":
            return idx
        if self.kind == "Zd":
            return list(idx)
        return [[gen, exp] for gen, exp in idx]

    def index_from_json(self, data):
        if self.kind == "Z":
            return self.validate_index(data)
        if self.kind == "Zd":
            if not isinstance(data, (list, tuple)):
                raise DomainError("group element JSON must be a list")
            return self.validate_index(tuple(data))
        if not isinstance(data, (list, tuple)):
            raise DomainError("free-group element JSON must be a list of pairs")
        return self.validate_index(tuple(tuple(p) for p in data))

    # -- algebra maps -------------------------------------------------------
    def character(self, a: Element, generator_values: dict) -> tuple[RootSum, RootSum]:
        """sum_g (a_g / c(g)) chi(g) for the homomorphism chi determined by
        its values on the generators, as exact (re, im) root sums: rational
        at eps = 1, sums of square roots at eps = 1/2 (use .bracket() for a
        certified enclosure).  Finite supports make the tail vanish."""
        re_acc: RootSum = RootSum({})
        im_acc: RootSum = RootSum({})
        for g, coeff in a.terms.items():
            chi = self._char_value(g, generator_values)
            val = coeff * chi
            scale = self.c_scale(g)
            inv_scale = (
                RootSum.rational(1 / scale)
                if isinstance(scale, Fraction)
                else RootSum.sqrt_rational(1 / (scale * scale).rational_value())
            )
            re_acc = re_acc + inv_scale * RootSum.rational(val.re)
            im_acc = im_acc + inv_scale * RootSum.rational(val.im)
        return re_acc, im_acc

    def _char_value(self, g, generator_values: dict) -> GaussianRational:
        if self.kind == "Z":
            base = GaussianRational.coerce(generator_values[0])
            return base**g
        if self.kind == "Zd":
            out = GaussianRational.of(1)
            for i, e in enumerate(g):
                out = out * (GaussianRational.coerce(generator_values[i]) ** e)
            return out
        out = GaussianRational.of(1)
        for gen, exp in g:
            out = out * (GaussianRational.coerce(generator_values[gen]) ** exp)
        return out

    # -- seminorm specials --------------------------------------------------
    def h_special(self, table: HTable, m: int, ell: int, gamma):
        if m == 2:
            return self._h2(table, ell, gamma)
        weight = self.row_sum if ell & 1 == 0 else self.col_sum
        parents, depth = [], 0
        for s in range(0, 12):
            sh = self.shell(s)
            if len(parents) + len(sh) > self.TRUNC_PARENT_BUDGET and s > 0:
                break
            parents.extend(sh)
            depth = s
        return truncated_sum(table, m, ell, ((g, weight(g, gamma)) for g in parents), depth)

    def _h2(self, table: HTable, ell: int, gamma) -> HVal:
        weight = self.row_sum if ell & 1 == 0 else self.col_sum
        lk = self.length(gamma)
        k1, L = table.mass()
        k1_sq = k1 * k1
        power = int(2 * self.epsilon * L)
        gb = self.shell_growth_base()
        tol = table.tol

        def term_bound_hi(s: int) -> Fraction:
            # shell count <= gb^s; h1 <= k1 (s+1)^(eps L) in value, squared here
            poly = Fraction(s + 1) ** power
            q = Fraction(factorial(lk), factorial(s) * factorial(s - lk))
            base = k1_sq * poly * Fraction(gb) ** s
            if self.epsilon == 1:
                return base * q
            return base * sqrt_bracket(q, tol)[1]

        def ratio_bound_hi(s: int) -> Fraction:
            poly = Fraction(s + 2, s + 1) ** power
            q = Fraction(1, (s + 1) * (s + 1 - lk))
            if self.epsilon == 1:
                return gb * poly * q
            return gb * poly * sqrt_bracket(q, tol)[1]

        smin = max(L, lk) + 1
        acc = HVal.zero()
        words = 0
        s = 0
        while True:
            sh = self.shell(s)
            words += len(sh)
            if words > self.SHELL_BUDGET:
                # shells 0..s-1 are summed; certify from shell s on when the bound allows
                partial = acc.to_bracket(tol)
                if s - 1 >= smin and ratio_bound_hi(s) < Fraction(1, 2):
                    tail = term_bound_hi(s) / (1 - ratio_bound_hi(s))
                    return HVal.bracket(Bracket(partial.lo, partial.hi + tail, s - 1, TAG_MAJORANT))
                return HVal.bracket(Bracket.truncated(partial.lo, s - 1))
            acc = acc.plus(table.step(2, ell, ((g, weight(g, gamma)) for g in sh)))
            if s >= smin and ratio_bound_hi(s + 1) < Fraction(1, 2):
                tail = term_bound_hi(s + 1) / (1 - ratio_bound_hi(s + 1))
                partial = acc.to_bracket(tol)
                if tail <= tol * (partial.lo + tail) or s >= smin + 60:
                    hi = partial.hi + tail
                    return HVal.bracket(Bracket(partial.lo, hi, s, TAG_MAJORANT))
            s += 1


# ---------------------------------------------------------------------------
# flat Wick star product on C^n


class WickFlatModel(BaseModel):
    """Polynomials in z, zbar with the normal-ordered star product.

    Basis e_{I,J} = z^I zbar^J / (I! J! (2 hbar)^(|I|+|J|)); the product is
    f * g = sum_N (2 hbar)^|N| / N! (d_z^N f)(d_zbar^N g), which gives the
    commutation relation [z_k, zbar_l] = 2 hbar delta_kl."""

    commutative = False

    TRUNC_DEGREE_PAD = 3

    def __init__(self, n: int, hbar: Fraction):
        super().__init__()
        if n < 1:
            raise DomainError("need at least one variable")
        hbar = Fraction(hbar)
        if hbar <= 0:
            raise DomainError("flat Wick model needs hbar > 0")
        self.n = n
        self.hbar = hbar
        self.two_h = 2 * hbar
        self.name = f"wick:{n}"

    def validate_index(self, idx):
        if not (isinstance(idx, tuple) and len(idx) == 2):
            raise DomainError("Wick index must be a pair of multiindices")
        I, J = (v if isinstance(v, MultiIndex) else MultiIndex(v) for v in idx)
        if len(I) != self.n or len(J) != self.n:
            raise DomainError(f"multiindices must have {self.n} entries")
        return (I, J)

    def _pair(self, left, right):
        (I, J), (K, L) = left, right
        out: dict = {}
        for N in multi_range(I.meet(L)):
            tgt_i = I + K
            tgt_i = tgt_i.minus(N)
            tgt_j = (J + L).minus(N)
            num = tgt_i.factorial() * tgt_j.factorial()
            den = (
                N.factorial()
                * I.minus(N).factorial()
                * J.factorial()
                * K.factorial()
                * L.minus(N).factorial()
            )
            coeff = Fraction(num, den) / self.two_h ** N.degree()
            key = (tgt_i, tgt_j)
            out[key] = out.get(key, Fraction(0)) + coeff
        return out

    def _row(self, alpha, gamma):
        """sum_beta |C^gamma_{alpha, beta}| in closed form.  With alpha = (I, J),
        gamma = (G1, G2) and 2 hbar = a/b, each N <= I with I - N <= G1 fixes
        one partner; per coordinate, k = i - n gives
        C(g2, j) sum_{k <= min(i, g1)} C(g1, k) i!/(i-k)! a^k b^(i-k) / (a^i i!),
        which is zero exactly when some j > g2."""
        (I, J), (G1, G2) = alpha, gamma
        a, b = self.two_h.numerator, self.two_h.denominator
        num = den = 1
        for i, j, g1, g2 in zip(I, J, G1, G2):
            outer = binomial(g2, j)
            if not outer:
                return Fraction(0)
            falling, inner = 1, 0
            for k in range(min(i, g1) + 1):
                inner += binomial(g1, k) * falling * a**k * b ** (i - k)
                falling *= i - k
            num *= outer * inner
            den *= a**i * factorial(i)
        return Fraction(num, den)

    def star(self, idx):
        I, J = idx
        return (J, I)

    def index_sort_key(self, idx):
        I, J = idx
        return (I.degree() + J.degree(), tuple(I), tuple(J))

    def index_rank(self, idx) -> int:
        I, J = idx
        return I.degree() + J.degree()

    def indices_up_to(self, rank: int):
        for I in multi_indices_up_to_degree(self.n, rank):
            for J in multi_indices_up_to_degree(self.n, rank - I.degree()):
                yield (I, J)

    def unit_index(self):
        z = MultiIndex.zero(self.n)
        return (z, z)

    def index_to_json(self, idx):
        I, J = idx
        return {"I": list(I), "J": list(J)}

    def index_from_json(self, data):
        if not (isinstance(data, dict) and "I" in data and "J" in data):
            raise DomainError("Wick index JSON needs fields I and J")
        return self.validate_index((MultiIndex(data["I"]), MultiIndex(data["J"])))

    def evaluate(self, a: Element, point: tuple) -> GaussianRational:
        check_point_dimension(point, self.n, f"a {self.name} point")
        w = tuple(GaussianRational.coerce(p) for p in point)
        out = GaussianRational.of(0)
        for (I, J), c in a.terms.items():
            mono = GaussianRational.of(1)
            for i in range(self.n):
                mono = mono * (w[i] ** I[i]) * (w[i].conjugate() ** J[i])
            scale = Fraction(1, I.factorial() * J.factorial()) / self.two_h ** (
                I.degree() + J.degree()
            )
            out = out + c * mono * scale
        return out

    def h_special(self, table: HTable, m: int, ell: int, gamma):
        """A truncated lower bound over the parents of rank <= cap with a
        nonzero weight.  A row weight is nonzero exactly when J <= G2, for
        any I; the column fan is the starred row fan of star(gamma)."""
        supp_deg = max(self.index_rank(i) for i in table.element.terms)
        cap = self.index_rank(gamma) + supp_deg + self.TRUNC_DEGREE_PAD
        star, row_sum = self.star, self.row_sum
        target = star(gamma) if ell & 1 else gamma
        weighted = [((I, J), row_sum((I, J), target)) for J in multi_range(target[1])
                    for I in multi_indices_up_to_degree(self.n, cap - J.degree())]
        if ell & 1:
            weighted = [(star(p), w) for p, w in weighted]
        return truncated_sum(table, m, ell, weighted, cap)
