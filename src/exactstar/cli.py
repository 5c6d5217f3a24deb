"""Command-line front end.

Batch access to the model registry, exact products, seminorm tables,
evaluation, the vacuum representation, and the invariant check suites.
Output is deterministic: indices are emitted in each model's documented
sort order and JSON keys are sorted, so identical inputs give
byte-identical files.

Exit codes: 0 success, 1 a check failed, 2 usage or parse error (a size
flag above its cap included), 3 domain error (disallowed parameter,
unsupported operation) or a certified comparison that did not resolve.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import click

from .algebra import (
    DomainError,
    Element,
    element_from_json,
    element_to_json,
    from_pairs,
    multiply,
)
from .cone import (
    ConeModel,
    DiskModel,
    disk_multiply,
    disk_reduce,
    make_triple,
    oracle_structure_constants,
    seminorm_R,
    tilde_structure_constants,
    y_minus_one,
)
from .models import get_model, model_registry
from .scalars import (
    GaussianRational,
    MultiIndex,
    multi_indices_up_to_degree,
    parse_rational,
)
from .seminorms import DEFAULT_TOL, Bracket, HTable, HVal, UnresolvedError

DEFAULT_HBAR = Fraction(1, 2)

# Size caps.  Work grows steeply with each: a cone seminorm --radius table at
# --depth 16 builds h cells of every level up to 16, and the oracle suite
# compares all pairs of basis triples up to its level (~level^6 pairs at n=1).
# depth >= gamma-max, so the gamma-max cap sits at or below the depth cap.
# The pair count of the oracle suite also grows with n: at --level 4 it is
# 6,050 checks at n = 1, 275,282 at n = 2 and 6,069,128 at n = 3.  Each
# seminorm level squares the one below, so --m-max doubles the digits per
# step: a three-term poly:factorial element has ~139k digits at m = 16.
GAMMA_MAX_CAP = 16
DEPTH_CAP = 16
CHECK_LEVEL_CAP = 4
N_CAP = 2
M_MAX_CAP = 16


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    model: str = "disk"
    hbar: Fraction | None = None
    n: int = 1
    epsilon: Fraction = Fraction(1)
    gamma_max: int = 4
    depth: int = 8
    tolerance: Fraction = DEFAULT_TOL
    output: str = "json"

    def validated(self) -> "RunConfig":
        if self.n < 1:
            raise click.UsageError("n must be >= 1")
        if self.n > N_CAP:
            raise click.UsageError(f"n must be <= {N_CAP}")
        if self.gamma_max < 0:
            raise click.UsageError("gamma-max must be >= 0")
        if self.gamma_max > GAMMA_MAX_CAP:
            raise click.UsageError(f"gamma-max must be <= {GAMMA_MAX_CAP}")
        if self.depth < self.gamma_max:
            raise click.UsageError("depth must be >= gamma-max")
        if self.depth > DEPTH_CAP:
            raise click.UsageError(f"depth must be <= {DEPTH_CAP}")
        if self.tolerance <= 0:
            raise click.UsageError("tolerance must be positive")
        if self.output not in ("json", "csv", "pretty"):
            raise click.UsageError("output must be json, csv or pretty")
        return self


_CONFIG_KEYS = {
    "model": str,
    "hbar": parse_rational,
    "n": int,
    "epsilon": parse_rational,
    "gamma_max": int,
    "depth": int,
    "tolerance": parse_rational,
    "output": str,
}


def load_config_file(path: str) -> dict:
    """key=value lines; '#' starts a comment."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise click.UsageError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise click.UsageError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _CONFIG_KEYS[key](val.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise click.UsageError(f"{path}:{lineno}: {exc}") from exc
    return out


def _flag_rational(text: str, name: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"--{name}: {exc}") from exc


_GR_PATTERN = re.compile(
    r"""^\s*
    (?P<re>[+-]?[0-9]+(?:/[0-9]+)?)?
    (?P<im>(?:[+-][0-9]+(?:/[0-9]+)?|[+-]?)i)?
    \s*$""",
    re.VERBOSE,
)


def parse_point_coordinate(text: str) -> GaussianRational:
    """Accepts 'p/q', 'p/qi', 'a+bi', 'a-bi', 'i', '-i'."""
    m = _GR_PATTERN.match(text)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise click.UsageError(f"cannot parse coordinate {text!r}")
    try:
        re_part = parse_rational(m.group("re")) if m.group("re") else Fraction(0)
        im_text = m.group("im")
        if im_text is None:
            im_part = Fraction(0)
        else:
            body = im_text[:-1]
            if body in ("", "+"):
                im_part = Fraction(1)
            elif body == "-":
                im_part = Fraction(-1)
            else:
                im_part = parse_rational(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"cannot parse coordinate {text!r}: {exc}") from exc
    return GaussianRational.of(re_part, im_part)


def parse_point(text: str) -> tuple:
    return tuple(parse_point_coordinate(c) for c in text.split(","))


def format_gr(z: GaussianRational) -> str:
    if z.im == 0:
        return str(z.re)
    sign = "+" if z.im >= 0 else "-"
    return f"{z.re}{sign}{abs(z.im)}i"


# ---------------------------------------------------------------------------
# output plumbing


def emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def render_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def render_table(rows: list[dict], columns: list[str], mode: str) -> str:
    if mode == "json":
        return render_json({"rows": rows})
    if mode == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in columns})
        return buf.getvalue()
    widths = {
        c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c)
        for c in columns
    }
    lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    for row in rows:
        lines.append(
            "  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines) + "\n"


def build_model(cfg: RunConfig):
    return get_model(cfg.model, hbar=cfg.hbar, epsilon=cfg.epsilon, n=cfg.n)


def _load_json(path: str, parse):
    """parse(data) of a JSON file; malformed JSON or content is a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"{path}: invalid JSON ({exc})") from exc
    try:
        return parse(data)
    except (ValueError, ZeroDivisionError, KeyError, TypeError) as exc:
        raise click.UsageError(f"{path}: {exc}") from exc


def read_element(model, path: str) -> Element:
    return _load_json(path, lambda data: element_from_json(model, data))


# ---------------------------------------------------------------------------
# command group


class _Main(click.Group):
    """Maps a DomainError (InfiniteFanError included) or an UnresolvedError
    from any subcommand to one `error:` line and exit code 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (DomainError, UnresolvedError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
@click.option("--model", default=None, help="Model name, see `algebra list`.")
@click.option("--hbar", default=None, help="Deformation parameter p/q.")
@click.option("--n", type=int, default=None,
              help=f"Number of disk variables, at most {N_CAP}.")
@click.option("--epsilon", default=None, help="Group weight exponent (1 or 1/2).")
@click.option("--gamma-max", type=int, default=None,
              help=f"Level cutoff for tables, at most {GAMMA_MAX_CAP}.")
@click.option("--depth", type=int, default=None,
              help=f"Partial-sum depth for brackets, at most {DEPTH_CAP}.")
@click.option("--tolerance", default=None, help="Enclosure width target p/q.")
@click.option("--output", default=None, type=click.Choice(["json", "csv", "pretty"]))
@click.option("--config", "config_path", default=None, type=click.Path(exists=True),
              help="key=value file mirroring the flags; flags win.")
@click.pass_context
def main(ctx, model, hbar, n, epsilon, gamma_max, depth, tolerance, output,
         config_path):
    """Exact star products, seminorm tables and representation checks."""
    cfg = RunConfig()
    if config_path:
        cfg = replace(cfg, **load_config_file(config_path))

    overrides = {}
    if model is not None:
        overrides["model"] = model
    if hbar is not None:
        overrides["hbar"] = _flag_rational(hbar, "hbar")
    if n is not None:
        overrides["n"] = n
    if epsilon is not None:
        overrides["epsilon"] = _flag_rational(epsilon, "epsilon")
    if gamma_max is not None:
        overrides["gamma_max"] = gamma_max
    if depth is not None:
        overrides["depth"] = depth
    if tolerance is not None:
        overrides["tolerance"] = _flag_rational(tolerance, "tolerance")
    if output is not None:
        overrides["output"] = output
    ctx.obj = replace(cfg, **overrides).validated()


@main.group()
def algebra():
    """Registry introspection."""


@algebra.command("list")
@click.pass_obj
def algebra_list(cfg: RunConfig):
    """Print the available models and their parameters."""
    rows = [
        {"name": entry["name"], "params": entry["params"]}
        for entry in model_registry()
    ]
    emit(render_table(rows, ["name", "params"], cfg.output), None)


@main.command()
@click.argument("a_file", type=click.Path(exists=True))
@click.argument("b_file", type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path())
@click.pass_obj
def product(cfg: RunConfig, a_file, b_file, out):
    """Exact product of two serialized elements."""
    model = build_model(cfg)
    a = read_element(model, a_file)
    b = read_element(model, b_file)
    prod = multiply(model, a, b)
    emit(render_json(element_to_json(model, prod)), out)


SEMINORM_COLUMNS = [
    "m", "ell", "gamma", "h_exact", "seminorm_float",
    "bracket_lo", "bracket_hi", "depth",
]


def _seminorm_row(m: int, ell: int, gamma_json, hv: HVal | None, br: Bracket,
                  tol: Fraction) -> dict:
    root_lo, root_hi = br.root_interval(m, tol)
    try:
        # str() of an integer past sys.get_int_max_str_digits() raises ValueError
        h_exact = "" if hv is None else hv.exact_string()
        lo_str = str(br.lo)
        hi_str = "inf" if root_hi.infinite else str(br.hi.value)
    except ValueError as exc:
        raise DomainError(
            f"the exact value at m={m} is too long to print "
            f"(more than {sys.get_int_max_str_digits()} digits)"
        ) from exc
    if root_hi.infinite:
        sem = float("inf") if br.is_divergent() else float(root_lo)
    else:
        sem = float(root_lo + root_hi.value) / 2.0
    return {
        "m": m,
        "ell": ell,
        "gamma": json.dumps(gamma_json),
        "h_exact": h_exact,
        "seminorm_float": repr(sem),
        "bracket_lo": lo_str,
        "bracket_hi": hi_str,
        "depth": br.depth,
    }


@main.command()
@click.argument("a_file", type=click.Path(exists=True))
@click.option("--m-max", type=click.IntRange(min=0, max=M_MAX_CAP), default=2,
              show_default=True, help=f"Deepest recursion level, at most {M_MAX_CAP}.")
@click.option("--ell", type=click.IntRange(min=0), default=0, show_default=True,
              help="Branch word; truncated to the m low bits per row.")
@click.option("--radius", default=None,
              help="Also append summed rows at this radius (cone model).")
@click.option("--out", default=None, type=click.Path())
@click.pass_obj
def seminorm(cfg: RunConfig, a_file, m_max, ell, radius, out):
    """Seminorm table over the support of an element.

    One row per (m, branch, index in the element's support); values are the
    recursion values with certified enclosures, roots presented as floats.
    """
    model = build_model(cfg)
    a = read_element(model, a_file)
    table = HTable(model, a, cfg.tolerance)
    rows = []
    support = sorted(a.terms, key=model.index_sort_key)
    for m in range(m_max + 1):
        ell_m = ell & ((1 << m) - 1)
        for idx in support:
            hv = table.h(m, ell_m, idx)
            rows.append(_seminorm_row(m, ell_m, model.index_to_json(idx), hv,
                                      hv.to_bracket(cfg.tolerance), cfg.tolerance))
    if radius is not None:
        if not isinstance(model, ConeModel):
            raise DomainError("--radius tables need the cone model")
        R = _flag_rational(radius, "radius")
        for m in range(m_max + 1):
            ell_m = ell & ((1 << m) - 1)
            br = seminorm_R(model, a, m, ell_m, R, cfg.depth, cfg.tolerance)
            rows.append(_seminorm_row(m, ell_m, {"radius": str(R)}, None, br, cfg.tolerance))
    emit(render_table(rows, SEMINORM_COLUMNS, cfg.output), out)


@main.command("eval")
@click.argument("a_file", type=click.Path(exists=True))
@click.option("--point", "points", multiple=True, required=True,
              help="Comma-separated coordinates, e.g. '1,0' or '3/5+4/5i'.")
@click.option("--out", default=None, type=click.Path())
@click.pass_obj
def eval_cmd(cfg: RunConfig, a_file, points, out):
    """Evaluate an element at rational points."""
    model = build_model(cfg)
    a = read_element(model, a_file)
    if not hasattr(model, "evaluate"):
        raise DomainError(f"{model.name}: no evaluation functional")
    scalar_arg = model.name.startswith(("poly:", "laurent:"))
    rows = []
    for text in points:
        pt = parse_point(text)
        if scalar_arg:
            if len(pt) != 1:
                raise click.UsageError(
                    f"{model.name} evaluates at one coordinate, got {text!r}"
                )
            val = model.evaluate(a, pt[0])
        else:
            val = model.evaluate(a, pt)
        rows.append({
            "point": text,
            "value": format_gr(val),
            "re": str(val.re),
            "im": str(val.im),
        })
    emit(render_table(rows, ["point", "value", "re", "im"], cfg.output), out)


# ---------------------------------------------------------------------------
# vacuum representation commands


def _disk_model(cfg: RunConfig) -> DiskModel:
    hbar = cfg.hbar if cfg.hbar is not None else DEFAULT_HBAR
    return DiskModel(cfg.n, hbar)


def _read_vector(path: str):
    from .gns import gns_vector_from_json

    return _load_json(path, gns_vector_from_json)


@main.group()
def gns():
    """Vacuum representation: inner products, action, coherent vectors."""


@gns.command("inner")
@click.argument("psi_file", type=click.Path(exists=True))
@click.argument("phi_file", type=click.Path(exists=True))
@click.pass_obj
def gns_inner_cmd(cfg: RunConfig, psi_file, phi_file):
    from .gns import gns_inner

    hbar = cfg.hbar if cfg.hbar is not None else DEFAULT_HBAR
    val = gns_inner(_read_vector(psi_file), _read_vector(phi_file), hbar)
    emit(render_json({"value": format_gr(val), "re": str(val.re),
                      "im": str(val.im)}), None)


@gns.command("rep")
@click.argument("a_file", type=click.Path(exists=True))
@click.argument("psi_file", type=click.Path(exists=True))
@click.option("--route", default="closed", show_default=True,
              type=click.Choice(["closed", "product", "both"]))
@click.option("--out", default=None, type=click.Path())
@click.pass_obj
def gns_rep_cmd(cfg: RunConfig, a_file, psi_file, route, out):
    """Apply a disk element to a vector; --route both cross-checks."""
    from .gns import gns_rep, gns_rep_via_product, gns_vector_to_json

    model = _disk_model(cfg)
    a = read_element(model, a_file)
    psi = _read_vector(psi_file)
    hbar = model.hbar
    if route == "closed":
        res = gns_rep(a, psi, hbar)
    elif route == "product":
        res = gns_rep_via_product(a, psi, hbar)
    else:
        res = gns_rep(a, psi, hbar)
        other = gns_rep_via_product(a, psi, hbar)
        if res != other:
            click.echo("check failed: closed form differs from product route",
                       err=True)
            sys.exit(1)
    emit(render_json(gns_vector_to_json(res)), out)


@gns.command("coherent")
@click.option("--point", required=True,
              help="Interior point, comma-separated coordinates.")
@click.option("--cap", type=click.IntRange(min=0, max=GAMMA_MAX_CAP), default=None,
              help=f"Support cap, at most {GAMMA_MAX_CAP}; defaults to gamma-max.")
@click.option("--out", default=None, type=click.Path())
@click.pass_obj
def gns_coherent_cmd(cfg: RunConfig, point, cap, out):
    from .gns import coherent_vector, gns_vector_to_json

    w = parse_point(point)
    vec = coherent_vector(w, cfg.gamma_max if cap is None else cap)
    emit(render_json(gns_vector_to_json(vec)), out)


@gns.command("positivity")
@click.argument("a_file", type=click.Path(exists=True))
@click.pass_obj
def gns_positivity_cmd(cfg: RunConfig, a_file):
    from .gns import positivity_check

    model = _disk_model(cfg)
    a = read_element(model, a_file)
    val = positivity_check(a, model.hbar)
    emit(render_json({"value": str(val), "nonnegative": val >= 0}), None)
    if val < 0:
        sys.exit(1)


# ---------------------------------------------------------------------------
# check suites


def _cone_basis(n: int, level: int) -> list:
    out = []
    for alpha in range(level + 1):
        for P in multi_indices_up_to_degree(n, alpha):
            for Q in multi_indices_up_to_degree(n, alpha):
                out.append(make_triple(P, Q, alpha))
    return out


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


def suite_oracle(cfg: RunConfig, level: int):
    """Closed-form structure constants against the normalized product route,
    at two parameter values."""
    n = cfg.n
    hbar = cfg.hbar if cfg.hbar is not None else DEFAULT_HBAR
    failures, checks = [], 0
    triples = _cone_basis(n, level)
    for t1 in triples:
        for t2 in triples:
            ref = tilde_structure_constants(t1, t2)
            for h in (hbar, hbar + 1):
                got = oracle_structure_constants(t1, t2, h)
                checks += 1
                if got != ref:
                    failures.append(f"constants differ at {t1} x {t2}, hbar={h}")
    return checks, failures


def suite_positivity(cfg: RunConfig, level: int):
    from .gns import positivity_check

    hbar = cfg.hbar if cfg.hbar is not None else DEFAULT_HBAR
    failures, checks = [], 0
    for a in _seeded_disk_elements(cfg.n, min(level, 3), 20):
        val = positivity_check(a, hbar)
        checks += 1
        if val < 0:
            failures.append(f"negative vacuum expectation {val}")
    return checks, failures


def suite_laurent_divergence(cfg: RunConfig, level: int):
    failures, checks = [], 0
    plain = get_model("laurent:plain")
    factorial_model = get_model("laurent:factorial")
    mat = get_model("matrix:plain")
    a = from_pairs([(1, 1), (2, Fraction(1, 2))])
    for ell in range(4):
        hv = HTable(plain, a, DEFAULT_TOL).h(2, ell, 0)
        checks += 1
        if not hv.is_infinite():
            failures.append(f"plain weights should diverge at branch {ell}")
    hv = HTable(factorial_model, a, DEFAULT_TOL).h(2, 0, 0)
    checks += 1
    if hv.is_infinite():
        failures.append("factorial weights should stay finite")
    b = from_pairs([((1, 1), 1), ((2, 3), Fraction(1, 3))])
    hv = HTable(mat, b, DEFAULT_TOL).h(2, 0, (1, 1))
    checks += 1
    if not hv.is_infinite():
        failures.append("plain matrix weights should diverge")
    return checks, failures


def suite_ideal(cfg: RunConfig, level: int):
    from .gns import check_kernel_absorbed, state_kernel_part

    n = cfg.n
    hbar = cfg.hbar if cfg.hbar is not None else DEFAULT_HBAR
    failures, checks = [], 0
    rng = random.Random(23)
    triples = _cone_basis(n, min(level, 2))
    y1 = y_minus_one(n, hbar)
    model = ConeModel(n, hbar)
    for _ in range(5):
        t = rng.choice(triples)
        a = Element.basis(t).scale(
            GaussianRational.of(Fraction(rng.randint(1, 3)), 1)
        )
        g = rng.choice(triples)
        pert = a + multiply(model, y1, Element.basis(g))
        checks += 1
        if disk_reduce(a, hbar) != disk_reduce(pert, hbar):
            failures.append(f"radial perturbation changed the class of {t}")
    for a in _seeded_disk_elements(n, 2, 5, seed=29):
        j = state_kernel_part(a)
        checks += 1
        if not check_kernel_absorbed(a, j, hbar):
            failures.append("vacuum null space not absorbed")
    return checks, failures


def _pinned_symmetries():
    u0 = GaussianRational.of(Fraction(3, 5), Fraction(4, 5))
    zero = GaussianRational.of(0)
    return [
        ((GaussianRational.of(1), zero), (zero, GaussianRational.of(1))),
        ((u0, zero), (zero, u0.conjugate())),
        (
            (GaussianRational.of(Fraction(5, 4)), GaussianRational.of(Fraction(3, 4))),
            (GaussianRational.of(Fraction(3, 4)), GaussianRational.of(Fraction(5, 4))),
        ),
    ]


def suite_symmetry(cfg: RunConfig, level: int):
    from . import su1n

    hbar = cfg.hbar if cfg.hbar is not None else DEFAULT_HBAR
    failures, checks = [], 0
    i = GaussianRational.of(0, 1)
    zero = GaussianRational.of(0)
    one = GaussianRational.of(1)
    gens = [((i, zero), (zero, -i)), ((zero, one), (one, zero)),
            ((zero, i), (-i, zero))]
    basis = [Element.basis(t) for t in _cone_basis(1, 1)]
    for U in _pinned_symmetries():
        checks += 1
        if not su1n.is_pseudo_unitary(U):
            failures.append("pinned symmetry fails the defining identities")
        checks += 1
        if not su1n.check_y_invariance(U, hbar):
            failures.append("radial element moved by pullback")
        for a in basis:
            for b in basis:
                checks += 1
                if not su1n.check_automorphism(U, a, b, hbar)["holds"]:
                    failures.append("pullback is not multiplicative")
    for x in gens:
        for z in gens:
            checks += 1
            if not su1n.check_momentum_relations(x, z, hbar)["holds"]:
                failures.append("momentum commutator mismatch")
    probe = Element.basis(make_triple(MultiIndex((1,)), MultiIndex((0,)), 1))
    for x in gens:
        checks += 1
        if not su1n.check_derivation_identity(x, probe, hbar)["holds"]:
            failures.append("derivation identity fails")
    return checks, failures


def suite_filtration(cfg: RunConfig, level: int):
    from .cone import occupancy_count

    n = cfg.n
    failures, checks = [], 0
    triples = _cone_basis(n, min(level, 2))
    for t1 in triples:
        for t2 in triples:
            alpha, beta = t1[2], t2[2]
            for (I, J, g), c in tilde_structure_constants(t1, t2).items():
                checks += 1
                if not (max(alpha, beta) <= g <= alpha + beta):
                    failures.append(f"level window violated at {t1} x {t2}")
                if occupancy_count(t1, t2, (I, J, g)) not in (0, 1):
                    failures.append("occupancy must be 0 or 1")
            back = tilde_structure_constants(
                (t2[1], t2[0], beta), (t1[1], t1[0], alpha)
            )
            checks += 1
            mirrored = {
                ((J, I, g)): c
                for (I, J, g), c in tilde_structure_constants(t1, t2).items()
            }
            if back != mirrored:
                failures.append(f"transpose symmetry fails at {t1} x {t2}")
    return checks, failures


def suite_associativity(cfg: RunConfig, level: int):
    failures, checks = [], 0
    hbar = cfg.hbar if cfg.hbar is not None else DEFAULT_HBAR
    jobs = [
        (ConeModel(1, hbar), [Element.basis(t) for t in _cone_basis(1, 1)]),
        (get_model("laurent:factorial"),
         [Element.basis(k) for k in range(-2, 3)]),
        (get_model("matrix:hat"),
         [Element.basis((r, s)) for r in (1, 2) for s in (1, 2)]),
        (get_model("group:Z"), [Element.basis(k) for k in range(-2, 3)]),
    ]
    for model, basis in jobs:
        for a in basis:
            for b in basis:
                for c in basis:
                    checks += 1
                    lhs = multiply(model, multiply(model, a, b), c)
                    rhs = multiply(model, a, multiply(model, b, c))
                    if not (lhs - rhs).is_zero():
                        failures.append(f"{model.name}: associativity fails")
    return checks, failures


CHECK_SUITES = {
    "oracle": suite_oracle,
    "positivity": suite_positivity,
    "laurent-divergence": suite_laurent_divergence,
    "ideal": suite_ideal,
    "symmetry": suite_symmetry,
    "filtration": suite_filtration,
    "associativity": suite_associativity,
}


@main.command()
@click.argument("suite", type=str)
@click.option("--level", type=click.IntRange(min=0, max=CHECK_LEVEL_CAP), default=2,
              show_default=True, help="Basis level cutoff for the suite.")
@click.pass_obj
def check(cfg: RunConfig, suite, level):
    """Run an invariant suite; nonzero exit on any failure."""
    if suite not in CHECK_SUITES:
        known = ", ".join(sorted(CHECK_SUITES))
        raise click.UsageError(f"unknown suite {suite!r}; known: {known}")
    checks, failures = CHECK_SUITES[suite](cfg, level)
    if failures:
        for line in failures:
            click.echo(f"FAIL {line}")
        click.echo(f"check {suite}: FAIL ({len(failures)}/{checks} checks failed)")
        sys.exit(1)
    click.echo(f"check {suite}: PASS ({checks} checks)")


if __name__ == "__main__":
    main()
