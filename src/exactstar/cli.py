"""Command-line front end.

Batch access to the model registry, exact products, seminorm tables,
evaluation, the vacuum representation, and the invariant check suites.
Output is deterministic: indices are emitted in each model's documented
sort order and JSON keys are sorted, so identical inputs give
byte-identical files.

Exit codes: 0 success, 1 a check failed, 2 usage or parse error (a size
flag or a file's term count above its cap included), 3 domain error
(disallowed parameter, unsupported operation, an index or point of the wrong
dimension) or a certified comparison that did not resolve.

Every CLI process imports this module, so it loads only the layers each
command runs: cone, gns, seminorms and the check suites are imported inside
the commands that use them, and get_model loads `models` only for its
families.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING

import click

from .algebra import (
    DEFAULT_TOL,
    DimensionError,
    DomainError,
    Element,
    UnresolvedError,
    element_from_json,
    element_to_json,
    get_model,
    model_registry,
    multiply,
)
from .scalars import GaussianRational, parse_rational

if TYPE_CHECKING:
    from .seminorms import SeminormResult

DEFAULT_HBAR = Fraction(1, 2)

# Size caps.  Work grows steeply with each: a cone seminorm --radius table at
# --depth 16 builds h cells of every level up to 16, and the oracle suite
# compares all pairs of basis triples up to its level (~level^6 pairs at n=1).
# depth >= gamma-max, so the gamma-max cap sits at or below the depth cap.
# The pair count of the oracle suite also grows with n: at --level 4 it is
# 6,050 checks at n = 1, 275,282 at n = 2 and 6,069,128 at n = 3.  Each
# seminorm level squares the one below, so --m-max doubles the digits per
# step: a three-term poly:factorial element has ~139k digits at m = 16.
# An element or vector file holds at most TERMS_CAP terms: every cone element
# at n = 1 up to level 16 (1,785 triples) fits, and a product of two files at
# the cap already makes 16.8 million pair products.
GAMMA_MAX_CAP = 16
DEPTH_CAP = 16
CHECK_LEVEL_CAP = 4
N_CAP = 2
M_MAX_CAP = 16
TERMS_CAP = 4096


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

    @property
    def resolved_hbar(self) -> Fraction:
        """hbar, or DEFAULT_HBAR when neither a flag nor the config file set it."""
        return DEFAULT_HBAR if self.hbar is None else self.hbar

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


def _parse_flag(name: str, text, parse=parse_rational):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"--{name.replace('_', '-')}: {exc}") from exc


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
    """parse(data) of a JSON file; malformed JSON or content, and more than
    TERMS_CAP terms, are usage errors, while an index of the wrong dimension
    is a domain error."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"{path}: invalid JSON ({exc})") from exc
    terms = data.get("terms") if isinstance(data, dict) else None
    if isinstance(terms, list) and len(terms) > TERMS_CAP:
        raise click.UsageError(f"{path}: {len(terms)} terms, at most {TERMS_CAP} allowed")
    try:
        return parse(data)
    except DimensionError as exc:
        raise DimensionError(f"{path}: {exc}") from exc
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
def main(ctx, config_path, **flags):
    """Exact star products, seminorm tables and representation checks."""
    cfg = RunConfig()
    if config_path:
        cfg = replace(cfg, **load_config_file(config_path))
    overrides = {
        key: _parse_flag(key, text, _CONFIG_KEYS[key])
        for key, text in flags.items() if text is not None
    }
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


def _seminorm_row(res: SeminormResult, gamma_json) -> dict:
    br = res.h_bracket
    try:
        # str() of an integer past sys.get_int_max_str_digits() raises ValueError
        h_exact = "" if res.h_val is None else res.h_val.exact_string()
        lo_str = str(br.lo)
        hi_str = "inf" if br.hi.infinite else str(br.hi.value)
    except ValueError as exc:
        raise DomainError(
            f"the exact value at m={res.m} is too long to print "
            f"(more than {sys.get_int_max_str_digits()} digits)"
        ) from exc
    return {
        "m": res.m,
        "ell": res.ell,
        "gamma": json.dumps(gamma_json),
        "h_exact": h_exact,
        "seminorm_float": repr(res.value_float),
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
    from .cone import ConeModel, seminorm_R
    from .seminorms import HTable, present

    model = build_model(cfg)
    a = read_element(model, a_file)
    table = HTable(model, a, cfg.tolerance)
    rows = []
    support = sorted(a.terms, key=model.index_sort_key)
    for m in range(m_max + 1):
        ell_m = ell & ((1 << m) - 1)
        for idx in support:
            res = present(m, ell_m, idx, table.h(m, ell_m, idx), cfg.tolerance)
            rows.append(_seminorm_row(res, model.index_to_json(idx)))
    if radius is not None:
        if not isinstance(model, ConeModel):
            raise DomainError("--radius tables need the cone model")
        R = _parse_flag("radius", radius)
        for m in range(m_max + 1):
            ell_m = ell & ((1 << m) - 1)
            br = seminorm_R(model, a, m, ell_m, R, cfg.depth, cfg.tolerance)
            rows.append(_seminorm_row(present(m, ell_m, None, br, cfg.tolerance),
                                      {"radius": str(R)}))
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


def _read_vector(path: str, n: int):
    """A vector file whose indices have the disk's dimension n."""
    from .gns import gns_vector_from_json

    psi = _load_json(path, gns_vector_from_json)
    if any(len(q) != n for q in psi.terms):
        raise DimensionError(f"{path}: vector indices must have length {n}")
    return psi


@main.group()
def gns():
    """Vacuum representation: inner products, action, coherent vectors."""


@gns.command("inner")
@click.argument("psi_file", type=click.Path(exists=True))
@click.argument("phi_file", type=click.Path(exists=True))
@click.pass_obj
def gns_inner_cmd(cfg: RunConfig, psi_file, phi_file):
    from .gns import gns_inner

    val = gns_inner(_read_vector(psi_file, cfg.n), _read_vector(phi_file, cfg.n),
                    cfg.resolved_hbar)
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
    from .cone import DiskModel
    from .gns import gns_rep, gns_rep_via_product, gns_vector_to_json

    model = DiskModel(cfg.n, cfg.resolved_hbar)
    a = read_element(model, a_file)
    psi = _read_vector(psi_file, model.n)
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
    from .cone import check_point_dimension
    from .gns import coherent_vector, gns_vector_to_json

    w = parse_point(point)
    check_point_dimension(w, cfg.n, "a disk point")
    vec = coherent_vector(w, cfg.gamma_max if cap is None else cap)
    emit(render_json(gns_vector_to_json(vec)), out)


@gns.command("positivity")
@click.argument("a_file", type=click.Path(exists=True))
@click.pass_obj
def gns_positivity_cmd(cfg: RunConfig, a_file):
    from .cone import DiskModel
    from .gns import positivity_check

    model = DiskModel(cfg.n, cfg.resolved_hbar)
    a = read_element(model, a_file)
    val = positivity_check(a, model.hbar)
    emit(render_json({"value": str(val), "nonnegative": val >= 0}), None)
    if val < 0:
        sys.exit(1)


@main.command()
@click.argument("suite", type=str)
@click.option("--level", type=click.IntRange(min=0, max=CHECK_LEVEL_CAP), default=2,
              show_default=True, help="Basis level cutoff for the suite.")
@click.pass_obj
def check(cfg: RunConfig, suite, level):
    """Run an invariant suite; nonzero exit on any failure."""
    from .checks import SUITES, run_suite

    if suite not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise click.UsageError(f"unknown suite {suite!r}; known: {known}")
    checks, failures = run_suite(suite, cfg.n, cfg.resolved_hbar, level)
    if failures:
        for line in failures:
            click.echo(f"FAIL {line}")
        click.echo(f"check {suite}: FAIL ({len(failures)}/{checks} checks failed)")
        sys.exit(1)
    click.echo(f"check {suite}: PASS ({checks} checks)")


if __name__ == "__main__":
    main()
