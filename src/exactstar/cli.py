"""Command-line front end.

Batch access to the model registry, exact products, seminorm tables,
evaluation, the vacuum representation, and the invariant check suites.
Output is deterministic: indices are emitted in each model's documented
sort order and JSON keys are sorted, so identical inputs give
byte-identical files.

Exit codes: 0 success, 1 a check failed, 2 usage or parse error (a size
flag, a file's term count or an index's rank above its cap included),
3 domain error (disallowed parameter, unsupported operation, an index or
point of the wrong dimension) or a certified comparison that did not
resolve.

Every CLI process imports this module, so it loads only the layers each
command runs: cone, gns, seminorms and the check suites are imported inside
the commands that use them, and get_model loads `models` only for its
families.  The parser is the standard library's argparse, and neither this
module nor the layers below it load dataclasses.  A usage error prints the
command's usage line and `exactstar <command>: error: <message>` to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import (
    DEFAULT_TOL,
    DimensionError,
    DomainError,
    Element,
    UnresolvedError,
    check_point_dimension,
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
# No index in a file has a rank (model.index_rank; a vector index's degree)
# above RANK_CAP.  The cone recursion fans grow like level^5 at n = 2: on a
# two-term cone element at --n 2, seminorm --m-max 2 took 0.42-0.47 s at
# level 12, 0.74 s at 14 and 1.0 s at 16 (one run each), and the product of
# a two-term cone or disk element with itself 0.08-0.13 s at 12 (5-8 runs
# each; CLI start included, Python 3.11.7, shared 2-vCPU Xeon VM).  At the
# cap the slowest seminorm is wick:2's (5-7 s); the free groups take about
# 1 s at any rank, spent in their SHELL_BUDGET.
GAMMA_MAX_CAP = 16
DEPTH_CAP = 16
CHECK_LEVEL_CAP = 4
N_CAP = 2
M_MAX_CAP = 16
TERMS_CAP = 4096
RANK_CAP = 12


class UsageError(Exception):
    """A malformed flag, argument or input file: exit code 2."""


# ---------------------------------------------------------------------------
# configuration

# Run settings, key: (parser, default).  Every command reads them from the
# parsed arguments: the default, then a --config file, then the flag.  hbar
# stays None unless one of them sets it; resolved_hbar is then DEFAULT_HBAR.
_SETTINGS = {
    "model": (str, "disk"), "hbar": (parse_rational, None), "n": (int, 1),
    "epsilon": (parse_rational, Fraction(1)), "gamma_max": (int, 4), "depth": (int, 8),
    "tolerance": (parse_rational, DEFAULT_TOL), "output": (str, "json"),
}


def _configure(args) -> None:
    """Sets the validated run settings, and resolved_hbar, on args."""
    settings = {key: default for key, (_, default) in _SETTINGS.items()}
    if args.config:
        settings.update(load_config_file(args.config))
    for key, (parse, _) in _SETTINGS.items():
        if getattr(args, key) is not None:
            settings[key] = _parse_flag(key, getattr(args, key), parse)
    vars(args).update(settings)
    for bad, message in [
        (args.n < 1, "n must be >= 1"),
        (args.n > N_CAP, f"n must be <= {N_CAP}"),
        (args.gamma_max < 0, "gamma-max must be >= 0"),
        (args.gamma_max > GAMMA_MAX_CAP, f"gamma-max must be <= {GAMMA_MAX_CAP}"),
        (args.depth < args.gamma_max, "depth must be >= gamma-max"),
        (args.depth > DEPTH_CAP, f"depth must be <= {DEPTH_CAP}"),
        (args.tolerance <= 0, "tolerance must be positive"),
        (args.output not in ("json", "csv", "pretty"), "output must be json, csv or pretty"),
    ]:
        if bad:
            raise UsageError(message)
    args.resolved_hbar = DEFAULT_HBAR if args.hbar is None else args.hbar


def load_config_file(path: str) -> dict:
    """key=value lines of a UTF-8 file; '#' starts a comment."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _SETTINGS[key][0](val.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from exc
    return out


def _parse_flag(name: str, text, parse=parse_rational):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--{name.replace('_', '-')}: {exc}") from exc


# a real part must end at the sign of an imaginary part or at the end, so
# that '3i' and '1/3i' read as pure imaginaries
_GR_PATTERN = re.compile(
    r"""^\s*
    (?:(?P<re>[+-]?[0-9]+(?:/[0-9]+)?)(?=[+-]|\s*$))?
    (?P<im>(?:[+-]?[0-9]+(?:/[0-9]+)?|[+-]?)i)?
    \s*$""",
    re.VERBOSE,
)


def parse_point_coordinate(text: str) -> GaussianRational:
    """Accepts 'p/q', 'p/qi' (pure imaginary), 'a+bi', 'a-bi', 'i', '-i'."""
    m = _GR_PATTERN.match(text)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise UsageError(f"cannot parse coordinate {text!r}")
    re_text, im_text = m.group("re") or "0", (m.group("im") or "0i")[:-1]
    im_text = {"": "1", "+": "1", "-": "-1"}.get(im_text, im_text)
    try:
        return GaussianRational.of(parse_rational(re_text), parse_rational(im_text))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse coordinate {text!r}: {exc}") from exc


def parse_point(text: str) -> tuple:
    return tuple(parse_point_coordinate(c) for c in text.split(","))


def format_gr(z: GaussianRational) -> str:
    if z.im == 0:
        return str(z.re)
    sign = "+" if z.im >= 0 else "-"
    return f"{z.re}{sign}{abs(z.im)}i"


# ---------------------------------------------------------------------------
# output plumbing


def _too_long(what: str) -> DomainError:
    return DomainError(f"{what} is too long to print "
                       f"(more than {sys.get_int_max_str_digits()} digits)")


def emit(render, out_path: str | None = None) -> None:
    """Writes render() to out_path, or to stdout.  render only formats: str() of
    an integer past sys.get_int_max_str_digits() raises ValueError, and that
    value is a domain error."""
    try:
        text = render()
    except ValueError as exc:
        raise _too_long("an exact value") from exc
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"--out: {exc}") from exc


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
    widths = {c: max([len(c)] + [len(str(r.get(c, ""))) for r in rows]) for c in columns}
    lines = [columns] + [[str(r.get(c, "")) for c in columns] for r in rows]
    return "".join("  ".join(v.ljust(widths[c]) for c, v in zip(columns, line)) + "\n"
                   for line in lines)


def _load_json(path: str, parse):
    """parse(data) of a JSON file; malformed JSON or content, and more than
    TERMS_CAP terms, are usage errors, while an index of the wrong dimension
    is a domain error."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # malformed, or an integer past the int-to-str digit limit
        raise UsageError(f"{path}: invalid JSON ({exc})") from exc
    terms = data.get("terms") if isinstance(data, dict) else None
    if isinstance(terms, list) and len(terms) > TERMS_CAP:
        raise UsageError(f"{path}: {len(terms)} terms, at most {TERMS_CAP} allowed")
    try:
        return parse(data)
    except DimensionError as exc:
        raise DimensionError(f"{path}: {exc}") from exc
    except (ValueError, ZeroDivisionError, KeyError, TypeError) as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _check_rank(path: str, rank: int, what: str) -> None:
    if rank > RANK_CAP:
        raise UsageError(f"{path}: an index of {what} {rank}, at most {RANK_CAP} allowed")


def read_element(model, path: str) -> Element:
    a = _load_json(path, lambda data: element_from_json(model, data))
    _check_rank(path, max(map(model.index_rank, a.terms), default=0), "rank")
    return a


# ---------------------------------------------------------------------------
# commands: each takes the parsed arguments, run settings included


def algebra_list(cfg) -> None:
    """Print the available models and their parameters."""
    rows = [{"name": entry["name"], "params": entry["params"]} for entry in model_registry()]
    emit(lambda: render_table(rows, ["name", "params"], cfg.output))


def product(cfg) -> None:
    """Exact product of two serialized elements."""
    model = get_model(cfg.model, hbar=cfg.hbar, epsilon=cfg.epsilon, n=cfg.n)
    a = read_element(model, cfg.a_file)
    b = read_element(model, cfg.b_file)
    prod = multiply(model, a, b)
    emit(lambda: render_json(element_to_json(model, prod)), cfg.out)


SEMINORM_COLUMNS = ["m", "ell", "gamma", "h_exact", "seminorm_float", "bracket_lo",
                    "bracket_hi", "depth"]


def _seminorm_row(res: SeminormResult, gamma_json) -> dict:
    br = res.h_bracket
    try:
        # str() of an integer past sys.get_int_max_str_digits() raises ValueError
        h_exact = "" if res.h_val is None else res.h_val.exact_string()
        lo_str = str(br.lo)
        hi_str = "inf" if br.hi.infinite else str(br.hi.value)
    except ValueError as exc:
        raise _too_long(f"the exact value at m={res.m}") from exc
    return {"m": res.m, "ell": res.ell, "gamma": json.dumps(gamma_json), "h_exact": h_exact,
            # a truncated row has only a lower bound, and prints no value
            "seminorm_float": "" if math.isnan(res.value_float) else repr(res.value_float),
            "bracket_lo": lo_str, "bracket_hi": hi_str, "depth": br.depth}


def seminorm(cfg) -> None:
    """Seminorm table over the support of an element.

    One row per (m, branch, index in the element's support); values are the
    recursion values with certified enclosures, roots presented as floats."""
    from .seminorms import HTable, OmegaWeights, omega_h, present

    model = get_model(cfg.model, hbar=cfg.hbar, epsilon=cfg.epsilon, n=cfg.n)
    a = read_element(model, cfg.a_file)
    table = HTable(model, a, cfg.tolerance)
    rows = []
    support = sorted(a.terms, key=model.index_sort_key)
    for m in range(cfg.m_max + 1):
        ell_m = cfg.ell & ((1 << m) - 1)
        for idx in support:
            res = present(m, ell_m, idx, table.h(m, ell_m, idx), cfg.tolerance)
            rows.append(_seminorm_row(res, model.index_to_json(idx)))
    if cfg.radius is not None:
        if model.h_majorant is None:
            raise DomainError(f"--radius tables need a model with a growth majorant, "
                              f"not {model.name}")
        weights = OmegaWeights.point_factorial(_parse_flag("radius", cfg.radius))
        for m in range(cfg.m_max + 1):
            ell_m = cfg.ell & ((1 << m) - 1)
            br = omega_h(model, a, m, ell_m, weights, cfg.depth, cfg.tolerance)
            rows.append(_seminorm_row(present(m, ell_m, None, br, cfg.tolerance),
                                      {"radius": str(weights.ratio)}))
    emit(lambda: render_table(rows, SEMINORM_COLUMNS, cfg.output), cfg.out)


def _value_row(val: GaussianRational) -> dict:
    return {"value": format_gr(val), "re": str(val.re), "im": str(val.im)}


def eval_cmd(cfg) -> None:
    """Evaluate an element at rational points."""
    model = get_model(cfg.model, hbar=cfg.hbar, epsilon=cfg.epsilon, n=cfg.n)
    a = read_element(model, cfg.a_file)
    if not hasattr(model, "evaluate"):
        raise DomainError(f"{model.name}: no evaluation functional")
    values = [(text, model.evaluate(a, parse_point(text))) for text in cfg.points]
    emit(lambda: render_table([{"point": text, **_value_row(val)} for text, val in values],
                              ["point", "value", "re", "im"], cfg.output), cfg.out)


def _read_vector(path: str, n: int):
    """A vector file whose indices have the disk's dimension n."""
    from .gns import gns_vector_from_json

    psi = _load_json(path, gns_vector_from_json)
    if any(len(q) != n for q in psi.terms):
        raise DimensionError(f"{path}: vector indices must have length {n}")
    _check_rank(path, max((q.degree() for q in psi.terms), default=0), "degree")
    return psi


def gns_inner_cmd(cfg) -> None:
    """Vacuum inner product of two vectors."""
    from .gns import gns_inner

    val = gns_inner(_read_vector(cfg.psi_file, cfg.n), _read_vector(cfg.phi_file, cfg.n),
                    cfg.resolved_hbar)
    emit(lambda: render_json(_value_row(val)))


def gns_rep_cmd(cfg) -> None:
    """Apply a disk element to a vector; --route both cross-checks."""
    from .cone import DiskModel
    from .gns import gns_rep, gns_rep_via_product, gns_vector_to_json

    model = DiskModel(cfg.n, cfg.resolved_hbar)
    a = read_element(model, cfg.a_file)
    psi = _read_vector(cfg.psi_file, model.n)
    if cfg.route == "product":
        res = gns_rep_via_product(a, psi, model.hbar)
    else:
        res = gns_rep(a, psi, model.hbar)
        if cfg.route == "both" and res != gns_rep_via_product(a, psi, model.hbar):
            sys.stderr.write("check failed: closed form differs from product route\n")
            sys.exit(1)
    emit(lambda: render_json(gns_vector_to_json(res)), cfg.out)


def gns_coherent_cmd(cfg) -> None:
    """Coherent vector at an interior point."""
    from .gns import coherent_vector, gns_vector_to_json

    w = parse_point(cfg.point)
    check_point_dimension(w, cfg.n, "a disk point")
    vec = coherent_vector(w, cfg.gamma_max if cfg.cap is None else cfg.cap)
    emit(lambda: render_json(gns_vector_to_json(vec)), cfg.out)


def gns_positivity_cmd(cfg) -> None:
    """Vacuum expectation of a* a for a disk element; exit 1 if negative."""
    from .cone import DiskModel
    from .gns import positivity_check

    model = DiskModel(cfg.n, cfg.resolved_hbar)
    a = read_element(model, cfg.a_file)
    val = positivity_check(a, model.hbar)
    emit(lambda: render_json({"value": str(val), "nonnegative": val >= 0}))
    if val < 0:
        sys.exit(1)


# the keys of checks.SUITES, sorted; named here so that --help lists them
SUITE_NAMES = ("associativity", "filtration", "ideal", "laurent-divergence", "oracle",
               "positivity", "symmetry")


def check(cfg) -> None:
    """Run an invariant suite; nonzero exit on any failure."""
    from .checks import run_suite

    if cfg.suite not in SUITE_NAMES:
        raise UsageError(f"unknown suite {cfg.suite!r}; known: {', '.join(SUITE_NAMES)}")
    checks, failures = run_suite(cfg.suite, cfg.n, cfg.resolved_hbar, cfg.level)
    for line in failures:
        print(f"FAIL {line}")
    if failures:
        print(f"check {cfg.suite}: FAIL ({len(failures)}/{checks} checks failed)")
        sys.exit(1)
    print(f"check {cfg.suite}: PASS ({checks} checks)")


# ---------------------------------------------------------------------------
# argument parsing


def _int_flag(lo: int, hi: int | None = None):
    """An argparse type: an integer from lo up to hi (no bound when None)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer.") from None
        if value < lo or (hi is not None and value > hi):
            span = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"
            raise argparse.ArgumentTypeError(f"{value} is not in the range {span}.")
        return value
    return parse


def _choice(*names: str):
    """An argparse type: one of names."""
    def parse(text: str) -> str:
        if text not in names:
            listed = ", ".join(repr(name) for name in names)
            raise argparse.ArgumentTypeError(f"{text!r} is not one of {listed}.")
        return text
    return parse


def _readable(path: str) -> str:
    """An argparse type: a file that opens for reading."""
    try:
        open(path, "rb").close()
    except FileNotFoundError:
        raise argparse.ArgumentTypeError(f"Path {path!r} does not exist.") from None
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"Path {path!r} cannot be read: {exc.strerror}.") from None
    return path


def _joined(argv: list[str]) -> list[str]:
    """argv with each `--option value` written `--option=value`: every option
    but --help takes a value, and one that starts with '-' (--hbar -5/7,
    --point -i) stays a value.  A value of exactly '--' is a UsageError:
    argparse would strip it and hand the option an empty list."""
    out, rest = [], iter(argv)
    for arg in rest:
        if arg == "--":
            return out + [arg, *rest]
        if arg.startswith("--") and "=" not in arg and arg != "--help":
            value = next(rest, None)
            if value is not None:
                arg = f"{arg}={value}"
        option, _, value = arg.partition("=")
        if option.startswith("--") and value == "--":
            raise UsageError(f"argument {option}: expected a value, not '--'")
        out.append(arg)
    return out


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="exactstar", allow_abbrev=False,
        description="Exact star products, seminorm tables and representation checks.",
        epilog=f"Caps: --n {N_CAP}, --gamma-max {GAMMA_MAX_CAP}, --depth {DEPTH_CAP}, "
               f"--m-max {M_MAX_CAP}, --cap {GAMMA_MAX_CAP}, --level {CHECK_LEVEL_CAP}, "
               f"{TERMS_CAP} terms and index rank {RANK_CAP} per file.  Exit codes: "
               "0 success, 1 a check failed, 2 usage or parse error, 3 domain error or "
               "unresolved comparison.")
    for flag, text in [("--model", "Model name, see `algebra list`."),
                       ("--hbar", "Deformation parameter p/q."),
                       ("--n", "Number of disk variables."),
                       ("--epsilon", "Group weight exponent (1 or 1/2)."),
                       ("--gamma-max", "Level cutoff for tables."),
                       ("--depth", "Partial-sum depth for brackets, at least gamma-max."),
                       ("--tolerance", "Enclosure width target p/q.")]:
        top.add_argument(flag, help=text)
    top.add_argument("--output", type=_choice("json", "csv", "pretty"), help="json, csv or pretty.")
    top.add_argument("--config", type=_readable,
                     help="key=value file mirroring the flags; flags win.")

    def group(commands, name, text):
        parser = commands.add_parser(name, help=text, description=text, allow_abbrev=False)
        return parser.add_subparsers(required=True, metavar="COMMAND")

    def command(commands, name, run, *files, out=False):
        text = run.__doc__.split("\n")[0]
        parser = commands.add_parser(name, help=text, description=text, allow_abbrev=False)
        parser.set_defaults(run=run, parser=parser)
        for file in files:
            parser.add_argument(file, type=_readable)
        if out:
            parser.add_argument("--out", help="Write to this file instead of stdout.")
        return parser

    commands = top.add_subparsers(required=True, metavar="COMMAND")
    command(group(commands, "algebra", "Registry introspection."), "list", algebra_list)
    command(commands, "product", product, "a_file", "b_file", out=True)
    p = command(commands, "seminorm", seminorm, "a_file", out=True)
    p.add_argument("--m-max", type=_int_flag(0, M_MAX_CAP), default=2,
                   help=f"Deepest recursion level, at most {M_MAX_CAP} (default 2).")
    p.add_argument("--ell", type=_int_flag(0), default=0,
                   help="Branch word; truncated to the m low bits per row (default 0).")
    p.add_argument("--radius", help="Also append summed rows at this radius "
                                    "(models with a growth majorant: cone, poly).")
    p = command(commands, "eval", eval_cmd, "a_file", out=True)
    p.add_argument("--point", dest="points", action="append", required=True,
                   help="Comma-separated coordinates, e.g. '1,0' or '3/5+4/5i'; repeatable.")
    gns = group(commands, "gns", "Vacuum representation: inner products, action, coherent vectors.")
    command(gns, "inner", gns_inner_cmd, "psi_file", "phi_file")
    p = command(gns, "rep", gns_rep_cmd, "a_file", "psi_file", out=True)
    p.add_argument("--route", type=_choice("closed", "product", "both"), default="closed",
                   help="closed (default), product or both.")
    p = command(gns, "coherent", gns_coherent_cmd, out=True)
    p.add_argument("--point", required=True, help="Interior point, comma-separated coordinates.")
    p.add_argument("--cap", type=_int_flag(0, GAMMA_MAX_CAP),
                   help=f"Support cap, at most {GAMMA_MAX_CAP}; defaults to gamma-max.")
    command(gns, "positivity", gns_positivity_cmd, "a_file")
    p = command(commands, "check", check)
    p.add_argument("suite", help="One of " + ", ".join(SUITE_NAMES) + ".")
    p.add_argument("--level", type=_int_flag(0, CHECK_LEVEL_CAP), default=2,
                   help=f"Basis level cutoff for the suite, at most {CHECK_LEVEL_CAP} (default 2).")
    return top


def main(argv: list[str] | None = None) -> None:
    """`exactstar ARGS`: returns on success, else raises SystemExit with 1 (a check
    failed), 2 (a usage error) or 3 (`error: <message>` for a DomainError, an
    InfiniteFanError included, or an UnresolvedError)."""
    parser = _parser()
    try:
        argv = _joined(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        parser.error(str(exc))
    args = parser.parse_args(argv)
    try:
        _configure(args)
    except UsageError as exc:
        parser.error(str(exc))
    try:
        args.run(args)
    except UsageError as exc:
        args.parser.error(str(exc))
    except (DomainError, UnresolvedError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.exit(3)


if __name__ == "__main__":
    main()
