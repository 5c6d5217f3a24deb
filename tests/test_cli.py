import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from exactstar.algebra import Element, element_from_json, element_to_json, from_pairs, multiply
from exactstar.cli import UsageError, main, parse_point_coordinate
from exactstar.cone import (
    DiskModel,
    cone_triples,
    make_triple,
    tilde_structure_constants,
)
from exactstar.gns import GnsVector, gns_vector_from_json, gns_vector_to_json
from exactstar.models import get_model
from exactstar.scalars import GaussianRational, MultiIndex

from laws import wick_z, wick_zbar
from oracles import disk_product_by_extraction

GR = GaussianRational.of


def run(*args):
    """`exactstar ARGS` in this process.  output interleaves stdout and stderr in
    the order written; exit_code is the SystemExit code, or 1 for an uncaught
    exception, and exception is what ended a run with a nonzero code."""
    both = io.StringIO()

    class Stream(io.StringIO):
        def write(self, text):
            both.write(text)
            return super().write(text)

    out, err = Stream(), Stream()
    code, exception = 0, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
            if code != 0:
                exception = exc
            if not isinstance(code, int):
                sys.stdout.write(f"{code}\n")
                code = 1
        except Exception as exc:
            code, exception = 1, exc
    return SimpleNamespace(output=both.getvalue(), stdout=out.getvalue(), stderr=err.getvalue(),
                           exit_code=code, exception=exception)


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def poly_file(tmp_path, name, pairs, model="poly:monomial"):
    m = get_model(model)
    return write_json(tmp_path / name, element_to_json(m, from_pairs(pairs)))


def test_algebra_list():
    res = run("algebra", "list")
    assert res.exit_code == 0
    rows = json.loads(res.output)["rows"]
    names = {r["name"] for r in rows}
    assert {"poly:monomial", "laurent:factorial", "matrix:hat", "group:Z",
            "cone", "disk"} <= names


def test_product_poly(tmp_path):
    a = poly_file(tmp_path, "a.json", [(1, 2), (2, 1)])
    b = poly_file(tmp_path, "b.json", [(0, 1), (1, 1)])
    res = run("--model", "poly:monomial", "product", a, b)
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    m = get_model("poly:monomial")
    got = element_from_json(m, data)
    want = multiply(m, from_pairs([(1, 2), (2, 1)]), from_pairs([(0, 1), (1, 1)]))
    assert got == want


def test_product_byte_deterministic(tmp_path):
    a = poly_file(tmp_path, "a.json", [(3, Fraction(1, 3)), (1, 1)])
    b = poly_file(tmp_path, "b.json", [(2, 5)])
    first = run("--model", "poly:monomial", "product", a, b)
    second = run("--model", "poly:monomial", "product", a, b)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


def test_product_disk_round_trip(tmp_path):
    hbar = Fraction(3, 7)
    dm = DiskModel(1, hbar)
    Z1, E1, E2 = MultiIndex((0,)), MultiIndex((1,)), MultiIndex((2,))
    a = Element({(E1, Z1): GR(2, 1), (Z1, E2): GR(Fraction(1, 3))})
    b = Element({(E2, E1): GR(0, -1), (Z1, Z1): GR(5)})
    out = tmp_path / "ab.json"
    res = run("--model", "disk", "--hbar", "3/7", "product",
              write_json(tmp_path / "a.json", element_to_json(dm, a)),
              write_json(tmp_path / "b.json", element_to_json(dm, b)), "--out", str(out))
    assert res.exit_code == 0, res.output
    got = element_from_json(dm, json.loads(out.read_text()))
    assert got == disk_product_by_extraction(a, b, hbar) and not got.is_zero()
    # the written file is the serialized product, byte for byte
    assert json.loads(out.read_text()) == element_to_json(dm, got)


def test_product_out_file_round_trip(tmp_path):
    m = get_model("wick:1", hbar=Fraction(1, 2))
    z = write_json(tmp_path / "z.json", element_to_json(m, wick_z(m, 0)))
    zb = write_json(tmp_path / "zb.json", element_to_json(m, wick_zbar(m, 0)))
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    args = ("--model", "wick:1", "--hbar", "1/2")
    assert run(*args, "product", z, zb, "--out", str(p1)).exit_code == 0
    assert run(*args, "product", zb, z, "--out", str(p2)).exit_code == 0
    e1 = element_from_json(m, json.loads(p1.read_text()))
    e2 = element_from_json(m, json.loads(p2.read_text()))
    comm = e1 - e2
    zero = MultiIndex.zero(1)
    assert comm == Element.basis((zero, zero))


def test_eval_values(tmp_path):
    a = poly_file(tmp_path, "a.json", [(0, 1), (2, 1)])
    res = run("--model", "poly:monomial", "eval", a, "--point", "2",
              "--point", "1/2+i")
    assert res.exit_code == 0, res.output
    rows = json.loads(res.output)["rows"]
    assert rows[0]["value"] == "5"
    z = GR(Fraction(1, 2), 1)
    want = GR(1) + z * z
    assert rows[1]["re"] == str(want.re)
    assert rows[1]["im"] == str(want.im)


def test_eval_parse_error(tmp_path):
    a = poly_file(tmp_path, "a.json", [(0, 1)])
    res = run("--model", "poly:monomial", "eval", a, "--point", "oops")
    assert res.exit_code == 2


def test_eval_domain_error(tmp_path):
    m = get_model("laurent:plain")
    a = write_json(tmp_path / "a.json", element_to_json(m, from_pairs([(-1, 1)])))
    res = run("--model", "laurent:plain", "eval", a, "--point", "0")
    assert res.exit_code == 3


def test_point_coordinate_parser():
    assert parse_point_coordinate("3/5+4/5i") == GR(Fraction(3, 5), Fraction(4, 5))
    assert parse_point_coordinate("-i") == GR(0, -1)
    assert parse_point_coordinate("7") == GR(7)


@pytest.mark.parametrize("text, value", [
    ("3i", GR(0, 3)),
    ("1/3i", GR(0, Fraction(1, 3))),
    ("-2i", GR(0, -2)),
    ("+12/5i", GR(0, Fraction(12, 5))),
    ("i", GR(0, 1)),
    ("-i", GR(0, -1)),
    ("2+3i", GR(2, 3)),
    ("1/2-i", GR(Fraction(1, 2), -1)),
    ("-1/3-2/7i", GR(Fraction(-1, 3), Fraction(-2, 7))),
    (" 5 ", GR(5)),
    ("3i+2", None),
    ("2+-3i", None),
    ("1/3/i", None),
])
def test_point_coordinate_forms(text, value):
    if value is None:
        with pytest.raises(UsageError, match="cannot parse coordinate"):
            parse_point_coordinate(text)
    else:
        assert parse_point_coordinate(text) == value


def test_seminorm_table(tmp_path):
    a = poly_file(tmp_path, "a.json", [(5, 1)])
    res = run("--model", "poly:monomial", "seminorm", a, "--m-max", "2")
    assert res.exit_code == 0, res.output
    rows = json.loads(res.output)["rows"]
    assert [r["m"] for r in rows] == [0, 1, 2]
    assert [r["h_exact"] for r in rows] == ["1", "1", "1"]
    for r in rows:
        assert r["bracket_hi"] != "inf"


def test_seminorm_divergent_rows(tmp_path):
    m = get_model("laurent:plain")
    a = write_json(tmp_path / "a.json", element_to_json(m, from_pairs([(1, 1)])))
    res = run("--model", "laurent:plain", "seminorm", a, "--m-max", "2")
    assert res.exit_code == 0, res.output
    rows = json.loads(res.output)["rows"]
    assert rows[-1]["bracket_hi"] == "inf"
    assert rows[-1]["seminorm_float"] == "inf"


def test_seminorm_radius_cone(tmp_path):
    m = get_model("cone", hbar=Fraction(1, 2))
    t = make_triple(MultiIndex((0,)), MultiIndex((0,)), 1)
    a = write_json(tmp_path / "a.json", element_to_json(m, Element.basis(t)))
    res = run("--model", "cone", "--hbar", "1/2", "seminorm", a,
              "--m-max", "1", "--radius", "1/2")
    assert res.exit_code == 0, res.output
    rows = json.loads(res.output)["rows"]
    tails = [r for r in rows if r["gamma"] == json.dumps({"radius": "1/2"})]
    assert len(tails) == 2


def test_seminorm_radius_needs_cone(tmp_path):
    # cone and poly have a growth majorant to close the radius tail; Laurent has none
    m = get_model("laurent:plain")
    a = write_json(tmp_path / "a.json", element_to_json(m, from_pairs([(1, 1)])))
    res = run("--model", "laurent:plain", "seminorm", a, "--radius", "1/2")
    assert res.exit_code == 3
    assert "growth majorant" in res.stderr and "Traceback" not in res.output


def test_output_modes(tmp_path):
    a = poly_file(tmp_path, "a.json", [(2, 1)])
    csv_res = run("--model", "poly:monomial", "--output", "csv", "seminorm", a)
    assert csv_res.exit_code == 0
    assert csv_res.output.splitlines()[0].startswith("m,ell,gamma")
    pretty = run("--model", "poly:monomial", "--output", "pretty", "seminorm", a)
    assert pretty.exit_code == 0
    assert pretty.output.splitlines()[0].split()[:2] == ["m", "ell"]
    bad = run("--output", "yaml", "algebra", "list")
    assert bad.exit_code == 2


def test_gns_inner(tmp_path):
    psi = write_json(tmp_path / "psi.json",
                     gns_vector_to_json(GnsVector.basis(MultiIndex((1,)))))
    res = run("gns", "inner", psi, psi)
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["value"] == "1"

    res = run("--hbar", "1/4", "gns", "inner", psi, psi)
    assert json.loads(res.output)["value"] == "2"


def test_gns_inner_sums_repeated_indices(tmp_path):
    # like an element file, a vector file that lists an index twice means the
    # sum of its coefficients: 1 + 2 at [1] against e_[1] at hbar = 1/2
    twice = write_json(tmp_path / "twice.json", {"terms": [{"index": [1], "re": "1"},
                                                           {"index": [1], "re": "2"}]})
    one = write_json(tmp_path / "one.json", gns_vector_to_json(GnsVector.basis(MultiIndex((1,)))))
    res = run("gns", "inner", twice, one)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["value"] == "3"


def test_gns_rep_routes(tmp_path):
    dm = DiskModel(1, Fraction(1, 2))
    a = write_json(
        tmp_path / "a.json",
        element_to_json(dm, Element.basis((MultiIndex((1,)), MultiIndex((0,))))),
    )
    psi = write_json(tmp_path / "psi.json",
                     gns_vector_to_json(GnsVector.basis(MultiIndex((1,)))))
    outs = []
    for route in ("closed", "product", "both"):
        res = run("--model", "disk", "--hbar", "1/2", "gns", "rep", a, psi,
                  "--route", route)
        assert res.exit_code == 0, res.output
        outs.append(res.output)
    assert outs[0] == outs[1] == outs[2]
    vec = gns_vector_from_json(json.loads(outs[0]))
    assert not vec.is_zero()


@pytest.mark.parametrize("command, code", [
    ("mixed", 2),
    ("rep", 3),
    ("inner", 3),
], ids=["one file mixes lengths", "rep vector against --n", "inner pair differs"])
def test_gns_vector_dimension(tmp_path, command, code):
    def vector(name, *indices):
        return write_json(tmp_path / name, {"terms": [
            {"index": list(q), "re": "1", "im": "0"} for q in indices]})

    one, two = vector("one.json", (1,)), vector("two.json", (1, 0))
    if command == "mixed":
        args = ["gns", "inner", one, vector("mixed.json", (1,), (1, 0))]
    elif command == "rep":
        dm = DiskModel(1, Fraction(1, 2))
        a = write_json(tmp_path / "a.json", element_to_json(
            dm, Element.basis((MultiIndex((1,)), MultiIndex((0,))))))
        args = ["--model", "disk", "--n", "1", "--hbar", "1/2", "gns", "rep", a, two]
    else:
        args = ["gns", "inner", one, two]
    res = run(*args)
    assert res.exit_code == code, (res.output, res.exception)
    assert "length" in res.output
    assert "Traceback" not in res.output


def test_gns_coherent_pin():
    res = run("gns", "coherent", "--point", "1/2", "--cap", "2")
    assert res.exit_code == 0, res.output
    vec = gns_vector_from_json(json.loads(res.output))
    assert vec.coeff(MultiIndex((0,))) == GR(1)
    assert vec.coeff(MultiIndex((1,))) == GR(Fraction(2, 3))
    assert vec.coeff(MultiIndex((2,))) == GR(Fraction(8, 9))
    bad = run("gns", "coherent", "--point", "1", "--cap", "2")
    assert bad.exit_code == 3
    # a point whose length is not --n
    bad = run("--n", "1", "gns", "coherent", "--point", "1/4,1/4,1/4", "--cap", "1")
    assert bad.exit_code == 3, (bad.output, bad.exception)
    assert bad.output == "error: a disk point has 1 coordinates, got 3\n"
    assert run("--n", "2", "gns", "coherent", "--point", "1/4,1/4", "--cap", "1").exit_code == 0


def test_gns_positivity(tmp_path):
    dm = DiskModel(1, Fraction(1, 2))
    Z1 = MultiIndex((0,))
    a = write_json(tmp_path / "a.json",
                   element_to_json(dm, Element.basis((Z1, Z1)).scale(GR(2))))
    res = run("--model", "disk", "gns", "positivity", a)
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["nonnegative"] is True
    assert data["value"] == "4"


def test_check_suites_pass():
    fast = [
        ("oracle", "1"),
        ("laurent-divergence", "2"),
        ("ideal", "2"),
        ("symmetry", "1"),
        ("filtration", "1"),
        ("positivity", "2"),
    ]
    for suite, level in fast:
        res = run("check", suite, "--level", level)
        assert res.exit_code == 0, (suite, res.output)
        assert f"check {suite}: PASS" in res.output


# `check SUITE` at the default level 2 and n = 1; benchmark digests hash these lines
PASS_LINES = {
    "oracle": 392,
    "positivity": 20,
    "laurent-divergence": 6,
    "ideal": 10,
    "symmetry": 93,
    "filtration": 547,
    "associativity": 439,
}


@pytest.mark.parametrize("suite", sorted(PASS_LINES))
def test_check_pass_lines_pinned(suite):
    res = run("check", suite)
    assert res.exit_code == 0, res.output
    assert res.output == f"check {suite}: PASS ({PASS_LINES[suite]} checks)\n"


def test_check_failure_path(monkeypatch):
    import exactstar.gns

    monkeypatch.setattr(exactstar.gns, "positivity_check", lambda a, hbar: Fraction(-1))
    res = run("check", "positivity")
    assert res.exit_code == 1, res.output
    lines = res.output.splitlines()
    assert lines == ["FAIL negative vacuum expectation -1"] * 20 + [
        "check positivity: FAIL (20/20 checks failed)"]


@pytest.mark.parametrize("shift, message", [
    (10, "FAIL level window violated at "),
    (0, "FAIL occupancy must be 0 or 1"),
], ids=["window", "occupancy"])
def test_check_filtration_one_message_per_check(monkeypatch, shift, message):
    import exactstar.checks

    def shifted(t1, t2):
        return {(I, J, g + shift): c for (I, J, g), c in tilde_structure_constants(t1, t2).items()}

    # a shifted level breaks the window but not the transpose symmetry; occupancy
    # fails too, and only the first failing test of a target may report
    monkeypatch.setattr(exactstar.checks, "tilde_structure_constants", shifted)
    monkeypatch.setattr(exactstar.checks, "occupancy_count", lambda t1, t2, target: 2)
    triples = list(cone_triples(1, 1))
    targets = sum(len(tilde_structure_constants(t1, t2)) for t1 in triples for t2 in triples)
    res = run("check", "filtration", "--level", "1")
    assert res.exit_code == 1, res.output
    *fails, summary = res.output.splitlines()
    assert len(fails) == targets and all(line.startswith(message) for line in fails)
    checks = targets + len(triples) ** 2
    assert summary == f"check filtration: FAIL ({targets}/{checks} checks failed)"


def test_check_associativity():
    res = run("check", "associativity", "--level", "1")
    assert res.exit_code == 0, res.output
    assert "PASS" in res.output


def test_check_unknown_suite():
    res = run("check", "nope")
    assert res.exit_code == 2


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = poly:monomial\ngamma-max = 3  # comment\n")
    a = poly_file(tmp_path, "a.json", [(1, 1)], model="poly:factorial")
    b = poly_file(tmp_path, "b.json", [(1, 1)], model="poly:factorial")
    # the file would pick the wrong model; the flag must override it
    res = run("--config", str(cfg), "--model", "poly:factorial", "product", a, b)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["model"] == "poly:factorial"
    # and without the flag the config applies, so the files no longer parse
    res = run("--config", str(cfg), "product", a, b)
    assert res.exit_code == 2


def test_config_file_errors(tmp_path):
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("colour = blue\n")
    assert run("--config", str(bad_key), "algebra", "list").exit_code == 2
    bad_val = tmp_path / "bad2.cfg"
    bad_val.write_text("hbar = abc\n")
    assert run("--config", str(bad_val), "algebra", "list").exit_code == 2
    no_eq = tmp_path / "bad3.cfg"
    no_eq.write_text("just words\n")
    assert run("--config", str(no_eq), "algebra", "list").exit_code == 2


def test_bad_flag_values(tmp_path):
    a = poly_file(tmp_path, "a.json", [(1, 1)])
    assert run("--hbar", "x/y", "product", a, a).exit_code == 2
    assert run("--gamma-max", "-1", "algebra", "list").exit_code == 2
    assert run("--depth", "1", "--gamma-max", "5", "algebra", "list").exit_code == 2


@pytest.mark.parametrize("model, P, Q, code", [
    ("cone", [1, 0], [0, 0], 3),
    ("disk", [1, 0], [0, 0], 3),
    ("cone", [1, 0], [0], 2),
    ("disk", [1, 0], [0], 2),
], ids=["cone index against --n", "disk index against --n",
        "cone P and Q differ", "disk P and Q differ"])
def test_element_index_dimension(tmp_path, model, P, Q, code):
    # an index whose length is not --n exits 3, as a GNS vector's does
    index = {"P": P, "Q": Q, "alpha": 1} if model == "cone" else {"P": P, "Q": Q}
    a = write_json(tmp_path / "a.json", {"model": model, "terms": [
        {"index": index, "re": "1", "im": "0"}]})
    res = run("--model", model, "--n", "1", "--hbar", "1/2", "product", a, a)
    assert res.exit_code == code, (res.output, res.exception)
    assert ("length must be 1" if code == 3 else "share one dimension") in res.output
    assert "Traceback" not in res.output


def test_seminorm_float_past_the_float_range(tmp_path):
    # the exact h value 10^400 and its root ends do not fit in a float
    a = write_json(tmp_path / "a.json", {"model": "poly:monomial", "terms": [
        {"index": 2, "re": "1" + "0" * 400, "im": "0"}]})
    res = run("--model", "poly:monomial", "--output", "json", "seminorm", a, "--m-max", "1")
    assert res.exit_code == 0, (res.output, res.exception)
    rows = json.loads(res.output)["rows"]
    assert [r["seminorm_float"] for r in rows] == ["inf", "inf"]
    assert rows[1]["bracket_lo"].startswith("1" + "0" * 200)


def test_domain_error_exit(tmp_path):
    m = get_model("cone", hbar=Fraction(1, 2))
    t = make_triple(MultiIndex((0,)), MultiIndex((0,)), 0)
    a = write_json(tmp_path / "a.json", element_to_json(m, Element.basis(t)))
    res = run("--model", "cone", "--hbar", "0", "product", a, a)
    assert res.exit_code == 3


@pytest.mark.parametrize("spec", [
    "nope", "poly", "cone:1", "group:Q", "group:Zd", "group:Zd:", "group:Zd:x", "group:free:x",
    "group:free:1.5", "wick:x", "wick:",
])
def test_malformed_model_spec_is_domain_error(tmp_path, spec):
    a = poly_file(tmp_path, "a.json", [(1, 1)])
    res = run("--model", spec, "--hbar", "1/2", "product", a, a)
    assert res.exit_code == 3, (res.output, res.exception)
    assert res.stderr == f"error: unknown model {spec!r}\n"


@pytest.mark.parametrize("command", ["product", "seminorm", "gns inner"])
def test_index_rank_capped(tmp_path, command):
    import time

    from exactstar.cli import RANK_CAP

    def args(rank):
        if command == "product":
            a = write_json(tmp_path / f"c{rank}.json", {"model": "cone", "terms": [
                {"index": {"P": [0], "Q": [0], "alpha": rank}, "re": "1", "im": "0"}]})
            return ["--model", "cone", "--hbar", "1/2", "product", a, a]
        if command == "seminorm":
            return ["--model", "poly:monomial", "seminorm",
                    poly_file(tmp_path, f"p{rank}.json", [(rank, 1)]), "--m-max", "2"]
        psi = write_json(tmp_path / f"v{rank}.json", {"terms": [{"index": [rank, 0], "re": "1"}]})
        return ["--n", "2", "gns", "inner", psi, psi]

    assert run(*args(RANK_CAP)).exit_code == 0
    what = "degree" if command == "gns inner" else "rank"
    # a cone level of 10^6 and a monomial index of 10^9 ran past 15 s unchecked
    for rank in (RANK_CAP + 1, 10**6 if command == "product" else 10**9):
        start = time.perf_counter()
        res = run(*args(rank))
        assert time.perf_counter() - start < 1
        assert res.exit_code == 2, (res.output, res.exception)
        assert f"an index of {what} {rank}, at most {RANK_CAP} allowed" in res.stderr
        assert "Traceback" not in res.output


def test_malformed_element_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run("--model", "poly:monomial", "seminorm", str(bad))
    assert res.exit_code == 2
    missing_terms = write_json(tmp_path / "m.json", {"model": "poly:monomial"})
    res = run("--model", "poly:monomial", "seminorm", missing_terms)
    assert res.exit_code == 2


@pytest.mark.parametrize("command, data, message", [
    ("product", {"terms": [5]}, "term entry must be an object"),
    ("product", {"terms": 5}, "element JSON 'terms' must be a list"),
    ("product", {"terms": [{"re": "1"}]}, "term entry missing 'index'"),
    ("gns rep", {"terms": [5]}, "term entry must be an object"),
    ("gns rep", {"terms": 5}, "GNS vector JSON 'terms' must be a list"),
    ("gns rep", {"terms": [{"re": "1"}]}, "term entry missing 'index'"),
    ("gns rep", {"terms": [{"index": 5, "re": "1"}]}, "a multiindex must be a list of integers"),
], ids=["product-entry", "product-terms", "product-index", "gns-entry", "gns-terms",
        "gns-index", "gns-index-number"])
def test_malformed_term_entries(tmp_path, command, data, message):
    """A malformed terms list, term entry or vector index exits 2 with a
    stated message, for an element and for a GNS vector alike."""
    bad = write_json(tmp_path / "bad.json", data)
    if command == "product":
        args = ["product", bad, bad]
    else:
        x = write_json(tmp_path / "x.json", {"model": "disk", "terms": [
            {"index": {"P": [0], "Q": [0]}, "re": "1"}]})
        args = ["gns", "rep", x, bad]
    res = run("--model", "disk", "--hbar", "1/2", *args)
    assert res.exit_code == 2, (res.output, res.exception)
    assert res.stderr.splitlines()[-1] == f"exactstar {command}: error: {bad}: {message}"


def _zero_denominator_args(tmp_path, entry):
    good = poly_file(tmp_path, "good.json", [(1, 1)])
    if entry == "product":
        bad = write_json(tmp_path / "bad.json", {"model": "poly:monomial", "terms": [
            {"index": 1, "re": "1/0", "im": "0"}]})
        return ["--model", "poly:monomial", "product", bad, good]
    if entry == "gns inner":
        bad = write_json(tmp_path / "psi.json", {"terms": [
            {"index": [1], "re": "1/0", "im": "0"}]})
        return ["gns", "inner", bad, bad]
    if entry == "eval":
        return ["--model", "poly:monomial", "eval", good, "--point", "1/0"]
    if entry == "gns coherent":
        return ["gns", "coherent", "--point", "1/0+i", "--cap", "2"]
    m = get_model("cone", hbar=Fraction(1, 2))
    t = make_triple(MultiIndex((0,)), MultiIndex((0,)), 1)
    a = write_json(tmp_path / "a.json", element_to_json(m, Element.basis(t)))
    return ["--model", "cone", "--hbar", "1/2", "seminorm", a, "--m-max", "0",
            "--radius", "1/0"]


@pytest.mark.parametrize(
    "entry", ["product", "gns inner", "eval", "gns coherent", "seminorm --radius"])
def test_zero_denominator_is_usage_error(tmp_path, entry):
    res = run(*_zero_denominator_args(tmp_path, entry))
    assert res.exit_code == 2, (res.output, res.exception)
    assert "Traceback" not in res.output
    assert "zero denominator in '1/0'" in res.stderr and "Fraction(" not in res.stderr


def _bad_multiindex_args(tmp_path, entry, P):
    if entry == "product":
        m = get_model("cone", hbar=Fraction(1, 2))
        good = write_json(tmp_path / "good.json", element_to_json(
            m, Element.basis(make_triple(MultiIndex((1,)), MultiIndex((0,)), 1))))
        bad = write_json(tmp_path / "bad.json", {"model": "cone", "terms": [
            {"index": {"P": P, "Q": [0], "alpha": 1}, "re": "1", "im": "0"}]})
        return ["--model", "cone", "--hbar", "1/2", "product", bad, good]
    bad = write_json(tmp_path / "psi.json", {"terms": [{"index": P, "re": "1", "im": "0"}]})
    return ["gns", "inner", bad, bad]


@pytest.mark.parametrize("P", [[1.5], [True], ["1"], "1"])
@pytest.mark.parametrize("entry", ["product", "gns inner"])
def test_non_integer_multiindex_is_usage_error(tmp_path, entry, P):
    # each of these used to be coerced to the valid index [1]
    res = run(*_bad_multiindex_args(tmp_path, entry, P))
    assert res.exit_code == 2, (res.output, res.exception)
    assert "Traceback" not in res.output


def _non_rational_args(tmp_path, entry):
    good = poly_file(tmp_path, "good.json", [(1, 1)])
    if entry == "--hbar":
        return ["--model", "cone", "--hbar", "1e999999", "algebra", "list"]
    if entry == "coefficient":
        bad = write_json(tmp_path / "bad.json", {"model": "poly:monomial", "terms": [
            {"index": 1, "re": "1e999999", "im": "0"}]})
        return ["--model", "poly:monomial", "product", bad, good]
    if entry == "--point digits":
        return ["--model", "poly:monomial", "eval", good, "--point", "1" * 1001 + "i"]
    if entry == "--point non-ascii":
        return ["--model", "poly:monomial", "eval", good, "--point", "\u0663/2"]
    if entry == "coefficient number":
        bad = write_json(tmp_path / "bad.json", {"model": "poly:monomial", "terms": [
            {"index": 1, "re": 5, "im": "0"}]})
        return ["--model", "poly:monomial", "product", bad, good]
    if entry == "gns coefficient number":
        bad = write_json(tmp_path / "psi.json", {"terms": [{"index": [1], "re": 5}]})
        return ["gns", "inner", bad, bad]
    if entry == "gns vector list":
        bad = write_json(tmp_path / "psi.json", [1, 2])
        return ["gns", "inner", bad, bad]
    m = get_model("cone", hbar=Fraction(1, 2))
    t = make_triple(MultiIndex((0,)), MultiIndex((0,)), 1)
    a = write_json(tmp_path / "a.json", element_to_json(m, Element.basis(t)))
    return ["--model", "cone", "--hbar", "1/2", "seminorm", a, "--m-max", "0",
            "--radius", "0.5"]


@pytest.mark.parametrize(
    "entry", ["--hbar", "coefficient", "--radius", "--point digits", "--point non-ascii",
              "coefficient number", "gns coefficient number", "gns vector list"])
def test_rational_outside_p_over_q_is_usage_error(tmp_path, entry):
    res = run(*_non_rational_args(tmp_path, entry))
    assert res.exit_code == 2, (res.output, res.exception)
    assert "Traceback" not in res.output


def _cone_file(tmp_path):
    m = get_model("cone", hbar=Fraction(1, 2))
    t = make_triple(MultiIndex((1,)), MultiIndex((0,)), 1)
    return write_json(tmp_path / "a.json", element_to_json(m, Element.basis(t)))


@pytest.mark.parametrize("flag, args", [
    ("--level", ["check", "ideal", "--level", "-2"]),
    ("--level", ["check", "filtration", "--level", "-1"]),
    ("--m-max", ["seminorm", "--m-max", "-1"]),
    ("--ell", ["seminorm", "--ell", "-1"]),
    ("--cap", ["gns", "coherent", "--point", "1/2", "--cap", "-1"]),
    ("n must be", ["--model", "cone", "--hbar", "1/2", "--n", "-1", "check", "oracle"]),
], ids=["ideal --level", "filtration --level", "--m-max", "--ell", "--cap", "--n"])
def test_negative_integer_flag_is_usage_error(tmp_path, flag, args):
    if args[0] == "seminorm":
        args = ["--model", "cone", "--hbar", "1/2", "seminorm", _cone_file(tmp_path), *args[1:]]
    res = run(*args)
    assert res.exit_code == 2, (res.output, res.exception)
    assert flag in res.output
    assert "Traceback" not in res.output


def _dash_value_commands(tmp_path):
    """option -> a valid command line that gives that option the value VALUE."""
    a = _cone_file(tmp_path)
    dm = DiskModel(1, Fraction(1, 2))
    x = write_json(tmp_path / "x.json",
                   element_to_json(dm, Element.basis((MultiIndex((1,)), MultiIndex((0,))))))
    psi = write_json(tmp_path / "psi.json", gns_vector_to_json(GnsVector.basis(MultiIndex((1,)))))
    cone = ["--model", "cone", "--hbar", "1/2"]
    commands = {flag: [flag, "VALUE", "algebra", "list"]
                for flag in ("--model", "--hbar", "--n", "--epsilon", "--gamma-max", "--depth",
                             "--tolerance", "--output", "--config")}
    commands.update({
        "--out": [*cone, "product", a, a, "--out", "VALUE"],
        "--m-max": [*cone, "seminorm", a, "--m-max", "VALUE"],
        "--ell": [*cone, "seminorm", a, "--ell", "VALUE"],
        "--radius": [*cone, "seminorm", a, "--radius", "VALUE"],
        "--point": [*cone, "eval", a, "--point", "VALUE"],
        "--route": ["gns", "rep", x, psi, "--route", "VALUE"],
        "--cap": ["gns", "coherent", "--point", "1/2", "--cap", "VALUE"],
        "--level": ["check", "ideal", "--level", "VALUE"],
    })
    return commands


def _value_options(parser):
    """Every option of parser and its subcommands that takes one value."""
    import argparse

    for action in parser._actions:
        if action.option_strings and action.nargs is None:
            yield from action.option_strings
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _value_options(sub)


def test_dash_value_is_usage_error(tmp_path):
    # argparse strips a value of exactly '--' and hands the option [], which
    # crashed --point, --m-max and --cap; every option names it, exit 2
    from exactstar.cli import _parser

    commands = _dash_value_commands(tmp_path)
    assert set(commands) == set(_value_options(_parser()))
    for flag, argv in commands.items():
        at = argv.index("VALUE")
        assert argv[at - 1] == flag
        for form in ([*argv[:at - 1], f"{flag}=--", *argv[at + 1:]],
                     [*argv[:at], "--", *argv[at + 1:]]):
            res = run(*form)
            assert res.exit_code == 2, (form, res.output, res.exception)
            assert f"argument {flag}: expected a value, not '--'" in res.output, res.output
            assert "Traceback" not in res.output


def test_seminorm_too_long_to_print_is_domain_error(tmp_path):
    a = _cone_file(tmp_path)
    limit = sys.get_int_max_str_digits()
    res = run("--model", "cone", "--hbar", "1/2", "seminorm", a, "--m-max", "14")
    assert res.exit_code == 3, (res.output, res.exception)
    assert "too long to print" in res.output
    assert "Traceback" not in res.output
    assert sys.get_int_max_str_digits() == limit
    assert run("--model", "cone", "--hbar", "1/2", "seminorm", a, "--m-max", "13").exit_code == 0


def test_size_flags_capped(tmp_path):
    from exactstar.cli import CHECK_LEVEL_CAP, DEPTH_CAP, GAMMA_MAX_CAP, M_MAX_CAP

    at_cap = run("--gamma-max", str(GAMMA_MAX_CAP), "--depth", str(DEPTH_CAP), "algebra", "list")
    assert at_cap.exit_code == 0, at_cap.output
    res = run("--gamma-max", str(GAMMA_MAX_CAP + 1), "--depth", str(DEPTH_CAP), "algebra", "list")
    assert res.exit_code == 2 and f"gamma-max must be <= {GAMMA_MAX_CAP}" in res.output
    res = run("--depth", str(DEPTH_CAP + 1), "algebra", "list")
    assert res.exit_code == 2 and f"depth must be <= {DEPTH_CAP}" in res.output
    # a config file cannot lift a cap either
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"depth = {DEPTH_CAP + 1}\n")
    assert run("--config", str(cfg), "algebra", "list").exit_code == 2
    # the filtration suite clips its own level at 2, so the cap itself is cheap
    res = run("check", "filtration", "--level", str(CHECK_LEVEL_CAP))
    assert res.exit_code == 0 and "PASS" in res.output, res.output
    res = run("check", "filtration", "--level", str(CHECK_LEVEL_CAP + 1))
    assert res.exit_code == 2 and "--level" in res.output
    assert "Traceback" not in res.output
    # one monomial keeps every seminorm level short, so the m-max cap is cheap
    a = poly_file(tmp_path, "x.json", [(1, 1)])
    res = run("--model", "poly:monomial", "seminorm", a, "--m-max", str(M_MAX_CAP))
    assert res.exit_code == 0, res.output
    res = run("--model", "poly:monomial", "seminorm", a, "--m-max", str(M_MAX_CAP + 1))
    assert res.exit_code == 2 and "--m-max" in res.output
    # the coherent-vector cap is the gamma-max cap it defaults from
    res = run("gns", "coherent", "--point", "1/2", "--cap", str(GAMMA_MAX_CAP))
    assert res.exit_code == 0, res.output
    res = run("gns", "coherent", "--point", "1/2", "--cap", str(GAMMA_MAX_CAP + 1))
    assert res.exit_code == 2 and "--cap" in res.output
    assert "Traceback" not in res.output


def test_n_capped(tmp_path):
    from exactstar.cli import N_CAP

    res = run("--n", str(N_CAP), "check", "oracle", "--level", "1")
    assert res.exit_code == 0 and "PASS" in res.output, res.output
    res = run("--n", str(N_CAP + 1), "check", "oracle", "--level", "1")
    assert res.exit_code == 2 and f"n must be <= {N_CAP}" in res.output
    assert "Traceback" not in res.output
    # a config file cannot lift the cap either
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(f"n = {N_CAP + 1}\n")
    res = run("--config", str(cfg), "algebra", "list")
    assert res.exit_code == 2 and f"n must be <= {N_CAP}" in res.output


def test_unresolved_comparison_exits_3(tmp_path, monkeypatch):
    from exactstar.seminorms import HTable, UnresolvedError

    def unresolved(self, m, ell, gamma):
        raise UnresolvedError("sign of root sum did not resolve; value suspiciously close to zero")

    monkeypatch.setattr(HTable, "h", unresolved)
    res = run("--model", "cone", "--hbar", "1/2", "seminorm", _cone_file(tmp_path))
    assert res.exit_code == 3, (res.output, res.exception)
    assert res.output == ("error: sign of root sum did not resolve; "
                          "value suspiciously close to zero\n")


LAZY_LAYERS = ("exactstar.seminorms", "exactstar.models", "exactstar.checks",
               "exactstar.gns", "exactstar.su1n")


def _loaded_layers(code, *argv, modules=LAZY_LAYERS):
    """The modules (LAZY_LAYERS by default) loaded after running code in a fresh
    interpreter."""
    import exactstar

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(exactstar.__file__)))
    probe = code + (
        "\nimport sys\nsys.stderr.write('LOADED ' + ' '.join("
        f"m for m in {modules!r} if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                          text=True, env=env, check=True)
    return set(proc.stderr.rsplit("LOADED", 1)[1].split())


def test_cli_import_leaves_suites_and_gns_unloaded():
    # every CLI process imports exactstar.cli; without a bytecode cache each module
    # it loads is compiled again, so every layer below loads only on demand
    assert _loaded_layers("import exactstar.cli") == set()


_RUN_CLI = """import sys
from exactstar.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert exc.code == 0, exc.code"""


@pytest.mark.parametrize("command, loaded", [
    ("list", set()),
    ("product", set()),
    ("eval", set()),
    ("gns rep", {"exactstar.gns"}),
    ("check oracle", {"exactstar.checks"}),
    ("cone seminorm", {"exactstar.seminorms"}),
    ("poly seminorm", {"exactstar.seminorms", "exactstar.models"}),
])
def test_cli_command_loads_only_its_layers(tmp_path, command, loaded):
    cone = ["--model", "cone", "--hbar", "1/2"]
    a = _cone_file(tmp_path)
    dm = DiskModel(1, Fraction(1, 2))
    x = write_json(tmp_path / "x.json", element_to_json(
        dm, Element.basis((MultiIndex((1,)), MultiIndex((0,))))))
    psi = write_json(tmp_path / "psi.json", {"terms": [{"index": [1], "re": "1", "im": "0"}]})
    args = {
        "list": ["algebra", "list"],
        "product": cone + ["product", a, a],
        "eval": cone + ["eval", a, "--point", "2,0"],
        "gns rep": ["--model", "disk", "--hbar", "1/2", "gns", "rep", x, psi],
        "check oracle": ["check", "oracle", "--level", "1"],
        "cone seminorm": cone + ["seminorm", a, "--m-max", "1", "--radius", "1/2"],
        "poly seminorm": ["--model", "poly:monomial", "seminorm",
                          poly_file(tmp_path, "p.json", [(1, 1)]), "--m-max", "1"],
    }[command]
    assert _loaded_layers(_RUN_CLI, *args) == loaded


# the parser library this front end replaced, and what `from dataclasses import
# dataclass` brings with it (inspect, and through it ast, dis and tokenize)
START_UP_EXTRAS = ("click", "dataclasses", "inspect")


@pytest.mark.parametrize("code, argv", [
    ("import exactstar.cli", []),
    (_RUN_CLI, ["algebra", "list"]),
    (_RUN_CLI, ["--model", "cone", "--hbar", "1/2", "algebra", "list"]),
    (_RUN_CLI, ["check", "oracle", "--level", "1"]),
], ids=["import", "algebra list", "cone flags", "check oracle"])
def test_cli_start_up_loads_no_click_or_dataclasses(code, argv):
    assert _loaded_layers(code, *argv, modules=START_UP_EXTRAS) == set()


def test_package_names_resolve_on_first_access():
    # the seminorm names of exactstar.__all__ load their module only when asked for
    code = """import sys, exactstar
assert "exactstar.seminorms" not in sys.modules
from exactstar import seminorms
for name in exactstar.__all__:
    value = getattr(exactstar, name)
    assert getattr(seminorms, name, value) is value, name
ns = {}
exec("from exactstar import *", ns)
assert set(exactstar.__all__) <= set(ns)
assert all(ns[name] is getattr(exactstar, name) for name in exactstar.__all__)
try:
    exactstar.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown names must raise AttributeError")"""
    assert _loaded_layers("import exactstar") == set()
    assert _loaded_layers(code) == {"exactstar.seminorms"}


def test_moved_names_stay_bound_in_their_old_modules():
    # perfbench patches models.BaseModel and reads seminorms.DEFAULT_TOL
    from exactstar import algebra, models, seminorms

    assert models.BaseModel is algebra.BaseModel
    assert models.get_model is algebra.get_model
    assert models.model_registry is algebra.model_registry
    assert seminorms.DEFAULT_TOL is algebra.DEFAULT_TOL
    assert seminorms.UnresolvedError is algebra.UnresolvedError


@pytest.mark.parametrize("model, point", [
    ("cone", "2"),
    ("cone", "2,0,0"),
    ("disk", "1/2,0"),
    ("poly:monomial", "1,2"),
    ("laurent:factorial", "1,2"),
    ("wick:1", "1,2"),
])
def test_eval_point_dimension(tmp_path, model, point):
    # a point with other than n + 1 (cone) or n (disk, Wick) coordinates, or
    # other than one on poly and Laurent, exits 3
    if model == "cone":
        a = _cone_file(tmp_path)
    else:
        m = get_model(model, hbar=Fraction(1, 2), n=1)
        a = write_json(tmp_path / "x.json", element_to_json(m, m.unit()))
    res = run("--model", model, "--n", "1", "--hbar", "1/2", "eval", a, "--point", point)
    assert res.exit_code == 3, (res.output, res.exception)
    assert f"a {model} point has" in res.stderr and "coordinates, got" in res.stderr


@pytest.mark.parametrize("kind", ["element", "vector"])
def test_terms_capped(tmp_path, kind):
    from exactstar.cli import RANK_CAP, TERMS_CAP

    # a repeated index sums, so every term can stay within RANK_CAP
    def write(name, count):
        if kind == "element":
            return write_json(tmp_path / name, {"terms": [
                {"index": k % (RANK_CAP + 1), "re": "1", "im": "0"} for k in range(count)]})
        return write_json(tmp_path / name, {"terms": [
            {"index": [k % 7, k // 7 % 6], "re": "1", "im": "0"} for k in range(count)]})

    def args(path):
        if kind == "element":
            return ["--model", "poly:monomial", "product", path, write("one.json", 1)]
        return ["--n", "2", "gns", "inner", path, path]

    assert run(*args(write("cap.json", TERMS_CAP))).exit_code == 0
    res = run(*args(write("over.json", TERMS_CAP + 1)))
    assert res.exit_code == 2, (res.output, res.exception)
    assert f"{TERMS_CAP + 1} terms, at most {TERMS_CAP} allowed" in res.output


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    cone, disk = get_model("cone", hbar=Fraction(1, 2)), DiskModel(1, Fraction(1, 2))
    one, zero = MultiIndex((1,)), MultiIndex((0,))
    return {
        "cone": write_json(base / "cone.json", element_to_json(cone, Element({
            make_triple(one, zero, 1): GR(1), make_triple(zero, zero, 2): GR(0, 2)}))),
        "disk": write_json(base / "disk.json", element_to_json(disk, Element({
            (one, zero): GR(1), (zero, one): GR(Fraction(1, 3))}))),
        "poly:monomial": poly_file(base, "poly.json", [(0, 1), (3, GR(1, 1))]),
    }


_COORDINATE = st.one_of(
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(0, 4)),
    st.builds("{}{:+}i".format, st.integers(-2, 2), st.integers(-2, 2)),
    st.sampled_from(["0", "2", "i", "-i", "1/2", "3/5+4/5i", ""]),
    st.text(alphabet="0123456789/+-i. e", max_size=6),
)


@settings(max_examples=300, deadline=None, database=None)
@given(target=st.sampled_from(["cone", "disk", "poly:monomial", "coherent"]),
       point=st.lists(_COORDINATE, min_size=1, max_size=4).map(",".join))
@example(target="cone", point="--")
@example(target="coherent", point="--")
def test_point_parsing_fuzz(fuzz_files, target, point):
    # every --point string gives a value, a usage error (2) or a domain error (3)
    if target == "coherent":
        res = run("gns", "coherent", f"--point={point}", "--cap", "2")
    else:
        res = run("--model", target, "--hbar", "1/2", "eval", fuzz_files[target],
                  f"--point={point}")
    assert res.exit_code in (0, 2, 3), (res.output, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    if target == "coherent" and res.exit_code == 0:
        assert "," not in point, "a coherent vector at --n 1 needs one coordinate"


# ---------------------------------------------------------------------------
# transcript: exit code and stdout of a fixed command table, pinned


def _transcript_files(base):
    cone = {"model": "cone", "terms": [
        {"index": {"P": [1], "Q": [0], "alpha": 1}, "re": "1", "im": "0"},
        {"index": {"P": [0], "Q": [2], "alpha": 3}, "re": "2/3", "im": "-1"},
        {"index": {"P": [1], "Q": [1], "alpha": 2}, "re": "0", "im": "1/5"}]}
    texts = {
        "a": cone,
        "b": {"model": "cone", "terms": [
            {"index": {"P": [0], "Q": [1], "alpha": 2}, "re": "3", "im": "1"},
            {"index": {"P": [2], "Q": [0], "alpha": 2}, "re": "-1/2", "im": "0"}]},
        "s": {"model": "cone", "terms": cone["terms"][:2]},
        "wrongn": {"model": "cone", "terms": [
            {"index": {"P": [1, 0], "Q": [0, 0], "alpha": 1}, "re": "1", "im": "0"}]},
        "x": {"model": "disk", "terms": [
            {"index": {"P": [1], "Q": [0]}, "re": "1", "im": "2"},
            {"index": {"P": [0], "Q": [0]}, "re": "3", "im": "0"},
            {"index": {"P": [2], "Q": [2]}, "re": "1/7", "im": "0"}]},
        "psi": {"terms": [{"index": [0], "re": "1", "im": "0"},
                          {"index": [2], "re": "1/2", "im": "-3"}]},
        "one": {"terms": [{"index": [1], "re": "1", "im": "0"}]},
        "two": {"terms": [{"index": [1, 0], "re": "1", "im": "0"}]},
        "p": {"model": "poly:monomial", "terms": [
            {"index": 0, "re": "1", "im": "0"}, {"index": 2, "re": "1", "im": "0"},
            {"index": 3, "re": "1/3", "im": "-1"}]},
        "pf": {"model": "poly:factorial", "terms": [{"index": 1, "re": "1", "im": "0"}]},
        "l": {"model": "laurent:plain", "terms": [
            {"index": -1, "re": "1", "im": "0"}, {"index": 1, "re": "2", "im": "0"}]},
    }
    files = {name: write_json(base / f"{name}.json", data) for name, data in texts.items()}
    for name, text in [("bad", "{not json"), ("cfg", "model = poly:monomial\ngamma-max = 3  # c\n"),
                       ("badkey", "colour = blue\n"), ("badval", "hbar = abc\n"),
                       ("noeq", "just words\n")]:
        (base / name).write_text(text)
        files[name] = str(base / name)
    files["missing"] = str(base / "missing.json")
    files["out"] = str(base / "out.json")
    return files


CONE = "--model cone --hbar 1/2 "
DISK = "--model disk --hbar 1/2 "
POLY = "--model poly:monomial "

# (command with {file} fields, exit code, sha256 prefix of stdout followed by any
# --out file, error message or None), recorded from the click front end that
# argparse replaced.  Only the framing of a usage error may differ: click wrote
# "Error: Invalid value for '--cap': <message>", argparse writes
# "exactstar gns coherent: error: argument --cap: <message>".  None marks a
# message that click worded itself (a missing option, argument or command).
TRANSCRIPT = [
    ("algebra list", 0, "1d633c8e0bf69ab6", None),
    ("--output csv algebra list", 0, "0ab02cd1d2aab7d0", None),
    ("--output pretty algebra list", 0, "3b0e6127b62a5f1b", None),
    (CONE + "product {a} {b}", 0, "6daac932cfda6f5a", None),
    (CONE + "product {a} {b} --out {out}", 0, "6daac932cfda6f5a", None),
    (CONE + "product {a} --out {out} {b}", 0, "6daac932cfda6f5a", None),
    (DISK + "product {x} {x}", 0, "a70b604719fe1666", None),
    (POLY + "--output pretty product {p} {p}", 0, "6322d00e2f71cc19", None),
    ("--config {cfg} product {p} {p}", 0, "6322d00e2f71cc19", None),
    ("--config {cfg} --model poly:factorial product {pf} {pf}", 0, "fdf261546fe0ad2e", None),
    ("--config {cfg} product {pf} {pf}", 2, "e3b0c44298fc1c14",
     "<tmp>/pf.json: element was serialized for model 'poly:factorial', not 'poly:monomial'"),
    (CONE + "seminorm {s} --m-max 2 --radius 1/2", 0, "e8bfd902cd8cb3dc", None),
    (CONE + "--output csv seminorm {s} --m-max 1 --ell 1", 0, "73a93331a91ccb9b", None),
    (POLY + "--output pretty seminorm {p} --ell 3", 0, "9b6a9d0f386ed5b4", None),
    ("--model laurent:plain seminorm {l} --m-max 2", 0, "86d3d7c1f561342e", None),
    (CONE + "eval {a} --point 2,0 --point 3/2,1/2", 0, "373cda53e32fd2e2", None),
    (POLY + "--output csv eval {p} --point 2 --point 1/2+i --point -i", 0, "067329a6143df63f",
     None),
    (DISK + "eval {x} --point=1/3", 0, "2d07133f1b6f9d32", None),
    # recorded on argparse: 1/3i is the pure imaginary i/3, inside the disk
    (DISK + "eval {x} --point=1/3i", 0, "d8d6773afbb3ec9c", None),
    ("gns inner {psi} {psi}", 0, "000f551d84093f85", None),
    ("--hbar 1/4 gns inner {psi} {one}", 0, "639e928894b62497", None),
    (DISK + "gns rep {x} {psi} --route both", 0, "8821214cd3c52a8d", None),
    (DISK + "gns rep --route product {x} {psi} --out {out}", 0, "8821214cd3c52a8d", None),
    ("gns coherent --point 1/2 --cap 3", 0, "104f0450cabad790", None),
    ("gns coherent --point -1/3 --cap 2", 0, "d217e861748f1849", None),
    ("--n 2 --gamma-max 2 gns coherent --point 1/4,-1/4", 0, "6bcb7896c195aebc", None),
    (DISK + "gns positivity {x}", 0, "4e9981fa3269a2d2", None),
    ("--model disk --hbar -5/7 gns positivity {x}", 3, "e3b0c44298fc1c14",
     "representation needs hbar > 0"),
    ("--model cone --hbar -5/7 product {a} {b}", 0, "6daac932cfda6f5a", None),
    (CONE + "--tolerance 1/1000 --gamma-max 3 --depth 5 seminorm {s} --m-max 1 --radius 1/3",
     0, "4a0dea586070c27f", None),
    ("check oracle --level 1", 0, "4956808f0dbd74f3", None),
    ("check filtration --level=1", 0, "53a0a0e9d5bb715a", None),
    ("--hbar 3/7 check positivity", 0, "4fa52f4b9fb5e6e8", None),
    ("check nope", 2, "e3b0c44298fc1c14",
     "unknown suite 'nope'; known: associativity, filtration, ideal, laurent-divergence, "
     "oracle, positivity, symmetry"),
    ("--output yaml algebra list", 2, "e3b0c44298fc1c14",
     "'yaml' is not one of 'json', 'csv', 'pretty'."),
    ("--n 3 algebra list", 2, "e3b0c44298fc1c14", "n must be <= 2"),
    ("--gamma-max 17 algebra list", 2, "e3b0c44298fc1c14", "gamma-max must be <= 16"),
    ("--depth 1 --gamma-max 5 algebra list", 2, "e3b0c44298fc1c14", "depth must be >= gamma-max"),
    ("--hbar x/y algebra list", 2, "e3b0c44298fc1c14",
     "--hbar: expected a rational 'p' or 'p/q', got 'x/y'"),
    ("--hbar 1e999999 algebra list", 2, "e3b0c44298fc1c14",
     "--hbar: expected a rational 'p' or 'p/q', got '1e999999'"),
    ("--config {missing} algebra list", 2, "e3b0c44298fc1c14",
     "Path '<tmp>/missing.json' does not exist."),
    ("--config {badkey} algebra list", 2, "e3b0c44298fc1c14",
     "<tmp>/badkey:1: unknown key 'colour'"),
    ("--config {badval} algebra list", 2, "e3b0c44298fc1c14",
     "<tmp>/badval:1: expected a rational 'p' or 'p/q', got 'abc'"),
    ("--config {noeq} algebra list", 2, "e3b0c44298fc1c14",
     "<tmp>/noeq:1: expected key=value, got 'just words'"),
    (POLY + "product {missing} {p}", 2, "e3b0c44298fc1c14",
     "Path '<tmp>/missing.json' does not exist."),
    (POLY + "seminorm {bad}", 2, "e3b0c44298fc1c14",
     "<tmp>/bad: invalid JSON (Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1))"),
    (POLY + "seminorm {p} --m-max 17", 2, "e3b0c44298fc1c14", "17 is not in the range 0<=x<=16."),
    (POLY + "seminorm {p} --ell -1", 2, "e3b0c44298fc1c14", "-1 is not in the range x>=0."),
    ("check ideal --level 5", 2, "e3b0c44298fc1c14", "5 is not in the range 0<=x<=4."),
    ("gns coherent --point 1/2 --cap 17", 2, "e3b0c44298fc1c14",
     "17 is not in the range 0<=x<=16."),
    (DISK + "gns rep {x} {psi} --route x", 2, "e3b0c44298fc1c14",
     "'x' is not one of 'closed', 'product', 'both'."),
    (POLY + "eval {p} --point oops", 2, "e3b0c44298fc1c14", "cannot parse coordinate 'oops'"),
    (POLY + "eval {p}", 2, "e3b0c44298fc1c14", None),
    (CONE + "product {a}", 2, "e3b0c44298fc1c14", None),
    ("algebra", 2, "e3b0c44298fc1c14", None),
    ("", 2, "e3b0c44298fc1c14", None),
    ("--model cone --hbar 0 product {a} {a}", 3, "e3b0c44298fc1c14", "hbar must be nonzero"),
    (CONE + "--n 1 product {wrongn} {wrongn}", 3, "e3b0c44298fc1c14",
     "<tmp>/wrongn.json: multiindex length must be 1"),
    ("gns inner {one} {two}", 3, "e3b0c44298fc1c14",
     "<tmp>/two.json: vector indices must have length 1"),
    ("--n 1 gns coherent --point 1/4,1/4,1/4 --cap 1", 3, "e3b0c44298fc1c14",
     "a disk point has 1 coordinates, got 3"),
    ("gns coherent --point 1 --cap 2", 3, "e3b0c44298fc1c14",
     "coherent vectors live at interior points"),
    ("--model laurent:plain eval {l} --point 0", 3, "e3b0c44298fc1c14",
     "Laurent evaluation needs a nonzero point"),
    # recorded when --radius moved onto omega_h: poly has a growth majorant
    (POLY + "seminorm {p} --radius 1/2", 0, "7873273893193a72", None),
    (POLY + "seminorm {p} --radius 0", 3, "e3b0c44298fc1c14", "radius must be positive"),
    (CONE + "seminorm {s} --radius=-1/2", 3, "e3b0c44298fc1c14", "radius must be positive"),
]


def _transcript_digest(files, command):
    res = run(*command.format(**files).split())
    digest = hashlib.sha256(res.stdout.encode())
    if "{out}" in command:
        with open(files["out"], "rb") as fh:
            digest.update(fh.read())
        os.remove(files["out"])
    return res, digest.hexdigest()[:16]


@pytest.fixture(scope="module")
def transcript_files(tmp_path_factory):
    return _transcript_files(tmp_path_factory.mktemp("transcript"))


@pytest.mark.parametrize("command, code, digest, message", TRANSCRIPT,
                         ids=[row[0] or "no arguments" for row in TRANSCRIPT])
def test_cli_transcript_unchanged(transcript_files, command, code, digest, message):
    res, got = _transcript_digest(transcript_files, command)
    assert (res.exit_code, got) == (code, digest), (res.output, res.exception)
    assert "Traceback" not in res.output
    if message is not None:
        base = os.path.dirname(transcript_files["out"])
        assert message.replace("<tmp>", base) in res.stderr


def test_seminorm_radius_past_majorant_terms(transcript_files):
    # at m = 3 the cone majorant needs 16,412 terms before its ratio falls
    # below 1/2, more than MAJORANT_TERMS: that row is truncated, not summed
    res = run(*(CONE + "seminorm {s} --m-max 3 --radius 1/2").format(**transcript_files).split())
    assert res.exit_code == 0, res.output
    rows = json.loads(res.output)["rows"]
    tails = [r for r in rows if r["gamma"] == json.dumps({"radius": "1/2"})]
    assert [r["bracket_hi"] == "inf" for r in tails] == [False, False, False, True]
    # the truncated row has a lower bound and no value; the others print one
    assert [r["seminorm_float"] == "" for r in tails] == [False, False, False, True]
    assert all(0 < float(r["seminorm_float"]) < math.inf for r in tails[:3])
    assert Fraction(tails[3]["bracket_lo"]) > 0


@pytest.mark.parametrize("command", ["eval", "gns inner"])
def test_too_long_to_print_is_domain_error(tmp_path, command):
    # z^12 at 10^400 and the vacuum norm of e_[12] at hbar = 10^-400 have more
    # digits than str() of an int may print, at an index within RANK_CAP
    if command == "eval":
        a = poly_file(tmp_path, "z.json", [(12, 1)])
        args = ["--model", "poly:monomial", "eval", a, "--point", "1" + "0" * 400]
    else:
        psi = write_json(tmp_path / "psi.json", {"terms": [{"index": [12], "re": "1"}]})
        args = ["--hbar", "1/1" + "0" * 400, "gns", "inner", psi, psi]
    res = run(*args)
    assert res.exit_code == 3, (res.output, res.exception)
    assert res.stdout == ""
    assert "too long to print" in res.stderr and "Traceback" not in res.output


@pytest.mark.parametrize("flag", ["element", "vector", "--config"])
@pytest.mark.parametrize("problem", ["missing", "a directory"])
def test_unreadable_input_file_is_usage_error(tmp_path, flag, problem):
    path = tmp_path / "input.json"
    if problem == "a directory":
        path.mkdir()
    good = poly_file(tmp_path, "good.json", [(1, 1)])
    args = {"element": ["--model", "poly:monomial", "product", good, str(path)],
            "vector": ["gns", "inner", str(path), str(path)],
            "--config": ["--config", str(path), "algebra", "list"]}[flag]
    res = run(*args)
    assert res.exit_code == 2, (res.output, res.exception)
    assert str(path) in res.stderr and "Traceback" not in res.output


@pytest.mark.parametrize("kind", ["config latin-1", "element latin-1", "element 5000 digits"])
def test_undecodable_input_file_is_usage_error(tmp_path, kind):
    path = tmp_path / "input"
    if kind == "config latin-1":
        path.write_bytes("model = poly:monomial  # café\n".encode("latin-1"))
        args = ["--config", str(path), "algebra", "list"]
    else:
        text = '{"terms": [{"index": 1, "re": "1", "im": "%s"}]}' % "é"
        if kind == "element 5000 digits":
            text = '{"terms": [{"index": 1%s, "re": "1"}]}' % ("0" * 5000)
        path.write_bytes(text.encode("latin-1"))
        args = ["--model", "poly:monomial", "product", str(path), str(path)]
    res = run(*args)
    assert res.exit_code == 2, (res.output, res.exception)
    assert str(path) in res.stderr and "Traceback" not in res.output


def test_unwritable_out_file_is_usage_error(tmp_path):
    a = poly_file(tmp_path, "a.json", [(1, 1)])
    res = run("--model", "poly:monomial", "product", a, a, "--out", str(tmp_path))
    assert res.exit_code == 2, (res.output, res.exception)
    assert str(tmp_path) in res.stderr and "Traceback" not in res.output


@pytest.mark.parametrize("flag, args", [
    ("--m-max", ["seminorm", "{a}", "--m-max", "17"]),
    ("--m-max", ["seminorm", "{a}", "--m-max", "two"]),
    ("--level", ["check", "oracle", "--level", "5"]),
    ("--cap", ["gns", "coherent", "--point", "1/2", "--cap", "17"]),
    ("--route", ["gns", "rep", "{x}", "{psi}", "--route", "x"]),
    ("--output", ["--output", "yaml", "algebra", "list"]),
    ("--point", ["eval", "{a}"]),
    ("--n", ["--n", "two", "algebra", "list"]),
])
def test_flag_out_of_range_names_the_flag(transcript_files, flag, args):
    res = run(*(arg.format(**transcript_files) for arg in args))
    assert res.exit_code == 2, (res.output, res.exception)
    assert flag in res.stderr and res.stdout == "" and "Traceback" not in res.output


@pytest.mark.parametrize("args, listed", [
    ([], ["algebra", "product", "seminorm", "eval", "gns", "check", "--n N",
          "--gamma-max 16", "--depth 16", "--m-max 16", "--level 4", "4096 terms",
          "index rank 12"]),
    (["gns"], ["inner", "rep", "coherent", "positivity"]),
    (["gns", "coherent"], ["--point", "--cap", "at most 16"]),
    (["check"], ["--level", "at most 4", "laurent-divergence"]),
    (["seminorm"], ["--m-max", "at most 16", "--radius", "--out"]),
])
def test_help_lists_commands_and_caps(args, listed):
    res = run(*args, "--help")
    assert res.exit_code == 0 and res.exception is None, res.output
    text = " ".join(res.stdout.split())
    assert all(word in text for word in listed), text


def test_help_names_every_suite():
    from exactstar.checks import SUITES
    from exactstar.cli import SUITE_NAMES

    assert SUITE_NAMES == tuple(sorted(SUITES))


def test_file_arguments_before_or_after_options(transcript_files):
    f = transcript_files
    orders = [
        ["seminorm", f["s"], "--m-max", "1", "--ell", "1"],
        ["seminorm", "--m-max", "1", f["s"], "--ell", "1"],
        ["seminorm", "--m-max", "1", "--ell", "1", f["s"]],
        ["seminorm", "--m-max=1", "--ell=1", f["s"]],
    ]
    outputs = {run("--model", "cone", "--hbar", "1/2", *args).stdout for args in orders}
    assert len(outputs) == 1 and json.loads(outputs.pop())["rows"]


def test_option_values_may_start_with_a_dash(transcript_files):
    f = transcript_files
    res = run("--model", "poly:monomial", "eval", f["p"], "--point", "-1/2-i")
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["rows"][0]["point"] == "-1/2-i"
    # an unknown flag, or a main flag after the command, is still a usage error
    assert run("--model", "poly:monomial", "eval", f["p"], "--pt", "1").exit_code == 2
    assert run("algebra", "list", "--model", "cone").exit_code == 2
    assert run("--mod", "cone", "algebra", "list").exit_code == 2


# ---------------------------------------------------------------------------
# input files fuzzed through the front end


def _mostly(valid, *invalid):
    """valid, or about one draw in eight one of the invalid values."""
    return st.sampled_from([True] * 7 + [False]).flatmap(
        lambda ok: valid if ok else st.sampled_from(invalid))


_RATIONAL = _mostly(st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 4)),
                    "1/0", "", "1e3", "0.5", " 2", "x", "1" * 1001, 3, None)
_NATURAL = _mostly(st.integers(0, 3), -1, 1.5, "1", True, None)


def _file(index, model=None):
    term = _mostly(st.fixed_dictionaries({"index": index},
                                         optional={"re": _RATIONAL, "im": _RATIONAL}), {}, [], 1)
    head = {} if model is None else {"model": _mostly(st.just(model), "disk", 1)}
    return _mostly(st.fixed_dictionaries({"terms": st.lists(term, max_size=4)}, optional=head),
                   [], {}, {"terms": 3}, {"terms": {}}, "terms", None)


_ELEMENT = st.one_of(
    st.tuples(st.just("poly:monomial"), _file(_NATURAL, "poly:monomial")),
    st.tuples(st.just("cone"), _file(st.fixed_dictionaries({
        "P": _mostly(st.lists(_NATURAL, min_size=1, max_size=1), [0, 0], []),
        "Q": _mostly(st.lists(_NATURAL, min_size=1, max_size=1), [0, 0], []),
        "alpha": st.integers(0, 4)}), "cone")),
)
_VECTOR = _file(_mostly(st.lists(st.integers(0, 3), min_size=1, max_size=1), [1, 0], [1.5], 1))

_SETTING = st.one_of(
    st.tuples(st.just("model"), st.sampled_from(["disk", "cone", "poly:monomial"])),
    st.tuples(st.sampled_from(["hbar", "epsilon"]), _RATIONAL),
    st.tuples(st.just("tolerance"), _mostly(st.builds("1/{}".format, st.integers(1, 10**6)),
                                            "0", "-1/2")),
    st.tuples(st.just("n"), _mostly(st.integers(1, 2), 0, 3)),
    st.tuples(st.sampled_from(["gamma_max", "gamma-max"]), _mostly(st.integers(0, 8), -1, 17)),
    st.tuples(st.just("depth"), _mostly(st.integers(8, 16), 3, 17)),
    st.tuples(st.just("output"), _mostly(st.sampled_from(["json", "csv", "pretty"]), "yaml")),
).map("{0[0]} = {0[1]}".format)
_CONFIG_LINE = _mostly(_SETTING, "", "# comment", "just words", "=", "colour = blue",
                       " n=1 # one", "n = 1/0", "\x00", "\u00e9 = 1")


def _accepted(res):
    assert res.exit_code in (0, 1, 2, 3), (res.output, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    assert "Traceback" not in res.output
    return res.exit_code == 0


@pytest.fixture(scope="module")
def unit_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("units")
    return {
        "poly:monomial": write_json(base / "poly.json", {"terms": [{"index": 0, "re": "1"}]}),
        "cone": write_json(base / "cone.json", {"terms": [
            {"index": {"P": [0], "Q": [0], "alpha": 0}, "re": "1"}]}),
        "disk": write_json(base / "disk.json", {"terms": [{"index": {"P": [0], "Q": [0]},
                                                            "re": "1"}]}),
        "input": base / "input.json",
    }


@settings(max_examples=150, deadline=None, database=None)
@given(model_data=_ELEMENT)
def test_element_file_fuzz(unit_files, model_data):
    # a product with the unit prints the element read from the file, or the
    # file is a usage (2) or domain (3) error
    model, data = model_data
    path = write_json(unit_files["input"], data)
    res = run("--model", model, "--hbar", "1/2", "product", path, unit_files[model])
    if _accepted(res):
        m = get_model(model, hbar=Fraction(1, 2))
        out = json.loads(res.stdout)
        assert element_from_json(m, out) == element_from_json(m, data)
        assert element_to_json(m, element_from_json(m, out)) == out


@settings(max_examples=150, deadline=None, database=None)
@given(data=_VECTOR)
def test_vector_file_fuzz(unit_files, data):
    # the unit of the disk acts as the identity on the vector read from the file
    path = write_json(unit_files["input"], data)
    res = run("--model", "disk", "--hbar", "1/2", "gns", "rep", unit_files["disk"], path)
    if _accepted(res):
        out = json.loads(res.stdout)
        assert gns_vector_from_json(out) == gns_vector_from_json(data)
        assert gns_vector_to_json(gns_vector_from_json(out)) == out


_CONFIG_LINE = st.one_of(
    st.builds("{} = {}".format,
              st.sampled_from(["model", "hbar", "n", "epsilon", "gamma_max", "gamma-max",
                               "depth", "tolerance", "output", "colour"]),
              st.one_of(st.sampled_from(["disk", "cone", "json", "csv", "pretty", "1/0",
                                         "-1", "17", ""]),
                        st.builds("{}/{}".format, st.integers(-3, 20), st.integers(1, 9)),
                        st.integers(-2, 20).map(str))),
    st.sampled_from(["", "# comment", "just words", "=", " n=1 # one"]),
    st.text(max_size=8),
)


@settings(max_examples=150, deadline=None, database=None)
@given(lines=st.lists(_CONFIG_LINE, max_size=5))
def test_config_file_fuzz(unit_files, lines):
    from exactstar.cli import load_config_file
    from exactstar.scalars import format_rational

    path = unit_files["input"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    res = run("--config", path, "algebra", "list")
    if _accepted(res):
        settings_read = load_config_file(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {value if isinstance(value, str) else format_rational(value)}\n"
                          for key, value in settings_read.items())
        assert load_config_file(path) == settings_read
        assert res.stdout == run("--output", settings_read.get("output", "json"),
                                 "algebra", "list").stdout
