import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from exactstar.algebra import Element, element_from_json, element_to_json, from_pairs, multiply
from exactstar.cli import main, parse_point_coordinate
from exactstar.cone import (
    DiskModel,
    cone_triples,
    disk_multiply,
    make_triple,
    tilde_structure_constants,
)
from exactstar.gns import GnsVector, gns_vector_from_json, gns_vector_to_json
from exactstar.models import get_model
from exactstar.scalars import GaussianRational, MultiIndex

GR = GaussianRational.of


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


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
    assert got == disk_multiply(a, b, hbar) and not got.is_zero()
    # the written file is the serialized product, byte for byte
    assert json.loads(out.read_text()) == element_to_json(dm, got)


def test_product_out_file_round_trip(tmp_path):
    m = get_model("wick:1", hbar=Fraction(1, 2))
    z = write_json(tmp_path / "z.json", element_to_json(m, m.z_element(0)))
    zb = write_json(tmp_path / "zb.json", element_to_json(m, m.zbar_element(0)))
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
    a = poly_file(tmp_path, "a.json", [(1, 1)])
    res = run("--model", "poly:monomial", "seminorm", a, "--radius", "1/2")
    assert res.exit_code == 3


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


def test_malformed_element_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run("--model", "poly:monomial", "seminorm", str(bad))
    assert res.exit_code == 2
    missing_terms = write_json(tmp_path / "m.json", {"model": "poly:monomial"})
    res = run("--model", "poly:monomial", "seminorm", missing_terms)
    assert res.exit_code == 2


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


def _loaded_layers(code, *argv):
    """The LAZY_LAYERS loaded after running code in a fresh interpreter."""
    import exactstar

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(exactstar.__file__)))
    probe = code + (
        "\nimport sys\nsys.stderr.write('LOADED ' + ' '.join("
        f"m for m in {LAZY_LAYERS!r} if m in sys.modules))\n")
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
])
def test_eval_point_dimension(tmp_path, model, point):
    # a point with other than n + 1 (cone) or n (disk) coordinates exits 3
    if model == "cone":
        a = _cone_file(tmp_path)
    else:
        a = write_json(tmp_path / "x.json", element_to_json(
            DiskModel(1, Fraction(1, 2)), Element.basis((MultiIndex((1,)), MultiIndex((0,))))))
    res = run("--model", model, "--n", "1", "--hbar", "1/2", "eval", a, "--point", point)
    assert res.exit_code == 3, (res.output, res.exception)
    assert "coordinates" in res.output


@pytest.mark.parametrize("kind", ["element", "vector"])
def test_terms_capped(tmp_path, kind):
    from exactstar.cli import TERMS_CAP

    def write(name, count):
        if kind == "element":
            return write_json(tmp_path / name, {"terms": [
                {"index": k, "re": "1", "im": "0"} for k in range(count)]})
        # two variables keep the degrees, and so the vacuum weights, small
        return write_json(tmp_path / name, {"terms": [
            {"index": [k % 64, k // 64], "re": "1", "im": "0"} for k in range(count)]})

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
