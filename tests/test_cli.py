import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from padicbuilding import (
    ChartPoint,
    LogValue,
    PrimeContext,
    Root,
    apartment_point,
    interior_point,
    l_functional,
    monomial_element,
    monomial_point,
    open_box,
    phi_from_apartment,
)
from padicbuilding import building, cli
from padicbuilding import serialize as ser
from padicbuilding.cli import main
from padicbuilding.errors import ParseError, ZeroFunctionalError

from randgen import (
    rand_fraction,
    rand_invertible,
    rand_lscalar,
    rand_point,
    rand_seminorm,
    rand_values,
)

CTX = PrimeContext(2, 2, 2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out else None
    err = json.loads(captured.err) if captured.err else None
    return code, out, err


# ---------------------------------------------------------------------------
# Round-trip serialization
# ---------------------------------------------------------------------------

def test_fraction_round_trip():
    rng = random.Random(1)
    for _ in range(1000):
        x = rand_fraction(rng, 10 ** 6, 10 ** 4)
        assert ser.frac_from_str(ser.frac_to_str(x)) == x
    assert ser.frac_from_str("6/4") == Fraction(3, 2)
    assert ser.frac_to_str(ser.frac_from_str("6/4")) == "3/2"
    with pytest.raises(ParseError):
        ser.frac_from_str("1/0")
    with pytest.raises(ParseError):
        ser.frac_from_str("zap")


def test_logvalue_round_trip():
    rng = random.Random(2)
    for _ in range(1000):
        v = LogValue.finite(rand_fraction(rng)) if rng.random() < 0.8 \
            else LogValue.zero()
        assert ser.logvalue_from_doc(ser.logvalue_to_doc(v)) == v
    with pytest.raises(ParseError):
        ser.logvalue_from_doc({"lg": "1/2"})


def test_apartment_point_round_trip_and_regauge():
    rng = random.Random(3)
    for _ in range(1000):
        x = rand_point(rng, rng.randint(2, 5))
        doc = ser.apartment_point_to_doc(x)
        y, regauged = ser.apartment_point_from_doc(doc)
        assert y == x and not regauged
    y, regauged = ser.apartment_point_from_doc({"I": [1, 2], "x": ["1/1", "2/1"]})
    assert regauged and y == apartment_point([1, 2], [0, 1])


def test_seminorm_and_chart_round_trip():
    rng = random.Random(4)
    for _ in range(1000):
        g = rand_seminorm(rng, CTX)
        assert ser.seminorm_from_doc(ser.seminorm_to_doc(g), CTX) == g
        # the command line's chart reader, on a literal document
        c = ChartPoint(rand_invertible(rng, 2, 2), rand_point(rng, 2))
        req = cli._Request(CTX)
        doc = {"g": ser.matrix_to_doc(c.g), "x": ser.apartment_point_to_doc(c.x)}
        assert req.chart(doc, "chart") == c and not req.regauged


def _rational_doc(rng, x):
    # a JSON integer when x is one, otherwise "num/den", sometimes unreduced
    x = Fraction(x)
    if x.denominator == 1 and rng.random() < 0.5:
        return x.numerator
    k = rng.randint(1, 3)
    return f"{x.numerator * k}/{x.denominator * k}"


def test_monomial_point_and_functional_round_trip():
    rng = random.Random(5)
    for _ in range(1000):
        p = monomial_point(rand_invertible(rng, 2, 2), rand_values(rng, 2), CTX)
        assert ser.monomial_point_from_doc(ser.monomial_point_to_doc(p), CTX) == p
        zs = [rand_lscalar(rng, CTX) for _ in range(2)]
        # the reader pads a short coefficient array with zeros
        coeffs = [[_rational_doc(rng, c) for c in z.coeffs[:1 if z.coeffs[1] == 0 else 2]]
                  for z in zs]
        doc = {"z": coeffs} if rng.random() < 0.5 else coeffs
        if all(all(c == 0 for c in z.coeffs) for z in zs):
            with pytest.raises(ZeroFunctionalError):
                ser.lfunctional_from_doc(doc, CTX)
        else:
            assert ser.lfunctional_from_doc(doc, CTX) == l_functional(zs, CTX)


def test_monomial_box_root_round_trip():
    rng = random.Random(6)
    for _ in range(1000):
        n = rng.randint(2, 4)
        perm = rng.sample(range(1, n + 1), n)
        trans = [rand_fraction(rng) for _ in range(n)]
        m, regauged = ser.monomial_from_doc(
            {"perm": perm, "trans": [_rational_doc(rng, t) for t in trans]})
        assert m == monomial_element(perm, trans) and regauged == (trans[0] != 0)
        ivs = [(rand_fraction(rng), rng.randint(7, 9)) for _ in range(rng.randint(1, 3))]
        box = ser.box_from_doc(
            {"intervals": [[_rational_doc(rng, lo), _rational_doc(rng, hi)] for lo, hi in ivs]})
        assert box == open_box(ivs)
        i, j = rng.sample(range(1, 6), 2)
        assert ser.root_from_doc([i, j]) == Root(i, j)


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def test_cli_phi_values(capsys):
    code, out, _ = run(capsys, "phi", "--p", "2", "--n", "2",
                       "--point", '{"I":[1,2],"x":["0/1","1/1"]}')
    assert code == 0
    assert out["ok"] is True
    assert out["config"] == {"p": 2, "n": 2, "e": 1}
    assert out["result"]["values"] == [{"log": "0/1"}, {"log": "-1/1"}]
    assert out["regauged"] is False


def test_cli_phi_inv_round_trip(capsys):
    doc = json.dumps(ser.seminorm_to_doc(
        phi_from_apartment(interior_point([0, Fraction(1, 2)]), CTX)))
    code, out, _ = run(capsys, "phi-inv", "--p", "2", "--n", "2", "--e", "2",
                       "--seminorm", doc)
    assert code == 0
    assert out["result"] == {"I": [1, 2], "x": ["0/1", "1/2"]}


def test_cli_reduce_rational_kernel(capsys):
    code, out, _ = run(capsys, "reduce", "--p", "2", "--n", "2",
                       "--kind", "rational", "--z", '["1/1","0/1"]')
    assert code == 0
    assert out["result"]["kernel"] == [["0/1", "1/1"]]


def test_cli_equiv_with_sampled_stabilizer(capsys):
    x = interior_point([0, 1])
    code, out, _ = run(capsys, "sample-px", "--p", "2", "--n", "2",
                       "--point", json.dumps(ser.apartment_point_to_doc(x)),
                       "--count", "1", "--bound", "2", "--seed", "3")
    assert code == 0
    h = out["result"]["generators"][0]
    c1 = {"g": [["1/1", "0/1"], ["0/1", "1/1"]],
          "x": ser.apartment_point_to_doc(x)}
    c2 = {"g": h, "x": ser.apartment_point_to_doc(x)}
    code, out, _ = run(capsys, "equiv", "--p", "2", "--n", "2",
                       "--c1", json.dumps(c1), "--c2", json.dumps(c2))
    assert code == 0 and out["result"]["equivalent"] is True


def test_cli_act_stab_fsigma(capsys):
    code, out, _ = run(capsys, "act", "--p", "2", "--n", "2",
                       "--m", '{"perm":[2,1],"trans":["0/1","0/1"]}',
                       "--point", '{"I":[1,2],"x":["0/1","1/1"]}')
    assert code == 0
    assert out["result"] == {"I": [1, 2], "x": ["0/1", "-1/1"]}
    code, out, _ = run(capsys, "stab", "--p", "2", "--n", "2",
                       "--g", '[["1/1","1/1"],["1/1","0/1"]]',
                       "--point", '{"I":[1,2],"x":["0/1","0/1"]}')
    assert code == 0 and out["result"]["in_stabilizer"] is True
    code, out, _ = run(capsys, "fsigma", "--p", "2", "--n", "2",
                       "--sigma", '[{"I":[1,2],"x":["0/1","0/1"]},{"I":[1],"x":["0/1"]}]',
                       "--root", "[1,2]")
    assert code == 0 and out["result"]["f"] == "inf"


def test_cli_ray_gamma_section_omega_ortho(capsys):
    code, out, _ = run(capsys, "ray-limit", "--p", "2", "--n", "3",
                       "--x0", '{"I":[1,2,3],"x":["0/1","0/1","0/1"]}',
                       "--d", '["0/1","0/1","1/1"]')
    assert code == 0 and out["result"] == {"I": [1, 2], "x": ["0/1", "0/1"]}
    code, out, _ = run(capsys, "gamma-member", "--p", "2", "--n", "2",
                       "--y", '{"I":[1,2],"x":["0/1","5/1"]}',
                       "--box", '{"intervals":[["-1/1","1/1"]]}', "--I", "[1]")
    assert code == 0 and out["result"]["member"] is True
    b = ser.seminorm_to_doc(phi_from_apartment(interior_point([0, 0]), CTX))
    code, out, _ = run(capsys, "section", "--p", "2", "--n", "2", "--e", "2",
                       "--b", json.dumps(b))
    assert code == 0 and out["result"]["radii"] == [{"log": "0/1"}, {"log": "0/1"}]
    code, out, _ = run(capsys, "omega", "--p", "2", "--n", "2", "--e", "2",
                       "--z", '[["1/1","0/1"],["0/1","1/1"]]')
    assert code == 0 and out["result"]["in_omega"] is True
    gauge = ser.seminorm_to_doc(phi_from_apartment(interior_point([0, 0]), PrimeContext(2, 2)))
    code, out, _ = run(capsys, "ortho", "--p", "2", "--n", "2",
                       "--us", '[["1/1","0/1"],["1/1","2/1"]]',
                       "--ambient", json.dumps(gauge))
    assert code == 0
    assert out["result"]["vectors"] == [["1/1", "0/1"], ["0/1", "2/1"]]


def test_cli_reduce_l_point_and_monomial(capsys):
    code, out, _ = run(capsys, "reduce", "--p", "2", "--n", "2", "--e", "2",
                       "--kind", "l-point", "--z", '[["1/1","0/1"],["0/1","1/1"]]')
    assert code == 0
    assert out["result"]["kernel"] == []
    mp = ser.monomial_point_to_doc(monomial_point(
        ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        (LogValue.finite(0), LogValue.zero()), PrimeContext(2, 2)))
    code, out, _ = run(capsys, "reduce", "--p", "2", "--n", "2",
                       "--kind", "monomial", "--mp", json.dumps(mp))
    assert code == 0 and out["result"]["kernel"] == [["0/1", "1/1"]]


def test_cli_exit_codes(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 4 and err["error"] == "UnknownCommand"
    code, _, err = run(capsys, "phi", "--p", "2", "--n", "2", "--point", "{bad json")
    assert code == 3 and err["error"] == "ParseError"
    code, _, err = run(capsys, "phi", "--p", "2", "--n", "2",
                       "--point", '{"I":[1,2,3],"x":["0/1","0/1","0/1"]}')
    assert code == 2
    # singular matrix is a domain error
    code, _, err = run(capsys, "stab", "--p", "2", "--n", "2",
                       "--g", '[["1/1","1/1"],["1/1","1/1"]]',
                       "--point", '{"I":[1,2],"x":["0/1","0/1"]}')
    assert code == 2 and err["error"] == "SingularMatrix"
    # missing required flag is a parse error
    code, _, err = run(capsys, "phi", "--p", "2", "--n", "2")
    assert code == 3
    # sample-px demands an explicit seed
    code, _, err = run(capsys, "sample-px", "--p", "2", "--n", "2",
                       "--point", '{"I":[1,2],"x":["0/1","0/1"]}')
    assert code == 3
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_cli_deterministic_and_regauge_flag(capsys):
    args = ("sample-px", "--p", "3", "--n", "3",
            "--point", '{"I":[1,2,3],"x":["0/1","1/1","2/1"]}',
            "--count", "4", "--bound", "3", "--seed", "11")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    code, out, _ = run(capsys, "phi", "--p", "2", "--n", "2",
                       "--point", '{"I":[1,2],"x":["3/1","4/1"]}')
    assert code == 0 and out["regauged"] is True
    assert out["result"]["values"] == [{"log": "0/1"}, {"log": "-1/1"}]


def test_cli_payload_from_file(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text('{"I":[1,2],"x":["0/1","1/1"]}', encoding="utf-8")
    code, out, _ = run(capsys, "phi", "--p", "2", "--n", "2",
                       "--point", f"@{path}")
    assert code == 0
    assert out["result"]["values"] == [{"log": "0/1"}, {"log": "-1/1"}]
    code, _, err = run(capsys, "phi", "--p", "2", "--n", "2",
                       "--point", "@/nonexistent/file.json")
    assert code == 3


POINT2 = '{"I":[1,2],"x":["0/1","0/1"]}'


def test_cli_exponents_must_be_an_array(capsys):
    code, out, err = run(capsys, "phi", "--p", "2", "--n", "2", "--point", '{"I":[1,2],"x":5}')
    assert code == 3 and out is None and err["error"] == "ParseError"


def test_cli_translation_must_be_an_array(capsys):
    code, out, err = run(capsys, "act", "--p", "2", "--n", "2",
                         "--m", '{"perm":[2,1],"trans":5}', "--point", POINT2)
    assert code == 3 and out is None and err["error"] == "ParseError"


def test_cli_intervals_must_be_an_array(capsys):
    code, out, err = run(capsys, "gamma-member", "--p", "2", "--n", "2", "--y", POINT2,
                         "--box", '{"intervals":5}', "--I", "[1]")
    assert code == 3 and out is None and err["error"] == "ParseError"


def test_cli_gamma_member_checks_dimension(capsys):
    box2 = '{"intervals":[["-1/1","1/1"],["-1/1","1/1"]]}'
    code, out, err = run(capsys, "gamma-member", "--p", "2", "--n", "3",
                         "--y", '{"I":[1,2,3],"x":["0/1","0/1","0/1"]}',
                         "--box", '{"intervals":[["-1/1","1/1"]]}', "--I", "[1]")
    assert code == 2 and out is None and err["ok"] is False
    code, out, err = run(capsys, "gamma-member", "--p", "2", "--n", "3",
                         "--y", '{"I":[1,7],"x":["0/1","1/1"]}', "--box", box2, "--I", "[1]")
    assert code == 2 and out is None and err["ok"] is False
    code, out, _ = run(capsys, "gamma-member", "--p", "2", "--n", "3",
                       "--y", '{"I":[1,2,3],"x":["0/1","0/1","0/1"]}', "--box", box2,
                       "--I", "[1]")
    assert code == 0 and out["result"]["member"] is True


def test_cli_act_checks_permutation_length(capsys):
    code, out, err = run(capsys, "act", "--p", "2", "--n", "2",
                         "--m", '{"perm":[2,3,1],"trans":["0/1","0/1","0/1"]}', "--point", POINT2)
    assert code == 2 and out is None and err["error"] == "Domain"
    code, out, _ = run(capsys, "act", "--p", "2", "--n", "2",
                       "--m", '{"perm":[2,1],"trans":["0/1","0/1"]}', "--point", POINT2)
    assert code == 0 and out["result"] == {"I": [1, 2], "x": ["0/1", "0/1"]}


def test_cli_fsigma_checks_root_range(capsys):
    for root in ("[1,5]", "[0,1]", "[2,-1]"):
        code, out, err = run(capsys, "fsigma", "--p", "2", "--n", "2",
                             "--sigma", f"[{POINT2}]", "--root", root)
        assert code == 2 and out is None and err["error"] == "Domain", root
    code, out, _ = run(capsys, "fsigma", "--p", "2", "--n", "2",
                       "--sigma", f"[{POINT2}]", "--root", "[1,2]")
    assert code == 0 and out["result"] == {"f": "0/1"}


def test_cli_ray_limit_checks_direction_length(capsys):
    # under --n 5 this x0 is a boundary point; a short --d used to answer in dimension 3
    x0 = '{"I":[1,2,3],"x":["0","1","2"]}'
    code, out, err = run(capsys, "ray-limit", "--p", "2", "--n", "5",
                         "--x0", x0, "--d", '["0","0","1"]')
    assert code == 2 and out is None
    assert err == {"ok": False, "error": "Domain", "message": "--d: expected 5 entries, got 3"}
    code, out, err = run(capsys, "ray-limit", "--p", "2", "--n", "5",
                         "--x0", x0, "--d", '["0","0","1","0","0"]')
    assert code == 2 and out is None and err["error"] == "Domain"
    assert err["message"] == "ray base point must be interior; project first"


def test_rational_grammar_is_strict():
    for good, value in (("3", 3), ("-7/21", Fraction(-1, 3)), ("0/5", 0), (12, 12),
                        ("9" * 1000 + "/" + "1" * 1000, Fraction(10 ** 1000 - 1, (10 ** 1000 - 1) // 9))):
        assert ser.frac_from_str(good) == value
    too_long = "1" * 1001
    for bad in ("1e3", "1e999999999", "1.5", " 1/2", "1/2 ", "+1", "1/-2", "--1", "1/2/3", "",
                "/2", "1/", "½", "١", "0x10", "1_000", too_long, f"1/{too_long}",
                10 ** 1000, -10 ** 1000, True, 1.5, None, ["1"]):
        with pytest.raises(ParseError):
            ser.frac_from_str(bad)


def test_rational_reader_and_writer_agree_with_fraction():
    # the reader builds the Fraction from its regex groups, without a gcd for an integer;
    # the writer prints an int and the equal Fraction alike
    digits = "9" * 999 + "6"
    for text in ("-0/5", "007/014", "12", "-12", "0", "-0", digits, "-" + digits,
                 digits + "/" + "0" * 999 + "8", "-" + "3" * 1000 + "/" + digits):
        got = ser.frac_from_str(text)
        assert type(got) is Fraction and got == Fraction(text)
    for k in (0, 12, -12, 10 ** 999):
        got = ser.frac_from_str(k)
        assert type(got) is Fraction and got == Fraction(k)
        assert ser.frac_to_str(k) == ser.frac_to_str(Fraction(k)) == f"{k}/1"


def test_cli_rejects_exponent_grammar(capsys):
    code, out, err = run(capsys, "phi", "--p", "2", "--n", "2",
                         "--point", '{"I":[1,2],"x":["0/1","1e3"]}')
    assert code == 3 and out is None and err["error"] == "ParseError"


def test_cli_values_and_radii_must_be_arrays(capsys):
    basis = '"basis":[["1/1","0/1"],["0/1","1/1"]]'
    for argv, key in ((("phi-inv", "--seminorm"), "values"),
                      (("reduce", "--kind", "monomial", "--mp"), "radii")):
        flag = argv[-1]
        for doc, message in (
                ("[]", f'{flag}: expected {{"basis": ..., "{key}": [...]}}'),
                (f"{{{basis}}}", f'{flag}: expected {{"basis": ..., "{key}": [...]}}'),
                (f'{{{basis},"{key}":5}}', f"{flag}.{key}: {key} must be an array"),
                (f'{{{basis},"{key}":["zero",5]}}',
                 f'{flag}.{key}[1]: expected "zero" or {{"log": "a/b"}}')):
            code, out, err = run(capsys, argv[0], "--p", "2", "--n", "2", *argv[1:], doc)
            assert code == 3 and out is None
            assert err == {"ok": False, "error": "ParseError", "message": message}


@pytest.mark.parametrize("argv, message", [
    (("act", "--m", '{"perm":[2,1],"trans":["0/1","0/1"]}', "--point", POINT2,
      "--g", '[["1/1","0/1"],["0/1","1/1"]]'), "--g: not read with --m"),
    (("act", "--m", '{"perm":[2,1],"trans":["0/1","0/1"]}', "--point", POINT2,
      "--seminorm", '{"basis":[["1/1","0/1"],["0/1","1/1"]],"values":[{"log":"0/1"},"zero"]}'),
     "--seminorm: not read with --m"),
    (("act", "--g", '[["1/1","0/1"],["0/1","1/1"]]', "--point", POINT2,
      "--seminorm", '{"basis":[["1/1","0/1"],["0/1","1/1"]],"values":[{"log":"0/1"},"zero"]}'),
     "--point: not read with --g"),
    (("reduce", "--kind", "monomial", "--z", '["1/1","0/1"]',
      "--mp", '{"basis":[["1/1","0/1"],["0/1","1/1"]],"radii":[{"log":"0/1"},"zero"]}'),
     "--z: not read with --kind monomial"),
    (("reduce", "--kind", "rational", "--z", '["1/1","0/1"]', "--mp", '{"basis":1}'),
     "--mp: not read with --kind rational"),
    (("reduce", "--e", "2", "--kind", "l-point", "--z", '[["1/1","0/1"],["0/1","1/1"]]',
      "--mp", '{"basis":1}'), "--mp: not read with --kind l-point"),
])
def test_cli_refuses_a_payload_its_mode_does_not_read(capsys, argv, message):
    code, out, err = run(capsys, argv[0], "--p", "2", "--n", "2", *argv[1:])
    assert code == 3 and out is None
    assert err == {"ok": False, "error": "ParseError", "message": message}


NORM2 = '{"basis":[["1/1","0/1"],["0/1","1/1"]],"values":[{"log":"0/1"},{"log":"0/1"}]}'


@pytest.mark.parametrize("argv, code, error, message", [
    (("phi", "--point", "[]"), 3, "ParseError", '--point: expected {"I": [...], "x": [...]}'),
    (("phi", "--point", '{"I":[1,2],"x":["0/1"]}'), 2, "Domain",
     "piece has 2 indices but 1 exponents"),
    (("ray-limit", "--x0", POINT2, "--d", "[]"), 3, "ParseError", "--d: expected a nonempty array"),
    (("stab", "--g", "[]", "--point", POINT2), 3, "ParseError", "--g: expected a nonempty row array"),
    (("stab", "--g", '[["1/1","0/1"],["1/1"]]', "--point", POINT2), 3, "ParseError",
     "--g: ragged matrix"),
    (("equiv", "--c1", "[]", "--c2", "[]"), 3, "ParseError", '--c1: expected {"g": ..., "x": ...}'),
    (("act", "--m", "[]", "--point", POINT2), 3, "ParseError",
     '--m: expected {"perm": [...], "trans": [...]}'),
    (("act", "--m", '{"perm":[1,1],"trans":["0/1","0/1"]}', "--point", POINT2), 2, "Domain",
     "not a permutation of 1..2: (1, 1)"),
    (("act", "--m", '{"perm":[2,1],"trans":["0/1"]}', "--point", POINT2), 2, "Domain",
     "translation length mismatch"),
    (("gamma-member", "--y", POINT2, "--box", "[]", "--I", "[1]"), 3, "ParseError",
     '--box: expected {"intervals": [[lo, hi], ...]}'),
    (("gamma-member", "--y", POINT2, "--box", '{"intervals":[["0/1"]]}', "--I", "[1]"), 3,
     "ParseError", "--box.intervals[0]: expected [lo, hi]"),
    (("gamma-member", "--y", POINT2, "--box", '{"intervals":[["1/1","0/1"]]}', "--I", "[1]"), 2,
     "Domain", "empty interval (1, 0)"),
    (("omega", "--z", "5"), 3, "ParseError", '--z: expected {"z": [[...], ...]} or an array'),
    (("omega", "--e", "2", "--z", '[5,["1/1"]]'), 3, "ParseError",
     "--z[0]: expected a coefficient array"),
    (("omega", "--e", "2", "--z", '[["1/1","2/1","3/1"],["1/1"]]'), 2, "Domain",
     "expected at most 2 coefficients, got 3"),
    (("ortho", "--us", '[["1/1","0/1","0/1"]]', "--ambient", NORM2), 2, "Domain",
     "expected at most n vectors of length n"),
])
def test_cli_refuses_a_malformed_payload(capsys, argv, code, error, message):
    got, out, err = run(capsys, argv[0], "--p", "2", "--n", "2", *argv[1:])
    assert (got, out) == (code, None)
    assert err == {"ok": False, "error": error, "message": message}


def test_cli_fsigma_is_minus_infinity_when_no_piece_holds_i(capsys):
    code, out, err = run(capsys, "fsigma", "--p", "2", "--n", "2",
                         "--sigma", '[{"I":[2],"x":["0/1"]}]', "--root", "[1,2]")
    assert (code, err) == (0, None)
    assert out == {"ok": True, "command": "fsigma", "result": {"f": "-inf"}, "regauged": False,
                   "config": {"p": 2, "n": 2, "e": 1}}


@pytest.mark.parametrize("flags", [
    ("phi", "--point", '{"I":[true,2],"x":["0/1","0/1"]}'),
    ("gamma-member", "--y", POINT2, "--box", '{"intervals":[["-1/1","1/1"]]}', "--I", "[true]"),
    ("fsigma", "--sigma", f"[{POINT2}]", "--root", "[true,2]"),
    ("act", "--m", '{"perm":[2.7,1],"trans":["0/1","0/1"]}', "--point", POINT2),
    ("act", "--m", '{"perm":["2","1"],"trans":["0/1","0/1"]}', "--point", POINT2),
])
def test_cli_indices_must_be_json_integers(capsys, flags):
    code, out, err = run(capsys, flags[0], "--p", "2", "--n", "2", *flags[1:])
    assert code == 3 and out is None and err["error"] == "ParseError"


def test_cli_gamma_member_refuses_a_repeated_index(capsys):
    # the piece [1, 1] was read as {1} and answered, where --point refused it
    code = main(["gamma-member", "--p", "2", "--n", "2", "--y", '{"I":[1,2],"x":["0/1","-1/1"]}',
                 "--box", '{"intervals":[["-1/1","1/1"]]}', "--I", "[1,1]"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == '{"error": "Domain", "message": "invalid piece (1, 1)", "ok": false}\n'


REPEATED = '{"I":[1,1],"x":["0/1","0/1"]}'
ID2 = '[["1/1","0/1"],["0/1","1/1"]]'
BOX2 = '{"intervals":[["-1/1","1/1"]]}'


@pytest.mark.parametrize("argv, message", [
    (("phi", "--point", REPEATED), "invalid piece (1, 1)"),
    (("gamma-member", "--y", REPEATED, "--box", BOX2, "--I", "[1]"), "invalid piece (1, 1)"),
    (("fsigma", "--sigma", f"[{REPEATED}]", "--root", "[1,2]"), "invalid piece (1, 1)"),
    (("equiv", "--c1", f'{{"g":{ID2},"x":{REPEATED}}}', "--c2", f'{{"g":{ID2},"x":{POINT2}}}'),
     "invalid piece (1, 1)"),
    (("gamma-member", "--y", POINT2, "--box", BOX2, "--I", "[1,1]"), "invalid piece (1, 1)"),
    (("fsigma", "--sigma", f"[{POINT2}]", "--root", "[1,1]"), "root needs distinct indices"),
    (("fsigma", "--sigma", f"[{POINT2}]", "--root", "[1,5]"),
     "root (1, 5) has an index outside 1..2"),
    (("act", "--m", '{"perm":[1,1],"trans":["0/1","0/1"]}', "--point", POINT2),
     "not a permutation of 1..2: (1, 1)"),
    (("act", "--m", '{"perm":[2,1,3],"trans":["0/1","0/1","0/1"]}', "--point", POINT2),
     "permutation has length 3, expected 2"),
])
def test_cli_refuses_a_bad_value_alike_whichever_flag_holds_it(capsys, argv, message):
    # the library refuses decoded values, exit 2 with its own message and no flag prefix
    code, out, err = run(capsys, argv[0], "--p", "2", "--n", "2", *argv[1:])
    assert (code, out) == (2, None)
    assert err == {"ok": False, "error": "Domain", "message": message}


@pytest.mark.parametrize("module, name, read, doc", [
    ("apartment", "apartment_point", ser.apartment_point_from_doc, {"I": [1, 2], "x": ["0/1", "1/1"]}),
    ("apartment", "monomial_element", ser.monomial_from_doc, {"perm": [2, 1], "trans": ["0/1", "0/1"]}),
    ("apartment", "Root", ser.root_from_doc, [1, 2]),
    ("apartment", "open_box", ser.box_from_doc, {"intervals": [["0/1", "1/1"]]}),
])
def test_internal_errors_are_not_relabelled_as_parse_errors(monkeypatch, module, name, read, doc):
    def broken(*args, **kwargs):
        raise RuntimeError("internal bug")

    monkeypatch.setattr(getattr(ser, module), name, broken)
    with pytest.raises(RuntimeError, match="internal bug"):
        read(doc)


P3 = '{"I":[1,2,3],"x":["0/1","0/1","0/1"]}'
G3 = '[["1/1","0/1","0/1"],["0/1","1/1","0/1"],["0/1","0/1","1/1"]]'


@pytest.mark.parametrize("argv", [
    ("ray-limit", "--x0", P3, "--d", '["0/1","0/1","1/1"]'),
    ("fsigma", "--sigma", f"[{P3}]", "--root", "[1,2]"),
    ("act", "--m", '{"perm":[2,1],"trans":["0/1","0/1"]}', "--point", P3),
    ("stab", "--g", G3, "--point", POINT2),
    ("equiv", "--c1", f'{{"g":{G3},"x":{POINT2}}}', "--c2", f'{{"g":{G3},"x":{POINT2}}}'),
])
def test_cli_payloads_are_checked_against_n(capsys, argv):
    code, out, err = run(capsys, argv[0], "--p", "2", "--n", "2", *argv[1:])
    assert code == 2 and out is None and err["error"] == "Domain"


@pytest.mark.parametrize("flag, value", [("--n", "65"), ("--e", "65"), ("--count", "1001"),
                                         ("--bound", "65")])
def test_cli_caps(monkeypatch, capsys, flag, value):
    def no_work(*args, **kwargs):
        raise AssertionError("the request should have been refused before any work")

    monkeypatch.setattr(building, "sample_P_x_generators", no_work)
    argv = {"--p": "2", "--n": "2", "--point": POINT2, "--seed": "1", flag: value}
    code, out, err = run(capsys, "sample-px", *[t for item in argv.items() for t in item])
    assert code == 2 and out is None and err["error"] == "Domain"
    assert err["message"] == f"{flag} is {value}, at most {int(value) - 1} is supported"


def test_cli_rejects_primes_beyond_the_proven_range(capsys):
    code, out, err = run(capsys, "phi", "--p", str(2 ** 89 - 1), "--n", "2", "--point", POINT2)
    assert code == 2 and out is None and "too large" in err["message"]


def test_cli_deeply_nested_json_is_a_parse_error(capsys):
    code, out, err = run(capsys, "phi", "--p", "2", "--n", "2",
                         "--point", "[" * 100000 + "]" * 100000)
    assert code == 3 and out is None and err["error"] == "ParseError"


def test_cli_payload_file_size_is_capped(monkeypatch, tmp_path, capsys):
    doc = '{"I":[1,2],"x":["0/1","1/1"]}'
    path = tmp_path / "point.json"
    path.write_text(doc, encoding="utf-8")
    monkeypatch.setattr(cli, "_PAYLOAD_BYTES", len(doc))
    code, out, _ = run(capsys, "phi", "--p", "2", "--n", "2", "--point", f"@{path}")
    assert code == 0 and out["result"]["values"] == [{"log": "0/1"}, {"log": "-1/1"}]
    monkeypatch.setattr(cli, "_PAYLOAD_BYTES", len(doc) - 1)
    code, out, err = run(capsys, "phi", "--p", "2", "--n", "2", "--point", f"@{path}")
    assert code == 3 and out is None and err["error"] == "ParseError"
    assert err["message"] == f"--point: payload file is longer than {len(doc) - 1} bytes"


def test_cli_payload_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"I":[1,2],"x":["0/1","1/1"]}\xff')
    code, out, err = run(capsys, "phi", "--p", "2", "--n", "2", "--point", f"@{path}")
    assert code == 3 and out is None and err["error"] == "ParseError"
    assert err["message"].startswith("--point: payload file is not UTF-8")


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="needs /dev/zero")
def test_cli_endless_payload_file_is_refused(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_PAYLOAD_BYTES", 1 << 10)
    code, out, err = run(capsys, "phi", "--p", "2", "--n", "2", "--point", "@/dev/zero")
    assert code == 3 and out is None and err["error"] == "ParseError"


@pytest.mark.parametrize("coords", [["0/1", "65/1"], ["0/1", "-65/1"], ["0/1", "1000000000/1"],
                                    ["-1000000000/1", "0/1"], ["0/1", "129/2"]])
def test_cli_sample_px_caps_coordinates(monkeypatch, capsys, coords):
    def no_work(*args, **kwargs):
        raise AssertionError("the request should have been refused before any work")

    monkeypatch.setattr(building, "sample_P_x_generators", no_work)
    point = json.dumps({"I": [1, 2], "x": coords})
    code, out, err = run(capsys, "sample-px", "--p", "3", "--n", "2", "--point", point,
                         "--seed", "1")
    assert code == 2 and out is None and err["error"] == "Domain"
    assert err["message"] == "sample-px needs coordinates of size at most 64"


def test_cli_sample_px_accepts_coordinates_up_to_the_cap(capsys):
    for coords in (["0/1", "64/1"], ["0/1", "-64/1"], ["64/1", "0/1"]):
        point = json.dumps({"I": [1, 2], "x": coords})
        code, out, _ = run(capsys, "sample-px", "--p", "3", "--n", "2", "--point", point,
                           "--seed", "1", "--bound", "64")
        assert code == 0 and len(out["result"]["generators"]) == 5


def _cold_start_requests():
    # the benchmark's pinned requests, read from its own file rather than copied here
    path = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COLD_START


COLD_START = _cold_start_requests()


@pytest.mark.parametrize("workload", sorted(COLD_START))
def test_benchmark_cold_start_requests_answer_as_pinned(workload, capsys):
    # the benchmark counts a run as correct only if each of these answers exactly so
    argv, expected = COLD_START[workload]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err is None and out["ok"] is True
    assert out["result"] == expected
