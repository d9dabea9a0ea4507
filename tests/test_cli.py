import json
import random
from fractions import Fraction

import pytest

from padicbuilding import (
    ChartPoint,
    LogValue,
    PrimeContext,
    apartment_point,
    interior_point,
    l_functional,
    monomial_point,
    open_box,
    phi_from_apartment,
)
from padicbuilding import serialize as ser
from padicbuilding.cli import main
from padicbuilding.errors import ParseError

from randgen import (
    rand_fraction,
    rand_invertible,
    rand_lscalar,
    rand_monomial,
    rand_point,
    rand_poly,
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
        c = ChartPoint(rand_invertible(rng, 2, 2), rand_point(rng, 2))
        got, regauged = ser.chart_from_doc(ser.chart_to_doc(c))
        assert got == c and not regauged


def test_monomial_point_polynomial_functional_round_trip():
    rng = random.Random(5)
    for _ in range(1000):
        p = monomial_point(rand_invertible(rng, 2, 2), rand_values(rng, 2), CTX)
        assert ser.monomial_point_from_doc(ser.monomial_point_to_doc(p), CTX) == p
        f = rand_poly(rng, 2)
        assert ser.polynomial_from_doc(ser.polynomial_to_doc(f), 2) == f
        zs = [rand_lscalar(rng, CTX) for _ in range(2)]
        if all(all(c == 0 for c in z.coeffs) for z in zs):
            continue
        zf = l_functional(zs, CTX)
        assert ser.lfunctional_from_doc(ser.lfunctional_to_doc(zf), CTX) == zf


def test_monomial_box_root_round_trip():
    rng = random.Random(6)
    for _ in range(1000):
        m = rand_monomial(rng, rng.randint(2, 4), integral=False)
        got, regauged = ser.monomial_from_doc(ser.monomial_to_doc(m))
        assert got == m and not regauged
        box = open_box([(rand_fraction(rng), rng.randint(7, 9))
                        for _ in range(rng.randint(1, 3))])
        assert ser.box_from_doc(ser.box_to_doc(box)) == box
        a = pb_root(rng)
        assert ser.root_from_doc(ser.root_to_doc(a)) == a


def pb_root(rng):
    from padicbuilding import Root

    i, j = rng.sample(range(1, 6), 2)
    return Root(i, j)


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


def test_cli_rejects_exponent_grammar(capsys):
    code, out, err = run(capsys, "phi", "--p", "2", "--n", "2",
                         "--point", '{"I":[1,2],"x":["0/1","1e3"]}')
    assert code == 3 and out is None and err["error"] == "ParseError"
