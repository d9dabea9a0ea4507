"""Property test of the CLI boundary: any request gets one JSON envelope.

Hypothesis (derandomized, so CI sees the same examples on every run)
builds requests from the command table: a command or an unknown word, the
configuration flags, and for each payload flag either a document of the
shape its reader expects (sized for --n most of the time), some other JSON
value, a non-JSON string, or nothing.  Each flag is spelled exactly, by a
unique prefix or as `--flag=value`, and some requests end in `--`, `-h`, a
bare word or a flag with no value.  Every answer must be exit code 0,
2, 3 or 4 with exactly one JSON envelope, on stdout for 0 and on stderr
otherwise.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from padicbuilding.cli import COMMANDS, main
from test_cli_parse import spellings

GOOD_RATIONAL = st.builds(lambda a, b, slash: f"{a}/{b}" if slash else a,
                          st.integers(-9, 9), st.integers(1, 4), st.booleans())
RATIONAL = GOOD_RATIONAL | st.sampled_from(["1/0", "1e3", "0.5", "x", True, None])
INDEX = st.integers(-1, 5)
OTHER_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=4),
    st.lists(st.integers(-3, 3) | st.text(max_size=2), max_size=3),
    st.dictionaries(st.sampled_from(["I", "x", "g", "basis", "values", "perm", "intervals"]),
                    st.integers(-3, 3) | st.lists(RATIONAL, max_size=2), max_size=3),
)


def _vector(draw, n, rat):
    return draw(st.lists(rat, min_size=n, max_size=n))


def _point(draw, n, rat):
    piece = sorted(draw(st.sets(st.integers(1, n), min_size=1))) if draw(st.integers(0, 5)) \
        else draw(st.lists(INDEX, max_size=3))
    return {"I": piece, "x": _vector(draw, len(piece), rat)}


def _matrix(draw, n, rat):
    return [_vector(draw, n, rat) for _ in range(n)]


def _value(draw, rat):
    return "zero" if draw(st.integers(0, 4)) == 0 else {"log": draw(rat)}


def _doc(draw, reader, n, e, rat):
    """A document of the shape `reader` reads, for dimension n and degree e."""
    if reader == "point":
        return _point(draw, n, rat)
    if reader == "points":
        return [_point(draw, n, rat) for _ in range(draw(st.integers(1, 3)))]
    if reader in ("matrix", "vectors"):
        return _matrix(draw, n, rat)
    if reader == "vector":
        return _vector(draw, n, rat)
    if reader == "chart":
        return {"g": _matrix(draw, n, rat), "x": _point(draw, n, rat)}
    if reader == "monomial":
        perm = draw(st.permutations(range(1, n + 1)))
        return {"perm": perm, "trans": _vector(draw, n, rat)}
    if reader == "root":
        return draw(st.lists(INDEX, min_size=2, max_size=2))
    if reader == "indices":
        return draw(st.lists(INDEX, min_size=1, max_size=n))
    if reader == "box":
        lows = [draw(st.integers(-4, 4)) for _ in range(n - 1)]
        return {"intervals": [[lo, lo + draw(st.integers(-1, 3))] for lo in lows]}
    if reader == "seminorm":
        return {"basis": _matrix(draw, n, rat), "values": [_value(draw, rat) for _ in range(n)]}
    if reader == "functional":
        return [_vector(draw, e, rat) for _ in range(n)]
    raise AssertionError(reader)


def _reduce_payload(draw, name, n, e, rat):
    if name == "--kind":
        return draw(st.sampled_from(["monomial", "rational", "l-point", "zap"]))
    if name == "--mp":
        doc = {"basis": _matrix(draw, n, rat), "radii": [_value(draw, rat) for _ in range(n)]}
    else:
        doc = _vector(draw, n, rat) if draw(st.booleans()) else _doc(draw, "functional", n, e, rat)
    return json.dumps(doc)


def _spelled(draw, flag, value, table):
    """`flag value`, the flag exact or cut to a prefix no other flag of `table` has, or
    `flag=value`."""
    how = draw(st.integers(0, 2))
    if how == 2:
        return [f"{flag}={value}"]
    return [draw(st.sampled_from(spellings(flag, table))) if how else flag, value]


@st.composite
def requests(draw):
    cmd = draw(st.sampled_from(sorted(COMMANDS) + ["zap"]))
    # a bad --n, --e or --p (outside what PrimeContext and the caps accept) three times in ten
    bad = draw(st.integers(0, 9))
    n = draw(st.sampled_from([1, 0, 65] if bad == 4 else [2, 3, 4]))
    e = draw(st.sampled_from([0, 65] if bad == 5 else [1, 2]))
    flags = COMMANDS[cmd][1] if cmd in COMMANDS else {}
    table = ["--p", "--n", "--e"] + [flag.strip("[]") for flag in flags]
    p = draw(st.sampled_from([4, 1, -3] if bad == 6 else [2, 3, 5]))
    argv = [cmd]
    for flag, value in (("--p", p), ("--n", n), ("--e", e)):
        argv += _spelled(draw, flag, str(value), table)
    size = n if 1 <= n <= 4 and draw(st.integers(0, 5)) else draw(st.integers(1, 4))
    degree = e if 1 <= e <= 2 else 2
    rat = RATIONAL if draw(st.booleans()) else GOOD_RATIONAL
    for flag, reader in flags.items():
        name = flag.strip("[]")
        choice = draw(st.integers(0, 19))    # 9: other JSON, 10: not JSON, 11: flag left out
        if choice == 11:
            continue
        if reader is int:
            value = str(draw(st.integers(-2, 12) | st.just(1001))) if choice < 10 else "x"
        elif reader is str:
            value = _reduce_payload(draw, name, size, degree, rat)
        elif choice == 9:
            value = json.dumps(draw(OTHER_JSON))
        elif choice == 10:
            value = draw(st.sampled_from(["", "{", "[1,", "@/nonexistent", "nul", "'x'"]))
        else:
            value = json.dumps(_doc(draw, reader, size, degree, rat))
        argv += _spelled(draw, name, value, table)
    if draw(st.integers(0, 19)) == 7:
        argv += ["--zap", "1"]
    if draw(st.integers(0, 9)) == 3:
        argv.append(draw(st.sampled_from(["--", "-h", "zap"] + table)))
    return argv


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(requests())
def test_every_request_gets_one_json_envelope(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    lines = (out.getvalue() + err.getvalue()).splitlines()
    assert len(lines) == 1
    envelope = json.loads(lines[0])
    assert envelope["ok"] is (code == 0)
    assert (out if code == 0 else err).getvalue() == lines[0] + "\n"
