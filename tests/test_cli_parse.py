"""`cli._parse` reads an argv exactly as the argparse parser it replaced.

`reference` rebuilds that parser, whose `error` raised ParseError located
at the prog.  On a seeded corpus of argvs for all 13 commands `_parse` must
give the same args dict or the same ParseError message.  The corpus spells
flags exactly, by a unique or an ambiguous prefix and as `--flag=value`,
and mixes in the tokens argparse treats specially (`--`, `-`, `-h`, `-x`,
`-1`, `-1/2`, `- 1`, the empty string), stray words, repeated flags and
flags with no value.

argparse answers this corpus identically under Python 3.10 to 3.13.  It
holds no `--flag=--`: 3.10 to 3.12 read that value as an empty list, 3.13
as the string `--`, and `_parse` reads it as 3.13 does.
"""

import argparse
import contextlib
import io
import json
import random
from collections import Counter

from padicbuilding import cli
from padicbuilding.errors import ParseError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message, self.prog)


def reference(cmd):
    parser = _Parser(prog=f"padicbuilding {cmd}", add_help=False)
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--e", type=int, default=1)
    for flag, reader in cli.COMMANDS[cmd][1].items():
        name = flag.strip("[]")
        typed = {"type": int, "required": name == flag} if reader is int else {}
        parser.add_argument(name, dest=name, **typed)
    return parser


REFERENCE = {cmd: reference(cmd) for cmd in cli.COMMANDS}
INTS = ["2", "3", "0", "7", "-1", " 5", "+4"]
VALUES = ['{"I":[1,2],"x":["0/1","1/1"]}', "[1,2]", "", "x", "zap", "-", "- 1", "-1", "-1/2",
          "-.5", "1 2", "@file"]
# --c is ambiguous in equiv, and a bare --= in every command
TOKENS = ["--", "-", "-h", "-x", "-1", "-1/2", "- 1", "", "zap", "--zap", "--c", "--s", "--po",
          "--p=", "--point=", "--", "--=", "--=1", "---", "--help", "-p", "--poi=x y", "--c=1"]
ALL_FLAGS = sorted({"--p", "--n", "--e"}
                   | {flag.strip("[]") for _, flags, _ in cli.COMMANDS.values() for flag in flags})


def options(cmd):
    return ["--p", "--n", "--e"] + [flag.strip("[]") for flag in cli.COMMANDS[cmd][1]]


def spellings(option, table):
    """The option itself and each of its prefixes that names no other option of `table`."""
    return [option] + [option[:k] for k in range(3, len(option))
                       if sum(other.startswith(option[:k]) for other in table) == 1]


def corpus(seed, count):
    """`count` (command, argv) pairs: most flags given once, then up to four stray tokens."""
    rng = random.Random(seed)
    commands = sorted(cli.COMMANDS)
    for _ in range(count):
        cmd = rng.choice(commands)
        table = options(cmd)
        ints = {flag.strip("[]") for flag, reader in cli.COMMANDS[cmd][1].items() if reader is int}
        ints |= {"--p", "--n", "--e"}
        pairs = []
        for option in rng.sample(table, len(table)):
            if rng.random() < 0.15:
                continue
            value = rng.choice(INTS if option in ints and rng.random() < 0.9 else VALUES)
            spelling = rng.choice(spellings(option, table))
            pairs.append([f"{spelling}={value}"] if rng.random() < 0.2 else [spelling, value])
        for _ in range(rng.choice([0, 0, 1, 1, 2, 4])):
            pick = rng.randrange(4)
            if pick == 0:
                extra = [rng.choice(TOKENS)]
            elif pick == 1:         # a flag of any command, or any prefix of one
                flag = rng.choice(ALL_FLAGS)
                extra = [flag[:rng.randint(2, len(flag))]]
            elif pick == 2 and pairs:
                extra = list(rng.choice(pairs))
            else:
                extra = [rng.choice(VALUES)]
            pairs.insert(rng.randint(0, len(pairs)), extra)
        if rng.random() < 0.1:
            pairs.append([rng.choice(spellings(rng.choice(table), table))])
        yield cmd, [token for pair in pairs for token in pair]


def outcome(read, cmd, argv):
    try:
        return read(cmd, argv)
    except ParseError as exc:
        return str(exc)


def by_argparse(cmd, argv):
    return vars(REFERENCE[cmd].parse_args(argv))


def by_parse(cmd, argv):
    return cli._parse(cmd, cli._FLAGS[cmd], list(argv))


def kind(result):
    if isinstance(result, dict):
        return "ok"
    return next(k for k in ("ambiguous", "expected one", "invalid int", "required",
                            "unrecognized") if k in result)


def test_parse_agrees_with_argparse_on_a_seeded_corpus():
    seen, mismatches = Counter(), []
    for cmd, argv in corpus(20261019, 5200):
        want = outcome(by_argparse, cmd, argv)
        seen[cmd, kind(want)] += 1
        if outcome(by_parse, cmd, argv) != want:
            mismatches.append((cmd, argv, want))
    assert mismatches == []
    # the corpus reaches every command, success and each of argparse's errors
    assert {cmd for cmd, _ in seen} == set(cli.COMMANDS)
    for k in ("ok", "ambiguous", "expected one", "invalid int", "required", "unrecognized"):
        assert sum(count for (_, got), count in seen.items() if got == k) >= 100, k


def test_parse_reports_argparse_errors_in_its_order():
    cases = [
        # an ambiguous prefix anywhere wins, even after an earlier bad value
        (["--p", "x", "--n", "2", "--c"],
         "ambiguous option: --c could match --c1, --c2"),
        (["--p", "x", "--n"], "argument --p: invalid int value: 'x'"),
        (["--n", "2", "--p"], "argument --p: expected one argument"),
        (["--c1", "{}", "zap"], "the following arguments are required: --p, --n"),
        (["--p", "2", "--n", "2", "zap", "--", "--c1", "{}"],
         "unrecognized arguments: zap -- --c1 {}"),
    ]
    for argv, message in cases:
        assert outcome(by_parse, "equiv", argv) == f"padicbuilding equiv: {message}"
        assert outcome(by_argparse, "equiv", argv) == f"padicbuilding equiv: {message}"


def test_an_equals_dash_dash_value_is_the_string():
    # argparse before 3.13 read these values as [], which crashed the command line
    assert by_parse("phi", ["--p", "2", "--n", "2", "--point=--"])["--point"] == "--"
    for argv, message in [(["--p", "2", "--n", "2", "--point=--"], "--point: invalid JSON"),
                          (["--p=--", "--n", "2"],
                           "padicbuilding phi: argument --p: invalid int value: '--'")]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert cli.main(["phi", *argv]) == 3
        assert json.loads(err.getvalue())["message"].startswith(message)
