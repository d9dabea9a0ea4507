"""The CLI answers byte for byte as it did before its command table.

`cli_golden.json` holds 119 requests with the exit code, stdout and stderr
that the per-command if-chain gave for them: the requests of test_cli.py,
one valid request per command at n = 2..4, the malformed requests of the
benchmark's cli workload, and argparse edge cases (an unknown flag, an
abbreviated flag, --flag=value, a missing payload, --e 0).  `CHANGED`
lists the requests whose answer changed on purpose, and how.
"""

import inspect
import json
import re
import shlex
from pathlib import Path

import pytest

from padicbuilding import PrimeContext, equals, serialize
from padicbuilding.cli import COMMANDS, main

HERE = Path(__file__).resolve().parent
GOLDEN = json.loads((HERE / "cli_golden.json").read_text(encoding="utf-8"))


def _usage(code, out, err):
    # the usage text is now generated from COMMANDS
    return code == 0 and out.startswith("usage: padicbuilding COMMAND") and not err \
        and all(f"\n  {cmd} " in out for cmd in COMMANDS)


def _labelled_by_flag(code, out, err):
    # a malformed --m payload is located as --m.trans, no longer as monomial.trans
    return code == 3 and not out and json.loads(err)["message"] == \
        "--m.trans: translation must be an array"


def _bound_refused(code, out, err):
    # a negative --bound is refused before any draw; it used to leak randrange's ValueError
    return code == 2 and not out and json.loads(err) == \
        {"ok": False, "error": "Domain", "message": "bound must be >= 0"}


def _same_reduction(code, out, err):
    # the one-pass orthogonalization picks another orthogonal basis of the same
    # seminorm: the envelope, the values and the kernel are as stored
    stored = json.loads(next(c["stdout"] for c in GOLDEN if c["name"] == "valid-n3-8-reduce"))
    got = json.loads(out)
    if code != 0 or err or {**got, "result": None} != {**stored, "result": None}:
        return False
    ctx = PrimeContext(**stored["config"])
    new, old = (serialize.seminorm_from_doc(doc["result"], ctx) for doc in (got, stored))
    return all(got["result"][k] == stored["result"][k] for k in ("values", "kernel")) \
        and equals(new, old)


def _root_refused_by_the_library(code, out, err):
    # a repeated root index is refused by Root itself, exit 2 like an index outside 1..n;
    # serialize used to relabel it a ParseError at --root
    return code == 2 and not out and json.loads(err) == \
        {"ok": False, "error": "Domain", "message": "root needs distinct indices"}


CHANGED = {"help": _usage, "no-arguments": _usage, "trans-not-array": _labelled_by_flag,
           "bound-negative": _bound_refused, "valid-n3-8-reduce": _same_reduction,
           "root-equal": _root_refused_by_the_library}


def _run(case, tmp_path):
    path = tmp_path / "point.json"
    path.write_text('{"I":[1,2],"x":["0/1","1/1"]}', encoding="utf-8")
    return main([arg.replace("{file}", str(path)) for arg in case["argv"]])


@pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
def test_cli_output_is_unchanged(case, tmp_path, capsys):
    code = _run(case, tmp_path)
    got = capsys.readouterr()
    if case["name"] in CHANGED:
        assert CHANGED[case["name"]](code, got.out, got.err)
    else:
        assert (code, got.out, got.err) == (case["code"], case["stdout"], case["stderr"])


def test_every_serialize_function_is_reached(monkeypatch, tmp_path):
    # serialize holds the command line's documents and nothing else: each of its public
    # functions runs for some golden request.  Calls between serialize functions go
    # through the module's globals, so they are counted too.
    called = set()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    public = [name for name, fn in vars(serialize).items()
              if inspect.isfunction(fn) and fn.__module__ == serialize.__name__
              and not name.startswith("_")]
    for name in public:
        monkeypatch.setattr(serialize, name, counted(name, getattr(serialize, name)))
    for case in GOLDEN:
        _run(case, tmp_path)
    assert len(public) >= 20
    assert sorted(set(public) - called) == []


def _readme_commands():
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("padicbuilding "):
                yield shlex.split(line)[1:]


def test_readme_commands_answer(capsys):
    commands = list(_readme_commands())
    assert len(commands) >= 4
    for argv in commands:
        assert main(argv) == 0, argv
        out, err = capsys.readouterr()
        assert err == "" and len(out.splitlines()) == 1
        assert json.loads(out)["ok"] is True
