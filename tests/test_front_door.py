"""The command-line front door as a long-lived process sees it.

``cli.main`` builds its argparse tree once per process and every later call
reuses it.  These tests check that the tree is built once, that no state
crosses calls, that builders are still looked up by name when a command
runs, and that hostile datum files give one-line errors that leave the
process able to answer the next call.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import horoflex.cli as cli
import horoflex.registry as registry

VERONESE = {"torus_rank": 2, "dominant_rank": 0, "generators": [[1, 0], [1, 1], [1, 2]]}
CUSP = {"torus_rank": 1, "dominant_rank": 0, "generators": [[2], [3]]}
WIDE = {"torus_rank": 7, "dominant_rank": 0, "generators": [[1, 0, 0, 0, 0, 0, 0]]}


@pytest.fixture(scope="module")
def datums(tmp_path_factory):
    root = tmp_path_factory.mktemp("datums")
    paths = {}
    for name, payload in (("veronese", VERONESE), ("cusp", CUSP), ("wide", WIDE)):
        paths[name] = str(root / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    paths["hostile"] = str(root / "hostile.json")
    return paths


def _untimed(out):
    return re.sub(r'"timing_ms": [^,\n]*', '"timing_ms": 0', out)


def call(argv):
    """``cli.main(argv)`` with its exit code, timing-free stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, _untimed(out.getvalue()), err.getvalue()


def call_on_fresh_parser(argv):
    """As ``call``, but ``main`` builds a parser of its own for this call."""
    with mock.patch.object(cli, "build_parser", cli.build_parser.__wrapped__):
        return call(argv)


# Every subcommand, usage errors and failing commands; "@name" is a datum file.
CALLS = {
    "grading": ("grading", "@veronese", "--face", "3"),
    "grading-json": ("grading", "@veronese", "--face", "3", "--format", "json"),
    "check": ("check", "@veronese"),
    "check-json": ("check", "@veronese", "--format", "json"),
    "check-cusp": ("check", "@cusp", "--format", "json"),
    "saturate": ("saturate", "@cusp"),
    "orbits": ("orbits", "@veronese", "--format", "json"),
    "ehm": ("ehm", "--p", "1", "--q", "2", "--m", "1", "--format", "json"),
    "examples-list": ("examples", "list"),
    "examples-run": ("examples", "run", "plane", "--format", "json"),
    "examples-unknown": ("examples", "run", "nope"),
    "version": ("--version",),
    "usage-unknown-command": ("nonsense",),
    "usage-no-command": (),
    "usage-no-file": ("check",),
    "usage-no-face": ("grading", "@veronese"),
    "usage-bad-face": ("grading", "@veronese", "--face", "x"),
    "usage-bad-format": ("check", "@veronese", "--format", "xml"),
    "usage-no-example-command": ("examples",),
    "face-out-of-range": ("grading", "@veronese", "--face", "9"),
    "rank-cap": ("check", "@wide"),
}


def argv(key, paths):
    return tuple(paths[a[1:]] if a.startswith("@") else a for a in CALLS[key])


# ---------------------------------------------------------------------------
# one parser per process


def test_one_parser_per_process(datums, monkeypatch):
    built = []
    original = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    calls = [argv(key, datums) for key in CALLS]
    call(calls[0])
    after_first = len(built)
    for args in calls[1:] + calls[:1]:
        call(args)
    assert len(built) == after_first
    cli.build_parser.__wrapped__()  # the count does see a tree being built
    assert len(built) > after_first


def test_the_parser_is_not_built_at_import():
    # a fresh interpreter: importing the CLI builds no parser, the first main call does
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import contextlib, io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import horoflex.cli as cli\n"
        "before = cli.build_parser.cache_info().currsize\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['--version'])\n"
        "print(before, cli.build_parser.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-c", code, src], capture_output=True, text=True, check=True
    )
    assert proc.stdout.split() == ["0", "1"]


_REFERENCE = {}


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(list(CALLS)))
@example(order=["grading", "check", "usage-unknown-command", "check-json", "version",
                "examples-unknown", "grading-json", "usage-no-face", "check"])
def test_no_state_crosses_calls(datums, order):
    for key in order:
        if key not in _REFERENCE:
            _REFERENCE[key] = call_on_fresh_parser(argv(key, datums))
        assert call(argv(key, datums)) == _REFERENCE[key], key


def test_the_sequence_covers_every_outcome(datums):
    codes = {key: call(argv(key, datums))[0] for key in CALLS}
    assert {codes["check"], codes["version"], codes["examples-list"]} == {0}
    assert codes["check-cusp"] == 2
    assert all(codes[key] == 1 for key in codes if key.startswith("usage-"))
    assert codes["examples-unknown"] == codes["rank-cap"] == codes["face-out-of-range"] == 1


def test_builders_are_looked_up_after_the_parser_exists(datums, monkeypatch):
    # the tree already exists when the builders are rebound, as in a traced run
    assert call(("examples", "list"))[0] == 0
    parser = cli.build_parser()
    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("build_check_report", "build_grading_report", "build_ehm_report"):
        count(cli, name)
    count(registry, "build_danielewski_report")
    v = datums["veronese"]
    for args in (
        ("check", v),
        ("grading", v, "--face", "0"),
        ("ehm", "--p", "1", "--q", "2", "--m", "1"),
        ("examples", "run", "danielewski"),
    ):
        assert call(args)[0] == 0, args
    assert cli.build_parser() is parser
    assert calls == {
        "build_check_report": 1,
        "build_grading_report": 1,
        "build_ehm_report": 1,
        "build_danielewski_report": 1,
    }


# ---------------------------------------------------------------------------
# hostile datum files


def _dump(payload):
    return json.dumps(payload).encode("utf-8")


def _is_json(text):
    try:
        json.loads(text)
    except ValueError:
        return False
    return True


VALID_BYTES = _dump(VERONESE)
NEVER_UTF8 = st.sampled_from([b"\xff", b"\xfe", b"\xc0", b"\xc1", b"\xf8"])
DEPTH = st.integers(10**5 - 10, 10**5 + 10)
_SCALARS = (st.none(), st.booleans(), st.floats(), st.text(max_size=5),
            st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
NOT_INTS = st.one_of(*_SCALARS, st.lists(st.integers(), max_size=3))
NOT_LISTS = st.one_of(*_SCALARS, st.integers())
WRONG_RANKS = st.one_of(NOT_INTS, st.integers(max_value=-1))
# keys a datum file may not have: a newline, quotes, non-ASCII text
ODD_KEYS = ("x\ny", "\n", "\r\n", 'a"b', "it's", "f\u00e4rbe", "\u8272", "\u2028", "\x00")
FIELDS = ("torus_rank", "dominant_rank", "generators", "label")
UNKNOWN_KEYS = st.one_of(
    st.sampled_from(ODD_KEYS), st.text(max_size=6).filter(lambda k: k not in FIELDS)
)


def _with(field, value):
    return _dump(dict(VERONESE, **{field: value}))


def _nested(kind, depth):
    opening, closing = {"list": ("[", "]"), "object": ('{"a": ', "}")}[kind]
    return opening * depth + "1" + closing * depth


@st.composite
def _duplicate_keys(draw):
    pairs = [(key, json.dumps(value)) for key, value in VERONESE.items()]
    key, value = draw(st.sampled_from(pairs))
    again = draw(st.one_of(st.sampled_from([value, "0", "[]"]), st.text(max_size=3).map(json.dumps)))
    pairs.insert(draw(st.integers(0, len(pairs))), (key, again))
    return ("{" + ", ".join(f'"{k}": {v}' for k, v in pairs) + "}").encode("utf-8")


@st.composite
def _over_the_cap(draw):
    cap = draw(st.integers(1, 6))
    rank = draw(st.integers(cap + 1, cap + 4))
    dominant = draw(st.integers(0, rank))
    gens = draw(st.lists(st.lists(st.integers(0, 3), min_size=rank, max_size=rank), min_size=1, max_size=3))
    return cap, _dump({"torus_rank": rank - dominant, "dominant_rank": dominant, "generators": gens})


HOSTILE = st.one_of(
    # invalid JSON
    st.text(max_size=40).filter(lambda t: not _is_json(t)).map(lambda t: t.encode("utf-8")),
    st.integers(0, len(VALID_BYTES) - 1).map(lambda n: VALID_BYTES[:n]),
    # bytes that are not UTF-8
    st.tuples(st.binary(max_size=20), NEVER_UTF8, st.binary(max_size=20)).map(b"".join),
    st.tuples(st.integers(0, len(VALID_BYTES)), NEVER_UTF8).map(
        lambda t: VALID_BYTES[: t[0]] + t[1] + VALID_BYTES[t[0]:]
    ),
    # zero generators
    st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
        lambda r: _dump({"torus_rank": r[0], "dominant_rank": r[1], "generators": []})
    ),
    # wrong types, bool ranks included, and rows of the wrong length
    st.builds(_with, st.sampled_from(["torus_rank", "dominant_rank"]), WRONG_RANKS),
    st.builds(_with, st.just("generators"), NOT_LISTS),
    st.lists(NOT_LISTS, min_size=1, max_size=3).map(lambda rows: _with("generators", rows)),
    NOT_INTS.map(lambda x: _with("generators", [[1, 0], [1, x]])),
    st.lists(
        st.lists(st.integers(0, 2), max_size=4).filter(lambda row: len(row) != 2), min_size=1, max_size=3
    ).map(lambda rows: _with("generators", rows)),
    # duplicate keys, and unknown keys
    _duplicate_keys(),
    UNKNOWN_KEYS.map(lambda key: _dump(dict(VERONESE, **{key: 1}))),
    # about 10**5 nested brackets: closed, unclosed, and inside a field
    st.tuples(st.sampled_from(["list", "object"]), DEPTH).map(lambda t: _nested(*t).encode("utf-8")),
    DEPTH.map(lambda n: ("[" * n).encode("utf-8")),
    DEPTH.map(
        lambda n: ('{"torus_rank": 1, "dominant_rank": 0, "generators": ' + _nested("list", n) + "}").encode("utf-8")
    ),
)

COMMANDS = st.sampled_from([("check",), ("saturate",), ("orbits",), ("grading", "--face", "0")])


def _assert_one_line_error(outcome, what):
    code, out, err = outcome
    assert code == 1, what
    assert out == "", what
    assert err.startswith("error: ") and err.endswith("\n"), err
    assert err.count("\n") == 1, err
    assert "Traceback" not in err


def _assert_still_answers(datums):
    code, out, err = call(("check", datums["veronese"], "--format", "json"))
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"]["status"] == "CertifiedFlexible"


@settings(max_examples=200, deadline=None)
@given(HOSTILE, COMMANDS)
@example(b"\xff", ("check",))
@example(b"", ("check",))
@example(_dump(dict(VERONESE, generators=[])), ("check",))
@example(_with("torus_rank", True), ("check",))
@example(b'{"torus_rank": 2, "torus_rank": 2, "dominant_rank": 0, "generators": [[1, 0]]}', ("orbits",))
@example(("[" * 10**5 + "]" * 10**5).encode("utf-8"), ("check",))
def test_hostile_datum_files_give_one_line_errors(datums, content, command):
    path = datums["hostile"]
    with open(path, "wb") as fh:
        fh.write(content)
    _assert_one_line_error(call((command[0], path) + command[1:]), content[:80])
    _assert_still_answers(datums)


@pytest.mark.parametrize("key", ODD_KEYS)
def test_unknown_keys_are_quoted(datums, key):
    # each unknown key is printed as its repr, so the error stays on one line
    path = datums["hostile"]
    with open(path, "wb") as fh:
        fh.write(_dump(dict(VERONESE, **{key: 1, "zz": 2})))
    outcome = call(("check", path))
    _assert_one_line_error(outcome, key)
    quoted = ", ".join(map(repr, sorted([key, "zz"])))
    assert outcome[2] == f"error: unknown fields: {quoted}\n"
    _assert_still_answers(datums)


@settings(max_examples=50, deadline=None)
@given(_over_the_cap(), COMMANDS)
def test_ranks_over_the_cap_give_one_line_errors(datums, over, command):
    cap, content = over
    path = datums["hostile"]
    with open(path, "wb") as fh:
        fh.write(content)
    with mock.patch.dict(os.environ, {"HOROFLEX_MAX_RANK": str(cap)}):
        outcome = call((command[0], path) + command[1:])
    _assert_one_line_error(outcome, content)
    assert f"HOROFLEX_MAX_RANK={cap}" in outcome[2]
    _assert_still_answers(datums)
