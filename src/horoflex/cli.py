"""Command-line front end.

Exit codes: 0 when a certificate is granted or every check passes, 2 when
the verdict is any NotCovered variant or a check fails, 1 on errors of any
kind (bad input, rank cap, corrupted report).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Optional, Sequence

from .registry import list_examples, run_example
from .reporting import (
    TOOL_VERSION,
    build_check_report,
    build_ehm_report,
    build_grading_report,
    build_orbits_report,
    build_saturate_report,
    enforce_rank_cap,
    parse_spec,
    render_text,
    _envelope,
)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with code 1; code 2 is reserved for verdicts."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_spec(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        spec = parse_spec(fh.read())
    enforce_rank_cap(spec)
    return spec


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(value: Any, pad: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte.

    With ``indent`` set, ``json.dumps`` runs the pure-Python encoder; this
    builds the same text from the C string quoter and ``int``/``float``
    ``repr``, writing a list of plain ints with one join.  ``pad`` is the
    newline and indentation that precede the value's closing bracket.  Dict
    keys must be strings; a value other than a dict, list, tuple, str, int,
    float, bool or None raises ``TypeError``.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        body = [_quote(key) + ": " + _json(value[key], inner) for key in sorted(value)]
        return "{" + inner + ("," + inner).join(body) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        if all(type(x) is int for x in value):
            body = map(int.__repr__, value)
        else:
            body = [_json(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(body) + pad + "]"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _FLOAT_WORDS.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(report: dict[str, Any], fmt: str, elapsed_ms: float) -> None:
    """Print the report with its ``timing_ms``: JSON through ``_json``, or text."""
    report["timing_ms"] = round(elapsed_ms, 3)
    if fmt == "json":
        print(_json(report))
    else:
        print(render_text(report))


def _verdict_code(report: dict[str, Any]) -> int:
    if "verdict" in report:
        return 0 if report["verdict"]["status"] == "CertifiedFlexible" else 2
    if "all_ok" in report:
        return 0 if report["all_ok"] else 2
    return 0


def _run(args: argparse.Namespace) -> int:
    """Build the subcommand's report and print it.

    The certificate builders audit their reports before returning them, so
    a report that fails the audit raises here and is never printed.
    ``timing_ms`` covers loading the input, building and auditing.
    """
    start = time.perf_counter()
    report = args.build(args)
    _emit(report, args.format, (time.perf_counter() - start) * 1000)
    return _verdict_code(report)


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process on first use; each
    ``build`` default looks its builder up by name when it runs."""
    parser = _Parser(
        prog="horoflex",
        description=(
            "Flexibility certificates for affine varieties given by finitely"
            " generated weight semigroups."
        ),
    )
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="full verdict with per-orbit grading witnesses")
    p.add_argument("file", help="JSON datum file")
    _add_format(p)
    p.set_defaults(build=lambda a: build_check_report(_load_spec(a.file)))

    p = sub.add_parser("saturate", help="close the semigroup inside its cone")
    p.add_argument("file", help="JSON datum file")
    _add_format(p)
    p.set_defaults(build=lambda a: build_saturate_report(_load_spec(a.file)))

    p = sub.add_parser("orbits", help="face lattice with off-face generators")
    p.add_argument("file", help="JSON datum file")
    _add_format(p)
    p.set_defaults(build=lambda a: build_orbits_report(_load_spec(a.file)))

    p = sub.add_parser("grading", help="grading witness for one face")
    p.add_argument("file", help="JSON datum file")
    p.add_argument("--face", type=int, required=True, help="face index")
    _add_format(p)
    p.set_defaults(build=lambda a: build_grading_report(_load_spec(a.file), a.face))

    p = sub.add_parser("ehm", help="hypersurface family identity checks")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--bound", type=int, default=8, help="monomial degree bound")
    _add_format(p)
    p.set_defaults(build=lambda a: build_ehm_report(a.p, a.q, a.m, a.bound))

    p = sub.add_parser("examples", help="bundled example suite")
    esub = p.add_subparsers(dest="examples_command", required=True)
    e = esub.add_parser("list", help="list example names")
    _add_format(e)
    e.set_defaults(
        build=lambda a: _envelope("examples list", {"examples": list_examples()})
    )
    e = esub.add_parser("run", help="run one example")
    e.add_argument("name")
    _add_format(e)
    e.set_defaults(build=lambda a: run_example(a.name))

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; every call in a process shares one parser."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
