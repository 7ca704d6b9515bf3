"""Named example suite: one-command reproduction of each worked case.

``run_example`` builds an example's report afresh on every run (a check
example's DatumSpec, and with it its cone data, lives for that run only)
and stamps it with the command that reproduces it and the example's name.
Reports are deterministic; timing is added only at the command-line
boundary so repeated runs are byte-identical.
"""

from __future__ import annotations

from typing import Any, Callable

from .reporting import (
    DatumSpec,
    SpecError,
    build_check_report,
    build_danielewski_report,
    build_ehm_report,
)

_EXAMPLES: dict[str, Callable[[], dict[str, Any]]] = {
    "cusp": lambda: build_check_report(DatumSpec(1, 0, ((2,), (3,)), "cusp")),
    "danielewski": lambda: build_danielewski_report(),  # looked up per run, as the others
    "ehm-1-2-1": lambda: build_ehm_report(1, 2, 1),
    "ehm-2-3-4": lambda: build_ehm_report(2, 3, 4),
    "plane": lambda: build_check_report(DatumSpec(2, 0, ((1, 0), (0, 1)), "plane")),
    "veronese": lambda: build_check_report(
        DatumSpec(2, 0, ((1, 0), (1, 1), (1, 2)), "veronese")
    ),
}


def list_examples() -> list[str]:
    return sorted(_EXAMPLES)


def run_example(name: str) -> dict[str, Any]:
    """The report of ``horoflex examples run NAME``; check examples are audited."""
    try:
        build = _EXAMPLES[name]
    except KeyError:
        raise SpecError(
            f"unknown example {name!r}; available: " + ", ".join(list_examples())
        ) from None
    report = build()
    report["command"] = f"examples run {name}"
    report["name"] = name
    return report
