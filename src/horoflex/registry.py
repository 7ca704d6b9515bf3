"""Named example suite: one-command reproduction of each worked case.

Every entry returns a deterministic report dictionary; timing is added only
at the command-line boundary so repeated runs are byte-identical.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .reporting import (
    DatumSpec,
    SpecError,
    build_check_report,
    build_danielewski_report,
    build_ehm_report,
)
from .semigroup import HorosphericalDatum

_CHECK_EXAMPLES: dict[str, DatumSpec] = {
    "cusp": DatumSpec(1, 0, ((2,), (3,)), "cusp"),
    "plane": DatumSpec(2, 0, ((1, 0), (0, 1)), "plane"),
    "veronese": DatumSpec(2, 0, ((1, 0), (1, 1), (1, 2)), "veronese"),
}


def _ehm(p: int, q: int, m: int) -> Callable[[], dict[str, Any]]:
    name = f"ehm-{p}-{q}-{m}"

    def build() -> dict[str, Any]:
        report = build_ehm_report(p, q, m, command=f"examples run {name}")
        report["name"] = name
        return report

    return build


_POLYNOMIAL_EXAMPLES: dict[str, Callable[[], dict[str, Any]]] = {
    "danielewski": build_danielewski_report,
    "ehm-1-2-1": _ehm(1, 2, 1),
    "ehm-2-3-4": _ehm(2, 3, 4),
}


def list_examples() -> list[str]:
    return sorted([*_CHECK_EXAMPLES, *_POLYNOMIAL_EXAMPLES])


def build_example(name: str) -> tuple[dict[str, Any], Optional[HorosphericalDatum]]:
    """The example's report and the datum it was built from (None if it has none)."""
    spec = _CHECK_EXAMPLES.get(name)
    if spec is not None:
        datum = spec.to_datum()
        report = build_check_report(spec, command=f"examples run {name}", datum=datum)
        report["name"] = name
        return report, datum
    try:
        build = _POLYNOMIAL_EXAMPLES[name]
    except KeyError:
        raise SpecError(
            f"unknown example {name!r}; available: " + ", ".join(list_examples())
        ) from None
    return build(), None


def run_example(name: str) -> dict[str, Any]:
    return build_example(name)[0]
