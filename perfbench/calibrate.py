"""Machine-speed probe, for timings at a fixed reference speed.

The benchmark shares its cores with other tenants, and their load can slow
every op of a run by tens of percent at once (a whole 25 s run was measured
35-100% slower than the next one, with the same seed).  A short probe of the
same kind of work as horoflex (Fraction arithmetic, tuples, dicts) is timed
between ops.  Each timing is then scaled by ``REFERENCE_PROBE_S / probe``, the
ratio of the reference probe time to the probe time measured next to it.  A
slower program still reads slower; a slower machine does not.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction

# Median probe time on the machine the baseline was measured on (2 vCPUs,
# Python 3.11.7, idle); only the scale of the reported timings depends on it.
REFERENCE_PROBE_S = 0.0012


def probe() -> float:
    """Seconds taken by a fixed piece of interpreter work (about 1.2 ms):
    Fraction arithmetic, tuples and dicts, as in the cone code, and a small
    JSON round trip, as in the reports."""
    start = time.perf_counter()
    total = Fraction(0)
    seen: dict[tuple[int, ...], int] = {}
    for i in range(1, 250):
        total += Fraction(i % 7 + 1, i % 5 + 1)
        key = tuple(j * i % 11 for j in range(4))
        seen[key] = seen.get(key, 0) + 1
    rows = [[i, -i, i * i, str(total)] for i in range(120)]
    json.loads(json.dumps({"rows": rows, "seen": len(seen)}, sort_keys=True, indent=2))
    return time.perf_counter() - start


def speed(samples: list[float]) -> float:
    """How fast the machine ran relative to the reference (1.0 = reference)."""
    return REFERENCE_PROBE_S / statistics.median(samples)
