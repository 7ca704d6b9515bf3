"""Benchmark of horoflex: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports horoflex from ./src.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, with ``--trace 1`` one with the per-layer metrics (see
README.md).  Scratch files go to ./.perfbench/ and are removed at exit; span
files of traced runs are kept in ./.perfbench-out/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import calibrate, checks, workloads  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402

# A single op slower than this fails (the run must end within 180 s).
OP_LIMIT_S = 60.0
TRACED_OP_LIMIT_S = 90.0
# Fresh interpreters timed for setup_s; the first one, which compiles
# bytecode, is not counted.
SETUP_SAMPLES = 15
# Seconds of session clock between two speed probes.
PROBE_EVERY_S = 0.1
# Rounds generated per run; the loop starts over if a faster program
# finishes them all.
ROUNDS = {"certify": 400, "orbits": 40, "identities": 800}
# Approximate seconds per round at the seed commit, to size the traced pass
# to about a third of --seconds; it only sets the amount of work.
ROUND_SECONDS = {"certify": 0.5, "orbits": 3.0, "identities": 0.2}

HOROFLEX_MODULES = (
    "horoflex", "horoflex.lattice", "horoflex.semigroup", "horoflex.poly",
    "horoflex.actions", "horoflex.ehm", "horoflex.danielewski",
    "horoflex.reporting", "horoflex.registry", "horoflex.cli",
)


def layer_metrics() -> list[tuple[str, str]]:
    """Names and units of the per-layer metrics, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


TIMED_OUT = object()


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; BaseException so cli.main cannot swallow it."""


class StopRun(Exception):
    """The measured loop has reached its deadline."""


def _alarm(signum, frame):
    raise OpTimeout()


class Session:
    """One closed-loop client.

    It runs ops one after another and checks each op's output after the op's
    timing stops.  Time spent checking, and in the speed probe between ops,
    is kept off the session clock, so the deadline and the throughput cover
    ops and client work only.  Outputs are dropped once checked, so memory
    does not grow with the number of ops.
    """

    def __init__(self, workload, limit_s: float, seconds: Optional[float] = None,
                 tracer: Optional[Tracer] = None, digest: bool = False):
        self.workload = workload
        self.limit_s = limit_s
        self.seconds = seconds
        self.tracer = tracer
        self.digest = checks.Digest() if digest else None
        self.ms: list[float] = []
        self.op_ends: list[float] = []  # session clock at the end of each op
        self.probes: list[tuple[float, float]] = []  # (clock, probe seconds)
        self.failed: list[str] = []
        self.timed_out = 0
        self.item_ends: list[tuple[float, int]] = []  # (clock, ops done) per item
        self._checking = 0.0
        self._start = time.perf_counter()

    def clock(self) -> float:
        return time.perf_counter() - self._start - self._checking

    def _run(self, fn: Callable[[], Any]) -> tuple[Any, Optional[str]]:
        if self.seconds is not None and self.clock() >= self.seconds:
            raise StopRun()
        if self.tracer is not None:
            self.tracer.op_id = len(self.ms)
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        start = time.perf_counter()
        try:
            result, error = fn(), None
        except OpTimeout:
            result, error = TIMED_OUT, f"over the {self.limit_s:g} s op limit"
            self.timed_out += 1
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = (time.perf_counter() - start) * 1000
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.ms.append(elapsed)
        self.op_ends.append(self.clock())
        return result, error

    def _finish(self, record: dict[str, Any]) -> None:
        start = time.perf_counter()
        problems = [record["error"]] if record["error"] else []
        problems += self.workload.check(record)
        if problems:
            self.failed.append(f"op {record['op']} item {record['item']}: " + "; ".join(problems))
        if self.digest is not None:
            self.digest.add(record)
        if not self.probes or self.clock() - self.probes[-1][0] >= PROBE_EVERY_S:
            self.probes.append((self.clock(), calibrate.probe()))
        self._checking += time.perf_counter() - start

    def cli(self, op: str, argv: list[str], **context: Any) -> dict[str, Any]:
        """Run ``horoflex.cli.main(argv)`` in-process with its output captured."""
        import horoflex.cli
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return horoflex.cli.main(argv)

        rc, error = self._run(call)
        record = {"op": op, "rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                  "error": error, **context}
        self._finish(record)
        return record

    def call(self, op: str, fn: Callable[[], Any], **context: Any) -> dict[str, Any]:
        """Time a library call sequence; its outcome is checked like a report."""
        outcome, error = self._run(fn)
        record = {"op": op, "rc": 0 if error is None else 1, "out": "", "err": "",
                  "outcome": outcome, "error": error, **context}
        self._finish(record)
        return record


# ---------------------------------------------------------------------------
# workloads: set-up, one item, output check


def _report(record: dict[str, Any]) -> Optional[dict[str, Any]]:
    if record["error"] is not None:
        return None
    try:
        return json.loads(record["out"])
    except ValueError:
        return None


class Certify:
    """check; on NotCovered_NotNormal also saturate, then check the closure."""

    window = 3 * len(workloads.CERTIFY_ROUND)

    def __init__(self, seed: int, workdir: Path, rounds: int):
        self.items = workloads.certify_datums(seed, rounds)
        self.per_round = self.warmup_items = len(workloads.CERTIFY_ROUND)
        self.workdir = workdir
        for i, item in enumerate(self.items):
            item["file"] = str(workdir / f"d{i}.json")
            Path(item["file"]).write_text(json.dumps(item["spec"]), encoding="utf-8")

    def run_item(self, session: Session, i: int) -> None:
        item = self.items[i]
        first = session.cli("check", ["check", item["file"], "--format", "json"], item=i)
        report = _report(first)
        if report is None or report.get("verdict", {}).get("status") != checks.NOT_NORMAL:
            return
        sat = session.cli("saturate", ["saturate", item["file"], "--format", "json"], item=i)
        closed = _report(sat)
        if closed is None or "saturated_datum" not in closed:
            return
        path = self.workdir / f"c{i}.json"
        path.write_text(json.dumps(closed["saturated_datum"]), encoding="utf-8")
        session.cli("check_closure", ["check", str(path), "--format", "json"], item=i)

    def check(self, rec: dict[str, Any]) -> list[str]:
        item = self.items[rec["item"]]
        report, problems = checks.parse_report(rec)
        if report is None:
            return problems
        expected = 0
        if rec["op"] == "check":
            expected = 0 if report["verdict"]["status"] == checks.CERTIFIED else 2
            problems = checks.check_report_problems(report, item["spec"], item["line"])
        elif rec["op"] == "saturate":
            problems = checks.saturate_problems(report, item["spec"])
        elif report["verdict"]["status"] != checks.CERTIFIED:
            problems = [f"closure checks as {report['verdict']['status']}, not saturated"]
        else:
            problems = checks.check_report_problems(report, report["input"], line=False)
        if rec["rc"] != expected:
            problems.append(f"{rec['op']} exited {rec['rc']}, expected {expected}")
        return problems


class Orbits:
    """orbits, then grading --face N for every face N of the datum."""

    window = len(workloads.ORBITS_ROUND)

    def __init__(self, seed: int, workdir: Path, rounds: int):
        self.items = workloads.orbits_datums(seed, rounds)
        self.per_round = len(workloads.ORBITS_ROUND)
        self.warmup_items = 4
        self._orbits: tuple[int, Optional[dict[str, Any]]] = (-1, None)
        for i, item in enumerate(self.items):
            item["file"] = str(workdir / f"o{i}.json")
            Path(item["file"]).write_text(json.dumps(item["spec"]), encoding="utf-8")

    def run_item(self, session: Session, i: int) -> None:
        item = self.items[i]
        rec = session.cli("orbits", ["orbits", item["file"], "--format", "json"], item=i)
        report = _report(rec)
        if report is None or not isinstance(report.get("face_count"), int):
            return
        for face in range(report["face_count"]):
            session.cli("grading", ["grading", item["file"], "--face", str(face),
                                    "--format", "json"], item=i, face=face)

    def check(self, rec: dict[str, Any]) -> list[str]:
        item = self.items[rec["item"]]
        report, problems = checks.parse_report(rec)
        if report is None:
            return problems
        if rec["op"] == "orbits":
            self._orbits = (rec["item"], report)
            problems = checks.orbits_problems(report, item["spec"])
        else:
            seen, orbits = self._orbits
            problems = checks.grading_problems(
                report, item["spec"], rec["face"], orbits if seen == rec["item"] else None)
        if rec["rc"] != 0:
            problems.append(f"{rec['op']} exited {rec['rc']}")
        return problems


def run_flow(images: dict[str, list]) -> dict[str, Any]:
    """is_locally_nilpotent_bounded, exp_lnd three times, compose, compare."""
    from horoflex import poly
    names = sorted(images)
    d = poly.Derivation({v: poly.Polynomial(names, dict(terms)) for v, terms in images.items()})
    bound = 64
    nilpotent = poly.is_locally_nilpotent_bounded(d, bound).certified
    first = poly.exp_lnd(d, "t", bound)
    second = poly.exp_lnd(d, "s", bound)
    combined = poly.exp_lnd(d, "u", bound)
    composed = poly.compose_substitutions(second, first)
    shift = {"u": poly.variable("s") + poly.variable("t")}
    expected = {v: img.substitute(shift) for v, img in combined.items()}
    law = all(composed[v] == expected[v] for v in expected)
    return {"nilpotent": nilpotent, "law": law, "composed": composed, "expected": expected}


class Identities:
    """ehm and danielewski through the CLI; derivation flows through the library."""

    window = 12 * len(workloads.IDENTITIES_ROUND)

    def __init__(self, seed: int, workdir: Path, rounds: int):
        self.items = workloads.identities_ops(seed, rounds)
        self.per_round = self.warmup_items = len(workloads.IDENTITIES_ROUND)
        rng = random.Random(f"identities-points:{seed}")
        self.points = [
            {v: rng.randint(-3, 3) for v in ("s", "t", "x1", "x2", "x3", "x4", "x5")}
            for _ in self.items
        ]

    def run_item(self, session: Session, i: int) -> None:
        item = self.items[i]
        if item[0] == "ehm":
            _, p, q, m, bound = item
            session.cli("ehm", ["ehm", "--p", str(p), "--q", str(q), "--m", str(m),
                                "--bound", str(bound), "--format", "json"], item=i)
        elif item[0] == "danielewski":
            session.cli("danielewski", ["examples", "run", "danielewski", "--format", "json"],
                        item=i)
        else:
            session.call("flow", lambda: run_flow(item[1]), item=i)

    def check(self, rec: dict[str, Any]) -> list[str]:
        item = self.items[rec["item"]]
        if rec["op"] == "flow":
            if rec["error"]:
                return []
            return checks.flow_problems(rec["outcome"], self.points[rec["item"]])
        report, problems = checks.parse_report(rec)
        if report is None:
            return problems
        if rec["op"] == "ehm":
            problems = checks.ehm_problems(report, *item[1:])
        else:
            problems = checks.danielewski_problems(report)
        if rec["rc"] != 0:
            problems.append(f"{rec['op']} exited {rec['rc']}")
        return problems


WORKLOADS = {"certify": Certify, "orbits": Orbits, "identities": Identities}


# ---------------------------------------------------------------------------
# measurement


def run_loop(workload, session: Session, start: int = 0, count: Optional[int] = None) -> None:
    """Run items in order from ``start`` until the session's deadline, or
    until ``count`` items are done; past the last item, start over."""
    n = len(workload.items)
    done = 0
    while count is None or done < count:
        try:
            workload.run_item(session, (start + done) % n)
        except StopRun:
            return
        done += 1
        session.item_ends.append((session.clock(), len(session.ms)))


def window_rates(item_ends: list[tuple[float, int]], size: int) -> list[float]:
    """Ops per second in each complete window of ``size`` consecutive items."""
    marks = [(0.0, 0)] + item_ends[size - 1::size]
    return [(b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(marks, marks[1:])]


# Run as `python -c` with the source and benchmark roots as arguments.  The
# probe runs after the timed import, so that it loads nothing the import
# would otherwise pay for.
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "sys.stderr.write('perfbench-start\\n')\n"
    "t = time.perf_counter()\n"
    "import horoflex.cli\n"
    "horoflex.cli.build_parser()\n"
    "elapsed = time.perf_counter() - t\n"
    "sys.stderr.write('perfbench-end\\n')\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from perfbench.calibrate import probe, speed\n"
    "print(elapsed, speed([probe() for _ in range(9)]))\n"
)


def setup_samples(importtime: bool) -> list[tuple[float, float, str]]:
    """Fresh interpreters that import horoflex.cli and build the parser.

    Each gives (seconds, machine speed, stderr); the first one, which
    compiles bytecode, is dropped.
    """
    cmd = [sys.executable, "-E", "-s"] + (["-X", "importtime"] if importtime else [])
    cmd += ["-c", SETUP_CODE, str(SRC), str(ROOT)]
    out = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-400:]}")
        if i:
            seconds, speed = map(float, proc.stdout.split())
            out.append((seconds, speed, proc.stderr))
    return out


def import_self_ms(stderr: str) -> dict[str, float]:
    """Self import time per horoflex module, from ``-X importtime`` output."""
    times = {m: 0.0 for m in HOROFLEX_MODULES}
    times["other"] = 0.0
    lines = stderr.split("perfbench-start\n", 1)[-1].split("perfbench-end\n", 1)[0].splitlines()
    for line in lines:
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        times[name if name in times else "other"] += int(self_us) / 1000
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def window_speeds(session: Session, size: int) -> tuple[list[float], list[float]]:
    """Machine speed (see calibrate) in each window of ``size`` items, from
    the probes taken in it, and the speed that applies to each op.  The last
    entry is the part after the last whole window."""
    cuts = [t for t, _ in session.item_ends[size - 1::size]]
    edges = [0.0] + cuts + [float("inf")]
    everywhere = calibrate.speed([p for _, p in session.probes])
    windows = []
    for lo, hi in zip(edges, edges[1:]):
        samples = [p for t, p in session.probes if lo <= t < hi]
        windows.append(calibrate.speed(samples) if samples else everywhere)
    return windows, [windows[bisect.bisect_left(cuts, t)] for t in session.op_ends]


def measure(workload, seconds: int) -> tuple[dict[str, tuple[float, str]], list[Session], Session]:
    setup = setup_samples(importtime=False)
    # the first items always run in full, untimed, so that the digest covers
    # the same ops on every run; the measured loop goes on from there
    warm = Session(workload, OP_LIMIT_S, digest=True)
    run_loop(workload, warm, count=workload.warmup_items)
    session = Session(workload, OP_LIMIT_S, seconds=seconds)
    run_loop(workload, session, start=workload.warmup_items)
    wall = session.clock()
    completed = len(session.ms) - session.timed_out
    # Throughput is the median over windows of whole rounds, so that a burst
    # of load moves it less than a mean over the run would.  Every timing is
    # scaled to the reference machine speed measured next to it.
    window_speed, op_speed = window_speeds(session, workload.window)
    lat = [ms * s for ms, s in zip(session.ms, op_speed)]
    raw_rates = window_rates(session.item_ends, workload.window) or [completed / wall]
    rates = [r / s for r, s in zip(raw_rates, window_speed)]
    metrics = {
        "setup_s": (statistics.median(t * s for t, s, _ in setup), "s"),
        "ops_per_s": (statistics.median(rates), "ops/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p90_ms": (percentile(lat, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    beyond = sum(1 for x in lat if x > metrics["op_p90_ms"][0])
    print(f"measured {len(lat)} ops in {wall:.2f} s over {len(rates)} windows; "
          f"{beyond} ops above op_p90_ms")
    print(f"machine speed {statistics.median(op_speed):.3f} of reference; unscaled: "
          f"setup_s {statistics.median(t for t, _, _ in setup):.6g} "
          f"ops_per_s {statistics.median(raw_rates):.6g} "
          f"op_p50_ms {statistics.median(session.ms):.6g} "
          f"op_p90_ms {percentile(session.ms, 90):.6g}")
    return metrics, [warm, session], warm


def measure_traced(workload, seconds: int, name: str, seed: int) -> tuple[dict[str, tuple[float, str]], list[Session], Session]:
    rounds = max(1, round(seconds / ROUND_SECONDS[name] / 3))
    count = rounds * workload.per_round
    plain = Session(workload, OP_LIMIT_S)
    run_loop(workload, plain, count=count)
    plain_rate = len(plain.ms) / plain.clock() / calibrate.speed([p for _, p in plain.probes])
    tracer = Tracer()
    traced = Session(workload, TRACED_OP_LIMIT_S, tracer=tracer, digest=True)
    with tracer:
        run_loop(workload, traced, count=count)
        traced_rate = len(traced.ms) / traced.clock()
    traced_rate /= calibrate.speed([p for _, p in traced.probes])
    layers = tracer.summary()
    samples = [import_self_ms(err) for _, _, err in setup_samples(importtime=True)]
    for module in samples[0]:
        layers[f"import.{module}.self_ms"] = statistics.median(s[module] for s in samples)
    layers["trace.overhead_ratio"] = traced_rate / plain_rate
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{name}-seed{seed}.csv.gz")
    metrics = {key: (layers[key], unit) for key, unit in layer_metrics()}
    print(f"traced {len(traced.ms)} ops ({rounds} rounds); spans: {len(tracer.start)}")
    return metrics, [plain, traced], traced


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "horoflex" / "cli.py").is_file():
        print(f"error: no horoflex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import horoflex.cli
    if Path(horoflex.cli.__file__).resolve().parent != SRC / "horoflex":
        print(f"error: imported horoflex from {horoflex.cli.__file__}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, ROUNDS[args.workload])
        if args.trace:
            metrics, sessions, digested = measure_traced(
                workload, args.seconds, args.workload, args.seed)
        else:
            metrics, sessions, digested = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".perfbench").rmdir()

    attempted = sum(len(s.ms) for s in sessions)
    failed = [line for s in sessions for line in s.failed]
    for line in failed[:20]:
        print("FAILED " + line)
    print(f"digest {digested.digest.hexdigest()} over {len(digested.ms)} ops")
    print(f"failed_ratio {len(failed) / attempted:.6f} ({len(failed)}/{attempted})")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
