"""Benchmark of the ``huaops`` CLI: end-to-end metrics or a traced layer split.

Usage (from the root of the repository)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of ``huaops`` requests.  Every request runs in a
fresh child process (``PYTHONPATH=src``), one at a time from this process:
a closed loop with one client.  Every request is scored against its known
answer (exit status, verdict, and the sha256 of its canonical JSON as the
seed commit prints it); a miss counts as failed.  The seed only draws the
rational ``--bind`` values of the known-defect probe of ``roundtrip``.

``--trace 0`` repeats the workload while another pass is predicted to end
within ``--seconds`` (at least one pass) and reports medians over passes;
a start-up of the CLI is timed before every request (at least
``SETUP_PROBES`` in all) and ``setup_s`` is their median.  ``--trace 1``
runs one plain pass and one pass under ``perfbench/tracer.py`` and reports
the per-layer split.  ``roundtrip`` then runs its known-defect probe once,
outside the timed and scored requests, and prints whether the defect shows.
Metric lines come first; the last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_BUDGET_S = 170.0
SETUP_PROBES = 11
LAYERS = ("cli", "liedata", "minpoly", "matop", "pbw", "params", "reduce",
          "cfun")
WORKLOADS = ("theorem", "lemma", "kernel", "roundtrip")
DRIVERS = ("reduce.gl_lemma_check", "reduce.hua_sp_system",
           "reduce.upq_shilov_identity", "reduce.upq_theorem_case",
           "reduce.upq_scalar_recursion")


class BudgetExceeded(Exception):
    """The run would not end within ``RUN_BUDGET_S``."""


# ---------------------------------------------------------------------------
# requests and their known answers
# ---------------------------------------------------------------------------

@dataclass
class Request:
    """One CLI call; ``{tmp}`` in ``args`` is the run's scratch directory.

    The canonical JSON is read from ``out`` (a file in ``{tmp}``) if set,
    otherwise from standard output.  ``digest`` pins its sha256 and
    ``verdict`` checks the parsed report.
    """

    args: str
    status: int
    digest: Optional[str] = None
    verdict: Optional[Callable[[dict], bool]] = None
    out: Optional[str] = None


def passed(report: dict) -> bool:
    return report["pass"] is True


def failed_with(total: int, nonzero: int) -> Callable[[dict], bool]:
    def verdict(report: dict) -> bool:
        checks = report["checks"]
        return (report["pass"] is False and len(checks) == total
                and sum(not c["pass"] for c in checks) == nonzero)
    return verdict


def all_zero(report: dict) -> bool:
    return report["allZero"] is True


SETUP = Request("degrees --diagram A_n^1 --n 4 --json", 0,
                "d37d4d6de53dd1ac5b5bd90edab9dd914cd8380fa4b6df356457684b6c198106",
                lambda report: report["degrees"] == [2, 2, 2, 2])


def _export(args: str, name: str, digest: str) -> Request:
    return Request(f"ideal {args} --out {{tmp}}/{name}", 0, digest, out=name)


def _roundtrip(upq: Tuple[str, str], spnr: Tuple[str, str],
               reduced: Tuple[str, str, str]) -> List[Request]:
    """Export two generator sets, then export one more and reduce it.

    Membership holds for every parameter value, so ``reduce`` must report
    ``allZero``.
    """
    form, export_digest, reduce_digest = reduced
    return [
        _export(f"--form upq {upq[0]} --restrict-columns", "upq.json", upq[1]),
        _export(f"--form spnr {spnr[0]}", "spnr.json", spnr[1]),
        _export(f"--form upq {form} --restrict-columns", "set.json",
                export_digest),
        Request(f"reduce --form upq {form} --in {{tmp}}/set.json --json", 0,
                reduce_digest, all_zero),
    ]


def known_defect(seed: int, small: bool = False) -> Request:
    """The bound ``reduce`` of ``roundtrip``'s last set: a known defect.

    Membership holds for every parameter value, so the answer is
    ``allZero``.  At the seed commit it is not: ``cli._cmd_reduce``
    substitutes the bindings into the element but not into
    ``upq_reduction_spec``, whose k- and a-assignments stay symbolic.  The
    request runs once per ``roundtrip`` run, after the scored ones, and its
    outcome is printed; it is neither timed nor scored, because every
    scored request of a workload must succeed.
    """
    rng = random.Random(seed)

    def rational() -> str:
        return str(Fraction(rng.choice([n for n in range(-9, 10) if n]),
                            rng.randint(1, 5)))

    form = "--p 2 --q 1 --blocks 1" if small else "--p 2 --q 2 --blocks 1,2"
    bind = f"--bind mu_1={rational()} --bind t={rational()}"
    return Request(f"reduce --form upq {form} --in {{tmp}}/set.json {bind} "
                   "--json", 0, None, all_zero)


def workload(name: str, small: bool = False) -> List[Request]:
    """The requests of one workload; ``small`` gives the smoke-test sizes."""
    if small:
        table = {
            "theorem": [
                Request("verify upq-theorem --p 2 --q 1 --blocks 1 --json", 0,
                        "a10264ac7aecd883a211576c12a13a42220d73f5d0a708e3126f5a737122266a",
                        passed),
                Request("verify upq-theorem --p 2 --q 1 --blocks 1 --perturb --json", 1,
                        "b55879d75e7624dbb8909a2df7cab7359eb67f332cb679d63bda8895c55dd440",
                        failed_with(3, 2)),
            ],
            "lemma": [
                Request("verify gl-lemma --n 2 --m 2 --json", 0,
                        "b5255eab04f2373f5ae0d15d20d98dd22c634c18f7fa31be363477a3247ff9a2",
                        passed),
            ],
            "kernel": [
                Request("verify upq-recursion --p 2 --q 1 --blocks 1 --kernel --json", 0,
                        "161a70b091d2fcbbce1be60d3ae11d1beed2cc30629af0c15079e6dd695b36a0",
                        passed),
            ],
            "roundtrip": _roundtrip(
                ("--p 2 --q 1 --blocks 1",
                 "f6c01c3d1b745d64913b1f35d03f0b12e32124dad5e310787ac4a2a630ae4e9f"),
                ("--n 2 --blocks 1,2",
                 "d11e959a607301809bce59cf339673c3607c0568cced62bcd085fbb9f03cc672"),
                ("--p 2 --q 1 --blocks 1",
                 "f6c01c3d1b745d64913b1f35d03f0b12e32124dad5e310787ac4a2a630ae4e9f",
                 "5daa7ab303c99a90aa8553755669562ec1b07ceb40fa59dbe096698bf652b10b")),
        }
    else:
        table = {
            "theorem": [
                Request("verify upq-theorem --p 3 --q 2 --blocks 1,2 --json", 0,
                        "7bd44fa21aeadb0f788e1c032d84d7d5b6adbd8085e29479fdffb4e96e135348",
                        passed),
                Request("verify upq-theorem --p 2 --q 2 --blocks 1,2 --perturb --json", 1,
                        "5bfa5d4da89baca3d4592f572ecca03f747951ef0f4d262435384ae7f1df52c2",
                        failed_with(16, 8)),
            ],
            "lemma": [
                Request("verify gl-lemma --n 4 --m 4 --json", 0,
                        "428c6fc97c4459e08a96e4bb1ad0daaf0c8260b0dc9c92a37b016f213051231f",
                        passed),
            ],
            "kernel": [
                Request("verify upq-recursion --p 3 --q 2 --blocks 1,2 --kernel --json", 0,
                        "87b83f93a2f11c9c1896df5fedb29be4a237270182fce853f0e7ffc722fce659",
                        passed),
                Request("verify upq-recursion --p 4 --q 2 --blocks 1,2 --kernel --json", 0,
                        "e30a1de6e5f3a051f8ec132ca8fab0e0e9db80261f74f233e08bad1d87bc3850",
                        passed),
            ],
            "roundtrip": _roundtrip(
                ("--p 3 --q 2 --blocks 1,2",
                 "b1b5a234cd1602d4da4b3c0744ccfc1c84799dd01efdb3c8209f97a4afcaef04"),
                ("--n 3 --blocks 1,3",
                 "b2eb617a2316ff1217c1a80148d19656e887a893e52d0d22a93e550e039923e8"),
                ("--p 2 --q 2 --blocks 1,2",
                 "aa2198f2496e1d5da9d29f36d05a6a702429d2c3cc124d6794be4e47e0bf2dcb",
                 "73daf703197ec55472d9783ba3c06ca01efe7423f20926d12a06ef7d38471ffc")),
        }
    return table[name]


# ---------------------------------------------------------------------------
# running and scoring
# ---------------------------------------------------------------------------

class Runner:
    """Runs requests one at a time in fresh children and scores each one."""

    def __init__(self, tmp: str, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.attempted = 0
        self.missed: List[Request] = []
        self.env = dict(os.environ, PYTHONPATH="src",
                        PYTHONDONTWRITEBYTECODE="1")

    def call(self, request: Request, trace_file: Optional[str] = None
             ) -> Tuple[float, float]:
        """Run and score one request; returns its (wall, cpu) seconds."""
        wall, cpu, ok = self.spawn(request, trace_file, "miss")
        self.attempted += 1
        if not ok:
            self.missed.append(request)
        return wall, cpu

    def spawn(self, request: Request, trace_file: Optional[str],
              label: str) -> Tuple[float, float, bool]:
        """Run one request: its (wall, cpu) seconds and whether it is right.

        A wrong answer is reported on stderr under ``label``.
        """
        argv = request.args.format(tmp=self.tmp).split()
        if trace_file is None:
            command = [sys.executable, "-m", "huaops.cli", *argv]
        else:
            command = [sys.executable, str(HERE / "tracer.py"), trace_file,
                       *argv]
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BudgetExceeded(f"no time left for {request.args!r}")
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, env=self.env,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BudgetExceeded(f"{request.args!r} did not end in time")
            except BaseException:  # interrupted: end the child, then re-raise
                proc.kill()
                raise
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime
               + after.ru_stime - before.ru_stime)
        ok = self.score(request, proc.returncode, stdout)
        if not ok:
            tail = stderr.decode(errors="replace").strip()[-300:]
            print(f"{label}: exit {proc.returncode}: huaops {' '.join(argv)} "
                  f"{tail}", file=sys.stderr)
        return wall, cpu, ok

    def score(self, request: Request, status: int, stdout: bytes) -> bool:
        if status != request.status:
            return False
        try:
            data = (Path(self.tmp, request.out).read_bytes() if request.out
                    else stdout)
            if (request.digest is not None
                    and hashlib.sha256(data).hexdigest() != request.digest):
                return False
            return request.verdict is None or request.verdict(json.loads(data))
        except (OSError, ValueError, KeyError, TypeError):
            return False

    def run_pass(self, requests: List[Request], trace_dir: Optional[str] = None,
                 probes: Optional[List[float]] = None
                 ) -> Tuple[float, float, List[dict]]:
        """One pass over ``requests``: (wall, cpu, traces if ``trace_dir``).

        With ``probes``, a start-up probe runs before each request and its
        wall time is appended there; it is not part of the pass's time.
        """
        wall = cpu = 0.0
        traces = []
        for index, request in enumerate(requests):
            if probes is not None:
                probes.append(self.call(SETUP)[0])
            trace_file = (None if trace_dir is None
                          else os.path.join(trace_dir, f"trace-{index}.json"))
            w, c = self.call(request, trace_file)
            wall += w
            cpu += c
            if trace_file is not None and os.path.exists(trace_file):
                with open(trace_file, encoding="utf-8") as fh:
                    traces.append(json.load(fh))
        return wall, cpu, traces

    def measure(self, requests: List[Request], seconds: float
                ) -> Dict[str, float]:
        """The end-to-end metrics, medians over probes and passes.

        Start-up probes run between the requests, so that their median
        spans the whole run like the passes do, and are topped up to
        ``SETUP_PROBES`` at the end.
        """
        setup: List[float] = []
        start = time.perf_counter()
        walls, cpus = [], []
        while True:
            wall, cpu, _ = self.run_pass(requests, probes=setup)
            walls.append(wall)
            cpus.append(cpu)
            now = time.perf_counter()
            if now - start + wall > seconds or now + 2 * wall > self.deadline:
                break
        while len(setup) < SETUP_PROBES:
            setup.append(self.call(SETUP)[0])
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        print(f"passes {len(walls)}: wall_s {walls} cpu_s {cpus}")
        return {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_kb / 1024.0,
        }

    def traced(self, name: str, requests: List[Request]) -> Dict[str, float]:
        """One plain pass, then one traced pass; the per-layer metrics."""
        plain, _, _ = self.run_pass(requests)
        traced, _, traces = self.run_pass(requests, self.tmp)
        metrics = layer_metrics(traces)
        metrics["trace.overhead_ratio"] = traced / plain
        misses = prediction_misses(name, metrics)
        for miss in misses:
            print(f"prediction missed on {name}: {miss}", file=sys.stderr)
        metrics["trace.prediction_misses"] = len(misses)
        return metrics


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

def _named(*names: str) -> Callable[[str], bool]:
    return frozenset(names).__contains__


def _layer(layer: str) -> Callable[[str], bool]:
    return lambda name: name.startswith(layer + ".")


# Summed over the outermost span of the selection (recursion counted once).
INCLUSIVE = {
    "pbw.change_basis_s": _named("pbw.change_basis"),
    "pbw.env_mul_s": _named("pbw.env_mul"),
    "matop.central_s": _named("matop.trace_power", "matop.central_eigenvalue"),
    "reduce.peel_k_s": _named("reduce.peel_k"),
    "cli.json_write_s": _named("cli._canonical_json",
                               "matop.GeneratorSet.to_json_dict"),
    "cli.json_read_s": _named("cli.json.load", "pbw.EnvElement.from_json_dict"),
    "liedata.build_s": _layer("liedata"),
    "minpoly.build_s": _layer("minpoly"),
}
# Summed span durations minus the time their child spans cover.
SELF = {
    "matop.mul_self_s": _named("matop.mul"),
    "reduce.reduce_iwasawa_self_s": _named("reduce.reduce_iwasawa"),
    "reduce.driver_self_s": _named(*DRIVERS),
    **{f"{layer}.self_s": _layer(layer) for layer in LAYERS},
}
SPAN_CALLS = {
    "pbw.change_basis_calls": "pbw.change_basis",
    "pbw.env_mul_calls": "pbw.env_mul",
    "matop.mul_calls": "matop.mul",
    "reduce.reduce_iwasawa_calls": "reduce.reduce_iwasawa",
}
COUNTERS = {
    "pbw.mul_monos_calls": "pbw.mul_monos",
    "pbw.mul_mono_gen_calls": "pbw.mul_mono_gen",
    "params.mul_calls": "params.mul",
    "params.add_calls": "params.add",
    "pbw.change_basis_terms_in": "pbw.change_basis_terms_in",
    "pbw.change_basis_terms_out": "pbw.change_basis_terms_out",
    "reduce.terms_in": "reduce.terms_in",
    "reduce.nonzero_residues": "reduce.nonzero_residues",
    "cli.json_bytes": "cli.json_bytes",
}
CACHES = ("pbw.cache_entries_mono_gen", "pbw.cache_entries_mono_mono",
          "pbw.cache_entries_conversion")


def layer_metrics(traces: List[dict]) -> Dict[str, float]:
    """Aggregate the spans, counters and cache sizes of one traced pass."""
    metrics: Dict[str, float] = dict.fromkeys(
        [*INCLUSIVE, *SELF, *SPAN_CALLS, *COUNTERS, *CACHES], 0)
    for trace in traces:
        names = trace["names"]
        inside = {metric: [] for metric in INCLUSIVE}
        for span_id, parent, index, start, end, child in trace["spans"]:
            name = names[index]
            for metric, selected in INCLUSIVE.items():
                flags = inside[metric]
                outer = parent >= 0 and flags[parent]
                hit = selected(name)
                flags.append(outer or hit)
                if hit and not outer:
                    metrics[metric] += end - start
            for metric, selected in SELF.items():
                if selected(name):
                    metrics[metric] += end - start - child
            for metric, span_name in SPAN_CALLS.items():
                if name == span_name:
                    metrics[metric] += 1
        for metric, counter in COUNTERS.items():
            metrics[metric] += trace["counts"].get(counter, 0)
        for metric in CACHES:
            metrics[metric] += trace["caches"][metric]
    calls = metrics["pbw.mul_mono_gen_calls"]
    metrics["pbw.mono_gen_hit_ratio"] = (
        1 - metrics["pbw.cache_entries_mono_gen"] / calls if calls else 0.0)
    return metrics


# Where the trace must read zero or nonzero, per workload.
PREDICTIONS = {
    "theorem": {"pbw.change_basis_calls": True,
                "reduce.nonzero_residues": True},
    "lemma": {"pbw.change_basis_calls": False,
              "reduce.reduce_iwasawa_calls": False},
    "kernel": {"pbw.change_basis_calls": False,
               "reduce.reduce_iwasawa_calls": True},
    "roundtrip": {"pbw.change_basis_calls": True, "cli.json_bytes": True},
}


def prediction_misses(name: str, metrics: Dict[str, float]) -> List[str]:
    return [f"{metric} = {metrics[metric]}, predicted "
            + ("nonzero" if nonzero else "zero")
            for metric, nonzero in PREDICTIONS[name].items()
            if bool(metrics[metric]) != nonzero]


def unit_of(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def environment() -> str:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return (f"env python={platform.python_version()} "
            f"nproc={len(os.sched_getaffinity(0))} commit={commit} "
            f"loadavg={' '.join(f'{x:.2f}' for x in os.getloadavg())}")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None, small: bool = False) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "huaops" / "cli.py").is_file():
        print(f"error: no huaops sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    print(environment())
    requests = workload(args.workload, small)
    runner = Runner(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT),
                    time.perf_counter() + RUN_BUDGET_S)
    try:
        if args.trace:
            metrics = runner.traced(args.workload, requests)
        else:
            metrics = runner.measure(requests, args.seconds)
        if args.workload == "roundtrip":
            defect = known_defect(args.seed, small)
            shows = not runner.spawn(defect, None, "known defect")[2]
            print(f"known defect {'shows' if shows else 'does not show'}: "
                  f"huaops {defect.args.format(tmp='<tmp>')}")
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
    failed = len(runner.missed)
    print(f"env loadavg_end={' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    for metric, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{metric} {shown} {unit_of(metric)}")
    print(f"fail_ratio {failed / runner.attempted:.6g} ratio "
          f"({failed} of {runner.attempted} requests)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit_of(metric)}
                    for metric, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
