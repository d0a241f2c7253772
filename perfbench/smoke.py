"""Short-mode test of the benchmark on the smallest cases.

Usage (from the root of the repository)::

    python3 perfbench/smoke.py

Runs every workload at its smoke-test size, plain and traced, and checks
that every metric of ``BENCHMARK.json`` is printed with its unit, that every
request is right, that ``roundtrip`` reports on its known-defect probe,
that the trace's zero/nonzero predictions hold, and that every layer has a
span.  Takes about half a
minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import time

sys.dont_write_bytecode = True

import run  # noqa: E402  (sibling module; bytecode writing is off first)

# No workload calls cfun; this request gives its layer a span.
CFUN = run.Request(
    "cfun --form glnr --n 2 --json", 0,
    "c7ebf2a964371ca27e8a13a2f66ab3267148648095c3ae115e5f6103869bfdcc")


def check_run(name: str, trace: int, spec: dict) -> None:
    buffer, errors = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(errors):
        status = run.main(["--workload", name, "--seed", "7", "--seconds", "1",
                           "--trace", str(trace)], small=True)
    lines = buffer.getvalue().splitlines()
    assert status == 0, (name, trace, lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {metric: value["unit"] for metric, value in result["metrics"].items()}
    assert got == expected, (name, trace, set(got) ^ set(expected))
    for metric, unit in expected.items():
        assert any(line.startswith(f"{metric} ") and line.endswith(f" {unit}")
                   for line in lines), (metric, unit)
    assert any(line.startswith("fail_ratio ") for line in lines)
    assert result["correct"] and result["failed"] == 0, (name, trace, result)
    if name == "roundtrip":
        assert any(line.startswith("known defect ") for line in lines), lines
    if trace:
        misses = result["metrics"]["trace.prediction_misses"]["value"]
        assert misses == 0, (name, misses)


def check_layers() -> None:
    """Every layer has a span somewhere in the traced smoke requests."""
    requests = [r for name in run.WORKLOADS
                for r in run.workload(name, small=True)] + [CFUN]
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=run.ROOT) as tmp:
        runner = run.Runner(tmp, time.perf_counter() + run.RUN_BUDGET_S)
        _, _, traces = runner.run_pass(requests, tmp)
    seen = {t["names"][span[2]].split(".")[0]
            for t in traces for span in t["spans"]}
    assert seen >= set(run.LAYERS), set(run.LAYERS) - seen
    assert not runner.missed, runner.missed


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in run.WORKLOADS:
        for trace in (0, 1):
            check_run(name, trace, spec)
            print(f"ok {name} trace={trace}")
    check_layers()
    print("ok layers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
