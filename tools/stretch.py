#!/usr/bin/env python3
"""Stretch acceptance: the largest requests, each in a fresh child.

Usage (from the root of the repository)::

    python3 tools/stretch.py              # run every case
    python3 tools/stretch.py NAME ...     # run the named cases

Each case is one ``huaops ... --json`` request, run with ``PYTHONPATH=src``
in a child of its own whose address space is capped at 2 GB
(``RLIMIT_AS``, set in the child only).  A case matches when the child's
exit status is the pinned one and, where a digest is pinned, the sha256 of
its standard output is that digest.  For every case the script prints the
exit status, the wall time and the child's own peak RSS (``ru_maxrss`` of
that child, from ``wait4``).  The exit status is 0 when every case
matches, and 1 otherwise.  Standard library only; a full run takes several
minutes and stays out of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 2 * 1024 ** 3
TIMEOUT_S = 900


class Case(NamedTuple):
    name: str
    args: str  # the huaops request, without --json
    status: int
    digest: Optional[str]  # sha256 of the --json output; None pins none


CASES = (
    Case("theorem-3-3", "verify upq-theorem --p 3 --q 3 --blocks 1,2,3", 0,
         "06596d3c1cc129de36942e20057d22bdc09af1bd4e835dfe7c2a1c416014741c"),
    Case("theorem-3-3-perturbed",
         "verify upq-theorem --p 3 --q 3 --blocks 1,2,3 --perturb", 1,
         "0d0bf1d0766dbfc00a816221f5605482cccbd4c5aee08249ec06c0e1cba34669"),
    Case("theorem-4-3", "verify upq-theorem --p 4 --q 3 --blocks 1,2,3", 0,
         "f534baceeee3ecc5b7f4a92c103e17c729efb275998e44859bdedac85b465933"),
    Case("theorem-4-3-perturbed",
         "verify upq-theorem --p 4 --q 3 --blocks 1,2,3 --perturb", 1,
         "8ab6fa3fec88a989f5f8a6d0ff7fd8073a03e04cb150ced93a4c01756ba7b1d2"),
    Case("kernel-5-3",
         "verify upq-recursion --p 5 --q 3 --blocks 1,2,3 --kernel", 0,
         "a308f18091df02a945d08197be2a4644bb26888834f931c61351d3c0d462f58d"),
    Case("lemma-4-5", "verify gl-lemma --n 4 --m 5", 0,
         "7a3b61bb83c4120d1bbc84117d3db31b2874f484d373e9a071e71fc24fd78a4a"),
    # Past the frontier: the request must end in a MemoryError (exit 3).
    Case("theorem-4-4", "verify upq-theorem --p 4 --q 4 --blocks 1,2,3,4", 3,
         None),
)


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_case(case: Case) -> bool:
    """Run one case in a fresh child, print its line, and say if it matches."""
    env = dict(os.environ, PYTHONPATH="src")
    command = [sys.executable, "-m", "huaops.cli", *case.args.split(), "--json"]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=out,
                                stderr=err, preexec_fn=_cap_address_space)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:  # wait4 reaps the child and gives its own resource usage
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: end the child, then re-raise
            proc.kill()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
        err.seek(0)
        tail = err.read().decode(errors="replace").strip()[-300:]
    ok = proc.returncode == case.status and case.digest in (None, digest)
    peak = f"{usage.ru_maxrss / 1024:.0f} MB"
    print(f"{'ok' if ok else 'MISMATCH':>8}  {case.name:<22} exit "
          f"{proc.returncode}  {wall:7.1f} s  {peak:>7}  {digest[:12]}",
          flush=True)
    if not ok:
        print(f"          expected exit {case.status}"
              + (f", sha256 {case.digest}" if case.digest else "")
              + (f"; stderr: {tail}" if tail else ""), flush=True)
    return ok


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="cases to run (default all)")
    args = parser.parse_args(argv)
    known = {case.name for case in CASES}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        print("\n".join(f"{name}: no such case" for name in unknown))
        return 1
    chosen = [c for c in CASES if not args.names or c.name in args.names]
    results = [run_case(case) for case in chosen]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
