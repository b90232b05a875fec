"""Run one program process at a time, with a timeout and its resource usage.

Each child is reaped with ``os.wait4`` so its own peak RSS is known; a child
still running at its deadline is killed and reported as timed out.

A shared host runs Python faster or slower from one minute to the next, by
more than the bounds in ``BENCHMARK.json``.  :class:`Paced` therefore runs a
fixed reference process between the timed ones and scales each timed process
to the host speed the reference saw around it.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

SETUP_CODE = "import cycalc.cli; cycalc.cli.build_parser()"

#: A fixed pure-Python task of the kinds cycalc does: fractions summed in a
#: dict keyed by tuples, and products of integer series.  It never changes
#: with the program, so its wall time measures only the host's speed.
REFERENCE_CODE = """\
from fractions import Fraction
table = {}
for i in range(12000):
    key = (i % 499, i % 7)
    table[key] = table.get(key, Fraction(0)) + Fraction(i % 89 + 1, i % 13 + 1)
series = [1]
for width in range(2, 40):
    grown = [0] * (len(series) + width - 1)
    for k, c in enumerate(series):
        for j in range(width):
            grown[k + j] += c
    series = grown
total = sum(table.values())
print(len(table), total.numerator % 1000003, total.denominator, len(series), sum(series) % 1000003)
"""
REFERENCE_OUTPUT = b"3493 809385 2340 742 946987\n"
#: The reference's median wall time on the 2-core machine the benchmark was
#: tuned on (Python 3.11), so scaled times read close to raw ones there.
REFERENCE_NOMINAL_S = 0.2
#: A reference run follows any timed process that ends at least this many
#: seconds of timed work after the previous reference run.
REFERENCE_EVERY_S = 1.0


@dataclass(frozen=True)
class Finished:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int
    timed_out: bool


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment with the checkout's sources first on the path.

    ``CYCALC_CATALOG`` is dropped: a user catalog would change the outputs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("CYCALC_CATALOG", None)
    return env


def run(argv: list[str], env: dict[str, str], cwd: Path, timeout_s: float) -> Finished:
    start = perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=cwd,
    )
    chunks: dict[int, list[bytes]] = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    out_fd, err_fd = list(chunks)
    pidfd = os.pidfd_open(proc.pid)
    timed_out = False
    try:
        open_fds, exited = set(chunks), False
        while open_fds or not exited:
            remaining = start + timeout_s - perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            watch = list(open_fds) + ([] if exited else [pidfd])
            ready, _, _ = select.select(watch, [], [], remaining)
            for fd in ready:
                if fd == pidfd:
                    exited = True
                    continue
                data = os.read(fd, 1 << 16)
                if data:
                    chunks[fd].append(data)
                else:
                    open_fds.discard(fd)
    except BaseException:
        proc.kill()
        raise
    finally:
        os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Finished(
        returncode=proc.returncode,
        stdout=b"".join(chunks[out_fd]),
        stderr=b"".join(chunks[err_fd]),
        wall_s=wall,
        maxrss_kb=usage.ru_maxrss,
        timed_out=timed_out,
    )


def program(argv: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "cycalc", *argv]


def check_sources(root: Path, env: dict[str, str]) -> str | None:
    """Import cycalc once (compiling it) and confirm it comes from the checkout."""
    code = "import cycalc, sys; sys.stdout.write(cycalc.__file__)"
    done = run([sys.executable, "-c", code], env, root, 60.0)
    if done.returncode != 0:
        return f"cannot import cycalc: {done.stderr.decode(errors='replace')[-300:]}"
    found = Path(done.stdout.decode()).resolve()
    if not found.is_relative_to((root / "src").resolve()):
        return f"cycalc imports from {found}, not from the checkout"
    return None


def setup_program() -> list[str]:
    """A fresh process that imports ``cycalc.cli`` and builds the parser."""
    return [sys.executable, "-c", SETUP_CODE]


@dataclass(frozen=True)
class Sample:
    done: Finished
    #: Index of the last reference run before this process started.
    after: int


class Paced:
    """Runs processes one at a time, with a reference run every ``REFERENCE_EVERY_S``.

    A sample's scaled wall time is its wall time times ``REFERENCE_NOMINAL_S``
    over the mean wall time of the reference runs just before and just after
    it: the time it would have taken while the host ran the reference in its
    nominal time.  Call :meth:`close` after the last sample.
    """

    def __init__(self, root: Path, env: dict[str, str]) -> None:
        self.root, self.env = root, env
        self.references: list[Finished] = []
        self._since = 0.0
        self.reference()

    def reference(self) -> None:
        argv = [sys.executable, "-c", REFERENCE_CODE]
        self.references.append(run(argv, self.env, self.root, 60.0))
        self._since = 0.0

    def run(self, argv: list[str], timeout_s: float) -> Sample:
        sample = Sample(run(argv, self.env, self.root, timeout_s), len(self.references) - 1)
        self._since += sample.done.wall_s
        if self._since >= REFERENCE_EVERY_S:
            self.reference()
        return sample

    def close(self) -> None:
        if self._since > 0:
            self.reference()

    def scaled_s(self, sample: Sample) -> float:
        around = self.references[sample.after : sample.after + 2]
        return sample.done.wall_s * REFERENCE_NOMINAL_S / statistics.fmean(
            done.wall_s for done in around
        )

    def problems(self) -> list[str | None]:
        """One verdict per reference run: None, or what went wrong."""
        return [
            None if done.returncode == 0 and done.stdout == REFERENCE_OUTPUT
            else f"reference run: exit {done.returncode}, stdout {done.stdout[:80]!r}"
            for done in self.references
        ]
