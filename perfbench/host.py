"""Clocks, the host's speed, and ``/proc`` readers.

Single-process work is timed with process CPU time.  On this kind of
guest (``CONFIG_PARAVIRT_TIME_ACCOUNTING=y``) CPU time excludes
hypervisor steal, while wall time does not: a pure-Python loop once
read 0.32-0.71 s wall but 0.32-0.41 s CPU over one minute.  Wall time
is kept only where waiting is what a metric measures (serve-mixed).
CPU time still moves with how fast the host runs the guest's cores;
:class:`Speedometer` reads that speed so CPU times can be scaled to a
fixed reference speed.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu() -> float:
    """Process CPU seconds (user + system, all threads)."""
    return time.process_time()


def wall() -> float:
    return time.perf_counter()


#: Seconds of process CPU between two speed readings.
TICK_S = 0.02
#: CPU seconds one speed reading's loop takes while no other tenant
#: slows the core (2-vCPU Xeon guest at 2.0 GHz).
REFERENCE_TICK_S = 0.0002


def _reference_loop() -> None:
    table: dict[int, int] = {}
    for i in range(1_000):
        key = i * 7919 % 1_009
        table[key] = table.get(key, 0) + i


class Speedometer:
    """Reads how fast the host runs this process, every ``TICK_S`` of CPU.

    Other tenants of the host slow this guest's cores in phases that
    last from seconds to minutes, and process CPU time moves with them:
    a fixed pure-Python loop takes about twice as long in a slow phase
    as in a fast one.  Inside ``with Speedometer() as meter:`` a
    ``SIGPROF`` handler times a small fixed loop every ``TICK_S`` of
    CPU; :meth:`measure` scales a call's own CPU time (the loops'
    excluded) by ``REFERENCE_TICK_S`` over the mean loop time read
    during the call, giving its CPU time at the reference speed.
    """

    def __init__(self):
        self.ticks: list[int] = []
        self._saved = None

    def _tick(self, *_) -> None:
        # Thread CPU: the process clock lags inside a signal handler.
        start = time.thread_time_ns()
        _reference_loop()
        self.ticks.append(time.thread_time_ns() - start)

    def __enter__(self) -> "Speedometer":
        self._saved = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._saved)

    def measure(self, call):
        """``(result, cpu s, wall s, own cpu s at the reference speed)``.

        ``cpu s`` includes the readings taken during the call; the
        scaled figure excludes them.  One reading is taken right before
        and one right after the call, so a call shorter than a tick
        still has two.
        """
        self._tick()
        first = len(self.ticks)
        cpu0, wall0 = cpu(), wall()
        result = call()
        cpu1, wall1 = cpu(), wall()
        inside = self.ticks[first:]
        self._tick()
        own = cpu1 - cpu0 - sum(inside) / 1e9
        return result, cpu1 - cpu0, wall1 - wall0, own * self.speed(first - 1)

    def speed(self, first: int = 0) -> float:
        """Mean speed over the readings from ``first`` on; 1 is the reference."""
        readings = self.ticks[first:]
        return REFERENCE_TICK_S * 1e9 * len(readings) / sum(readings)


def steal_counters() -> tuple[int, int]:
    """``(steal, busy)`` jiffies of the aggregate ``cpu`` line.

    ``busy`` is every jiffy except idle and iowait, steal included:
    steal builds up only while a vCPU has work to run, so it is counted
    against the time the vCPUs wanted to run, not against idle time.
    """
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    user, nice, system, idle, iowait, irq, softirq, steal = (
        int(value) for value in fields[:8]
    )
    return steal, user + nice + system + irq + softirq + steal


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the vCPUs' runnable time the hypervisor took between readings."""
    busy = after[1] - before[1]
    return (after[0] - before[0]) / busy if busy > 0 else 0.0


def reset_peak_rss(pid: int | str = "self") -> None:
    """Reset ``VmHWM`` to the current RSS, so a later peak excludes set-up."""
    Path(f"/proc/{pid}/clear_refs").write_text("5")


def peak_rss_mib(pid: int | str = "self") -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def process_cpu(pid: int) -> float:
    """CPU seconds (user + system) a live process has used."""
    text = Path(f"/proc/{pid}/stat").read_text()
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (workers, helpers)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            text = (entry / "stat").read_text()
        except OSError:
            continue
        parent = int(text[text.rindex(")") + 2:].split()[1])
        children.setdefault(parent, []).append(int(entry.name))
    found, frontier = [], [pid]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            found.append(child)
            frontier.append(child)
    return sorted(found)
