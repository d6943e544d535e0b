"""Host facts recorded with every result (after ePPing's PAM'23 scripts:
pin what the numbers were measured on, keep it beside the raw results).

Wall clocks on a shared host drift with what the neighbours do.  Stolen
time (``/proc/stat``) and CPU pressure (``/proc/pressure/cpu``) over the run
say how much; past :data:`STEAL_SHARE_NOISY` or :data:`PRESSURE_SHARE_NOISY`
the result is marked ``noisy`` — kept, not failed, but not a number to rest
a claim on.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time

from common import REPO_ROOT

#: Share of the run's CPU jiffies stolen by the hypervisor.
STEAL_SHARE_NOISY = 0.02
#: Share of the run's wall time some task waited for a CPU.
PRESSURE_SHARE_NOISY = 0.10


def _steal_and_total_jiffies() -> tuple[int, int]:
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(value) for value in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def _pressure_total_us() -> int | None:
    try:
        with open("/proc/pressure/cpu", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("some"):
                    return int(line.rsplit("total=", 1)[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else None


class HostFacts:
    """Sample at construction, again at :meth:`finish`; report the deltas."""

    def __init__(self) -> None:
        self._started = time.time()
        self._steal, self._jiffies = _steal_and_total_jiffies()
        self._pressure = _pressure_total_us()
        try:
            load = os.getloadavg()
        except OSError:
            load = (0.0, 0.0, 0.0)
        affinity = (
            sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        )
        self.facts = {
            "cpu_count": os.cpu_count(),
            "sched_affinity": affinity,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "loadavg_start": list(load),
            "git_sha": _git_sha(),
        }

    def finish(self) -> dict:
        elapsed = max(time.time() - self._started, 1e-9)
        steal, jiffies = _steal_and_total_jiffies()
        steal_delta = steal - self._steal
        steal_share = steal_delta / max(jiffies - self._jiffies, 1)
        pressure = _pressure_total_us()
        pressure_share = None
        if pressure is not None and self._pressure is not None:
            pressure_share = (pressure - self._pressure) / 1e6 / elapsed
        facts = dict(self.facts)
        facts.update(
            elapsed_s=elapsed,
            steal_jiffies=steal_delta,
            steal_share=steal_share,
            cpu_pressure_share=pressure_share,
            noisy=bool(
                steal_share > STEAL_SHARE_NOISY
                or (pressure_share is not None and pressure_share > PRESSURE_SHARE_NOISY)
            ),
        )
        return facts
