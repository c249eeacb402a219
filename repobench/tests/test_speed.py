"""Tests of the speed probe (``repobench/speed.py``).

Each test runs in a subprocess, because the probe installs a ``SIGPROF``
handler and a CPU-time interval timer in the process it measures::

    python -m pytest repobench/tests/test_speed.py
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import subprocess, sys
    from concurrent.futures import ProcessPoolExecutor
    from pathlib import Path
    sys.path.insert(0, {here!r})
    import speed

    def burn(n):
        total = 0
        for i in range(n):
            total += i * i % 7
        return total

    speed.install(Path({path!r}))
    before = speed.Totals.now()
    burn(1_000_000)
    with ProcessPoolExecutor(2) as pool:
        list(pool.map(burn, [1_000_000] * 8))
    factor = (speed.Totals.now() - before).factor()
    child = subprocess.run(
        [sys.executable, str(Path({here!r}) / "speed.py"), "-m", "timeit", "-n", "20000000", "pass"],
        env=speed.child_env({{}}), capture_output=True,
    )
    values = speed.ALL_SLOTS.unpack_from(speed._map)
    used = [slot for slot in range(speed.SLOTS) if values[3 * slot] > 0]
    print(factor, child.returncode, speed._next_slot, " ".join(map(str, used)))
    """
)


def test_probe_follows_forked_and_started_children(tmp_path):
    script = SCRIPT.format(here=str(HERE), path=str(tmp_path / "speed.bin"))
    process = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    # Exit 0: the timer is stopped before interpreter shutdown restores the
    # default SIGPROF action, in the parent and in the started child.
    assert process.returncode == 0, process.stderr
    factor, child_code, handed_out, *used = process.stdout.split()
    assert int(child_code) == 0
    # Slot 0 is the parent's, 1 and 2 the pool workers', 3 the started
    # child's; each probed into its own slot (a worker may get no task).
    assert int(handed_out) == 4
    assert {"0", "3"} <= set(used) <= {"0", "1", "2", "3"} and len(used) >= 3
    # Reference seconds per host second: below 1.0 apart from the probe's own
    # share, and far from 0 on any host that runs the probe at all.
    assert 0.05 < float(factor) < 1.0
