"""Host speed, measured by a fixed pure-Python probe, and times scaled by it.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more within a minute, and every timing drifts with it.  So the
client times a fixed probe (`probe`), which never touches ranktwo, between
requests, and scales each request's time by REF_S over the median probe
time around that request.  A scaled time is the time the request would take
on a host where the probe takes REF_S: milliseconds at a fixed reference
speed.  Raw times are kept in the details of every run.

The probe has two parts, timed together: a loop of interpreter work
(integer arithmetic, a dict, str conversion) and a walk of pseudo-random
reads over a 4 MiB buffer, twice the L2 cache of the machine it was tuned
on.  Timed against rounds of each workload's requests on that machine, the
loop alone slowed by about 1.5 times as much as the requests did (it
over-corrected) and the walk alone by about as much; the sum tracked the
requests most closely.  Neither part allocates an object the garbage
collector tracks, so the program's heap does not change the probe's time.
"""

from __future__ import annotations

import statistics
import time

# The unit: scaled times are times on a host where the probe takes REF_S.
# On the 2-vCPU Xeon VM the baselines were measured on, it took 3 to 6 ms.
# It stays fixed so that published results stay comparable.
REF_S = 0.003
LOOP = 2000
WALK = 10000
BUFFER_BYTES = 1 << 22
WINDOW = 3  # probes on each side of a request that set its speed

# every page written, so the walk reads memory, not the shared zero page
_BUFFER = bytearray(range(256)) * (BUFFER_BYTES // 256)


def _loop() -> int:
    d = {}
    x = 1
    for i in range(LOOP):
        x = (x * 6364136223846793005 + 1442695040888963407) % 18446744073709551616
        k = x % 997
        d[k] = d.get(k, 0) + i
        str(x)
    return len(d)


def _walk() -> int:
    buf, mask = _BUFFER, BUFFER_BYTES - 1
    total = 0
    i = 1
    for _ in range(WALK):
        i = (i * 1103515245 + 12345) & mask
        total += buf[i]
    return total


def probe() -> float:
    """Seconds the fixed probe takes now."""
    t0 = time.perf_counter()
    _loop()
    _walk()
    return time.perf_counter() - t0


def scale(elapsed: list[float], probes: list[float]) -> list[float]:
    """Scale elapsed[i] to the reference speed.

    probes[i] was taken just before elapsed[i] and probes[i + 1] just after
    it, so len(probes) == len(elapsed) + 1.  Request i's speed is the median
    of the WINDOW probes before it and the WINDOW after it.
    """
    assert len(probes) == len(elapsed) + 1
    return [
        t * REF_S / statistics.median(probes[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
        for i, t in enumerate(elapsed)
    ]
