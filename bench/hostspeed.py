"""Wall time scaled to a reference host speed.

A shared virtual machine does not run at one speed: on the 2-core VM the
bounds were set on, a fixed pure-Python loop pinned to one core took
6.2 ms or 8.7 ms, switching between the two every few seconds as other
tenants' work came and went, and the two cores were seldom in the same
state. A CPU-bound timing follows that switching, so its median over a
run moves by up to 40 % with the share of the run spent slow.

Every CPU-bound timing is therefore cut into samples a fraction of a
second to a second or two long, each sample is bracketed by a short
reference loop (:func:`reference_s`), and the sample's wall time is
scaled by :data:`REFERENCE_S` over the loop's mean time around it. The
result reads as the time the work would take on a host where the loop
takes :data:`REFERENCE_S`. The raw wall times are kept beside the scaled
ones.
"""

import time

import numpy as np

#: What :func:`reference_s` takes at the reference speed (about its time
#: on one core of the 2-core VM the bounds were set on, Python 3.11,
#: NumPy 2.4, when no other tenant slowed it).
REFERENCE_S = 6.0e-3

_ROW = np.ones(12)


class _Item:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def reference_s() -> float:
    """Wall seconds of a fixed mix of interpreter work: float arithmetic,
    dict updates, small-object allocation and small NumPy operations.

    A busy neighbour slows each kind of work by a different amount. Over
    ten seeds on a noisy host, scaling by the float loop alone left the
    workloads' spreads between quartiles at 5–11 %, by this mix at 3–9 %.
    """
    started = time.perf_counter()
    total = 0.0
    for index in range(15000):
        total += index * 1.0000001
    counts = {}
    for index in range(8000):
        key = index & 1023
        counts[key] = counts.get(key, 0) + 1
    for index in range(5000):
        item = _Item(index)
        total += item.value
        _ = [item, index]
    for _ in range(500):
        np.round(_ROW * 3.0) / 3.0
    return time.perf_counter() - started


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at the reference speed, given the reference loop's times
    just before and just after it."""
    return wall_s * 2.0 * REFERENCE_S / (before_s + after_s)


class HostSpeed:
    """Wall time and reference-speed time, one sample per :meth:`lap`.

    A sample runs from the previous lap (or construction) to this one; the
    reference loop runs at both ends and is in neither sample. ``laps``
    holds every sample's reference-speed seconds, ``wall_s`` and
    ``scaled_s`` their sums. Disabled, a lap does nothing, so traced
    passes carry no reference loops.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.laps = []
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self._probe = reference_s() if enabled else 0.0
        self._started = time.perf_counter()

    def lap(self) -> None:
        if not self.enabled:
            return
        wall = time.perf_counter() - self._started
        probe = reference_s()
        self.laps.append(scaled(wall, self._probe, probe))
        self.wall_s += wall
        self.scaled_s += self.laps[-1]
        self._probe = probe
        self._started = time.perf_counter()


# The first call pays one-time costs the reference speed should not carry.
reference_s()
