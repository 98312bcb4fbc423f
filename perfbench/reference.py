"""A fixed computation that times the host's current speed.

The shared 2-core host runs any fixed computation up to 2x slower for
seconds to minutes at a time, in thread CPU time as much as in wall time.
The benchmark runs reference() beside the operations it times and scales
each time by REFERENCE_S over the reference's median time, so results
read as on a host where the reference takes REFERENCE_S.
"""

import time

REFERENCE_S = 0.003
REFERENCE_LOOPS = 20000


def reference() -> float:
    """Wall time of one run of the fixed reference computation."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(REFERENCE_LOOPS):
        acc ^= (i * 2654435761) & 0xFFFF
        table[i & 255] = acc
    return time.perf_counter() - t0
