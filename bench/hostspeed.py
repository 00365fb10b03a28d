"""The host's speed, measured with a fixed loop of the benchmark's own.

The reference machine shares its host with other machines, and its speed
changes by up to 1.6x in spells of minutes: the same interpreter work
takes longer, although the process is not descheduled.  The benchmark
therefore times this loop next to every call of the program and reports
each call's time scaled to a host on which the loop takes
``REFERENCE_S``:

    scaled = seconds * REFERENCE_S / (the loop's time around the call)

The loop is pure Python, like supkit, and uses nothing of supkit, so a
change to the program does not change it.  A call that runs on several
processes (``--jobs``) is scaled by the loop run on as many processes at
once: such a call runs on both vCPUs of the reference machine, and they
do not always slow down alike.
"""

import multiprocessing
import time

LOOPS = 200_000
# The loop's median time on the reference machine (bench/README.md).
REFERENCE_S = 0.060


def calibrate():
    """One timed run of the loop, in seconds."""
    start = time.perf_counter()
    table, total = {}, 0
    for i in range(LOOPS):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i
        total += len(str(i))
    return time.perf_counter() - start


def _helper(conn):
    while conn.recv():
        conn.send(calibrate())


class Loop:
    """The loop, timed on ``processes`` processes at once: this one and
    helpers forked at the start, which wait on a pipe between timings.
    ``close`` stops the helpers and waits for them."""

    def __init__(self, processes):
        context = multiprocessing.get_context("fork")
        self._conns, self._helpers = [], []
        for _ in range(processes - 1):
            mine, theirs = context.Pipe()
            helper = context.Process(target=_helper, args=(theirs,), daemon=True)
            helper.start()
            self._conns.append(mine)
            self._helpers.append(helper)

    def time(self):
        """The loop's time on the slowest process: a call on several
        processes waits for its slowest one."""
        for conn in self._conns:
            conn.send(True)
        return max([calibrate()] + [conn.recv() for conn in self._conns])

    def close(self):
        conns, helpers = self._conns, self._helpers
        self._conns, self._helpers = [], []
        for conn in conns:
            conn.send(False)
        for helper in helpers:
            helper.join(timeout=30)
            if helper.is_alive():
                helper.kill()
                helper.join()


def scaled(seconds, loop_seconds):
    """``seconds`` measured while the loop took ``loop_seconds``, in
    seconds of the reference host."""
    return seconds * REFERENCE_S / loop_seconds
