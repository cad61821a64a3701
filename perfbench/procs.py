"""Process-group bookkeeping: kill servers with their pool workers, refuse stale runs.

Each server starts in its own session, so its pool workers share its
process group.  The group ids are recorded in a file in the work
directory; a later run that finds any of them still alive refuses to
start, because orphaned pool workers keep computing and would skew
every number it measures.
"""

import os
import signal
import threading
import time


def _group_members(pgid):
    """PIDs of live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


class ProcessGroups:
    def __init__(self, work):
        self.path = os.path.join(work, "process-groups")

    def _recorded(self):
        try:
            with open(self.path) as handle:
                return [int(line) for line in handle if line.strip()]
        except OSError:
            return []

    def _write(self, pgids):
        with open(self.path, "w") as handle:
            handle.writelines("{}\n".format(pgid) for pgid in pgids)

    def stale(self):
        """Recorded groups that still have live processes."""
        alive = [pgid for pgid in self._recorded() if _group_members(pgid)]
        if not alive:
            self._write([])
        return alive

    def add(self, pgid):
        self._write(self._recorded() + [pgid])

    def pss_mb(self, pgid):
        """Proportional set size of the whole group, in MB.

        PSS splits pages shared after fork between the processes that
        share them, so the sum is the group's real footprint; summed RSS
        would count the server's pages once more per pool worker.
        """
        total = 0
        for pid in _group_members(pgid):
            try:
                with open("/proc/{}/smaps_rollup".format(pid)) as handle:
                    for line in handle:
                        if line.startswith("Pss:"):
                            total += int(line.split()[1])
                            break
            except OSError:
                pass
        return total / 1024.0

    def kill(self, pgid, process=None, timeout=30.0):
        """SIGKILL the whole group and wait until every member is gone."""
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if process is not None:
            process.wait(timeout=timeout)
        deadline = time.monotonic() + timeout
        while _group_members(pgid):
            if time.monotonic() > deadline:
                raise RuntimeError("process group {} did not die".format(
                    pgid))
            time.sleep(0.01)
        self._write([g for g in self._recorded() if g != pgid])


class PeakMemory:
    """Samples a process group's PSS on a thread; ``stop()`` returns the peak MB."""

    def __init__(self, groups, pgid, interval=1.0):
        self._groups = groups
        self._pgid = pgid
        self._interval = interval
        self._stop = threading.Event()
        self.peak = 0.0
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while True:
            self.peak = max(self.peak, self._groups.pss_mb(self._pgid))
            if self._stop.wait(self._interval):
                return

    def stop(self):
        self._stop.set()
        self._thread.join()
        return self.peak
