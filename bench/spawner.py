"""Spawns the benchmark's child processes, one request at a time.

On Linux a new process's max RSS starts at the high-water mark of the
process that spawned it.  Children spawned straight from the benchmark,
which holds every input and expected output, would report the
benchmark's peak instead of their own, so they are spawned from this
small process.  Requests arrive pickled on stdin and replies leave
pickled on stdout:

    (argv, stdin bytes, capture, timeout seconds)
    -> (exit code, stdout, stderr, seconds, child max RSS KiB, own peak KiB)

The spawner's own peak is the high-water mark of its memory (VmHWM), the
floor its children start from; its rusage would not do, since that too
starts from the peak of the benchmark that spawned it.

The child is reaped with a blocking ``wait4``, which also yields its
rusage; a watchdog kills a child that outlives its timeout.  End of file
on stdin ends the spawner.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
import time


def _read(stream, into: dict, key: str) -> None:
    into[key] = stream.read()
    stream.close()


def own_peak_kb() -> int:
    """High-water mark of this process's resident memory (VmHWM), in KiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(argv, data: bytes, capture: bool, timeout: float):
    sink = subprocess.PIPE if capture else subprocess.DEVNULL
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=sink, stderr=sink)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    got = {"out": b"", "err": b""}
    readers = [threading.Thread(target=_read, args=(stream, got, key))
               for key, stream in (("out", proc.stdout), ("err", proc.stderr)) if stream is not None]
    for reader in readers:
        reader.start()
    try:
        proc.stdin.write(data)
    except BrokenPipeError:
        pass
    proc.stdin.close()
    for reader in readers:
        reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    watchdog.cancel()
    watchdog.join()
    return proc.returncode, got["out"], got["err"], elapsed, usage.ru_maxrss


def main() -> int:
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    while True:
        try:
            argv, data, capture, timeout = pickle.load(requests)
        except EOFError:
            return 0
        own = own_peak_kb()
        pickle.dump((*run(argv, data, capture, timeout), own), replies)
        replies.flush()


if __name__ == "__main__":
    sys.exit(main())
