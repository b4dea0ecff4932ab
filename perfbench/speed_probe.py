"""Machine-speed probe, run as a background process by ``run.py``.

Every 20 ms it times a small fixed pure-Python loop and appends one
line, ``<start> <seconds>``, to the file named on the command line.
Both values come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so the benchmark process can match each
sample to the intervals it timed.  It runs until it is terminated or
its parent process ends.

The loop mixes the kinds of work the benchmark's program does: dict
and sort work on small objects, random reads over 16 MB (more than a
CPU's share of cache, so they go to memory) and parsing a small XML
document with the standard library.  A loop that stays in cache
misses the slowdowns a shared machine causes through its caches and
memory, which hit the program hardest.
"""

import os
import random
import sys
import time
import xml.etree.ElementTree as ET

INTERVAL_S = 0.02

_MEMORY = bytes(range(256)) * 65536
_READS = [random.Random(1).randrange(len(_MEMORY)) for _ in range(1500)]
_DOCUMENT = (
    "<sbml><model>"
    + "".join(
        f'<species id="s{i}" name="n{i}" initialAmount="{i}.5"/>' for i in range(40)
    )
    + "</model></sbml>"
)


def _loop() -> int:
    table = {}
    for i in range(200):
        table[f"k{i}"] = (i, str(i))
    ordered = sorted(table.items(), key=lambda item: item[1][1])
    total = len(set(key for key, _ in ordered[::3]))
    for position in _READS:
        total += _MEMORY[position]
    for element in ET.fromstring(_DOCUMENT).iter("species"):
        total += len(element.get("id"))
    return total


def main(path: str) -> None:
    parent = os.getppid()
    with open(path, "w", encoding="utf-8") as out:
        # Stop with the benchmark process, even if it was killed.
        while os.getppid() == parent:
            started = time.perf_counter()
            _loop()
            out.write(f"{started} {time.perf_counter() - started}\n")
            out.flush()
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    main(sys.argv[1])
