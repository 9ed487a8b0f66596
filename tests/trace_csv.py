"""Write a capacity or mobility trace as the CSV that its `from_csv` reads.

Only tests write trace files: the package reads them (`--cap-trace`,
`--mob-trace`) but never writes one.  Times and capacities are written
with 10 significant digits, hotspot ids as integers.
"""

import csv

from coopstream.traces import MobilityTrace


def _fmt(x: float) -> str:
    return format(x, ".10g")


def write_trace_csv(trace, path: str) -> None:
    """One `header` row, then one (user, t_from, t_to, value) row per interval."""
    text = int if isinstance(trace, MobilityTrace) else _fmt
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(trace.header)
        for u, a, b, v in trace.rows():
            w.writerow([u, _fmt(a), _fmt(b), text(v)])
