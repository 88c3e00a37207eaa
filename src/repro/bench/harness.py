"""Paper-style tables and small measurement helpers.

The paper's claims are about *work*: ``tests/paper/`` checks them as
instrumented operation counts and prints each figure as a
:class:`Table`.  Wall-clock belongs to ``perf/`` (docs/benchmarks.md);
nothing here times anything.
"""


class Table:
    """A small aligned-text table builder."""

    def __init__(self, title, columns):
        self.title = title
        self.columns = list(columns)
        self.rows = []

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValueError("expected %d values" % len(self.columns))
        self.rows.append([_fmt(v) for v in values])

    def render(self):
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for pos, cell in enumerate(row):
                widths[pos] = max(widths[pos], len(cell))
        lines = ["== %s ==" % self.title]
        header = "  ".join(c.ljust(widths[p])
                           for p, c in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[p])
                                   for p, cell in enumerate(row)))
        return "\n".join(lines)

    def show(self):
        print()
        print(self.render())


def _fmt(value):
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100 or abs(value) < 0.01:
            return "%.3g" % value
        return "%.3f" % value
    return str(value)


def _snapshot_outputs(program):
    """Copies of the program's output tensors as numpy arrays."""
    from repro.cin.analyze import output_tensors
    from repro.exec.worker import snapshot_tensor

    return [snapshot_tensor(tensor) for tensor in output_tensors(program)]


def summarize(values):
    """(min, median, max) of a sequence."""
    ordered = sorted(values)
    if not ordered:
        return (0.0, 0.0, 0.0)
    mid = ordered[len(ordered) // 2]
    return (ordered[0], mid, ordered[-1])
