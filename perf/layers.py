"""Per-layer metrics of a traced run, derived from its spans.

``BENCHMARK.json`` is the catalogue: every ``per_layer`` entry is
either the duration of the spans of that name (their median, like the
end-to-end latency, in the entry's unit), a value or count a workload
noted at a layer boundary, or one of the composites computed here
from several spans.
"""

import os
import subprocess
import sys

import programs as P
from harness import median

_NS_PER = {"ms": 1e6, "us": 1e3, "s": 1e9}

#: Programs and executors of the batch workload; each kind's
#: efficiency is measured against the serial run of its program.
_BATCH_PROGRAMS = ("spmspv.py", "triangles.c")
_BATCH_EXECUTORS = ("threads", "processes")


def probe_import(rec, src_dir, repeats=5):
    """``lang.import_ms``: a fresh interpreter importing the language
    surface, which every ``setup_s`` pays once."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    for _ in range(repeats):
        with rec.span("lang.import_ms"):
            subprocess.run([sys.executable, "-c", "import repro.lang"],
                           env=env, check=True)


def _composites(durations, values, workers):
    """Metrics made of more than one span name."""
    out = {}

    def mid(name):
        return median(durations[name])

    for fig in P.FIGS:
        out["compiler.optimize_delta_ms." + fig] = (
            mid("compiler.cold_ms.%s.py" % fig)
            - mid("compiler.cold0_ms." + fig)) / 1e6
        out["baselines.ratio." + fig] = (
            mid("baselines.time." + fig)
            / mid("run.ms.%s.py" % fig))
    items = values["exec.batch_items"]
    for label in _BATCH_PROGRAMS:
        serial = items * 1e9 / mid("exec.map.%s.serial" % label)
        out["exec.serial_items_per_s." + label.split(".")[0]] = serial
        for executor in _BATCH_EXECUTORS:
            kind = "%s.%s" % (label, executor)
            rate = items * 1e9 / mid("exec.map." + kind)
            out["exec.items_per_s." + kind] = rate
            out["exec.efficiency." + kind] = rate / serial / workers
    return out


def derive(rec, catalogue, workers):
    """``{name: value}`` for every ``per_layer`` entry of
    ``catalogue``; raises ``KeyError`` naming an entry no span, value
    or count produced."""
    durations = rec.durations()
    values = {name: median(v) if isinstance(v, list) else v
              for name, v in rec.values.items()}
    composites = _composites(durations, values, workers)
    out = {}
    for entry in catalogue:
        name, unit = entry["name"], entry["unit"]
        if name in composites:
            out[name] = composites[name]
        elif name in values:
            out[name] = values[name]
        elif name in rec.counts:
            out[name] = rec.counts[name]
        elif name in durations:
            out[name] = median(durations[name]) / _NS_PER[unit]
        else:
            raise KeyError("no span or value for per-layer metric %r"
                           % name)
    return out
