"""The autotuner search engine: measure, verify, persist, look up.

:func:`tune_program` runs one exhaustive (or budget-truncated) search
over a program's candidate schedules (:mod:`repro.tune.schedule`):
every candidate is compiled through the ordinary kernel pipeline,
**verified bit-identical against the reference interpreter** before it
may compete (:func:`repro.fuzz.conform.verify_candidate` — a fast
wrong answer is not a win, it is a bug), then timed with
warmup-discarded median-of-k (:func:`repro.bench.harness.
median_time_kernel`).  The fastest verified candidate becomes the
*winner* and is persisted into the active
:class:`~repro.store.KernelStore`'s tunings table under a
protocol-erased structural key plus the ``opt_level`` and backend the
search compiled at (:func:`repro.tune.schedule.tuning_key_meta`).

:func:`lookup_schedule` is the read side ``compile_kernel(...,
tune="apply")`` calls: a table hit (validated against the concrete
program before use) rewrites the program's protocols; a miss compiles
the program as written.  Candidates compile uncached; the winner's
artifact alone is filed into the store next to its tuning record — a
fresh process applying the winner pays zero search and zero compiles,
just two disk reads.
"""

import logging
import time

from repro.tune import schedule as _sched

_log = logging.getLogger("repro.tune")

#: Per-process memo of winners-table hits, keyed by tuning-record
#: digest: one disk read per program structure per process, not one
#: per compile.  Only *hits* memoize — a miss stays a cheap
#: ``os.path.exists`` probe, and a table written later in the process
#: (a tune run) must become visible.
_MEMO = {}


def clear_tuning_memo():
    """Drop the per-process winners memo (tests, and tune runs that
    rewrite the table)."""
    _MEMO.clear()


def lookup_schedule(program, opt_level, backend,
                    constant_loop_rewrite=True):
    """The persisted winning schedule for ``program`` compiled at the
    resolved ``opt_level`` and ``backend``, or None.

    Consults the active store's tunings table under the
    protocol-erased tuning key; any hit is shape-validated against the
    concrete program (:func:`repro.tune.schedule.validate_schedule`)
    before it is returned — a record that does not fit reads as a
    miss, never as a crash or a misapplied rewrite.
    """
    from repro.compiler.key import entry_digest
    from repro.store import active_store

    meta = _sched.tuning_key_meta(
        program, opt_level, backend,
        constant_loop_rewrite=constant_loop_rewrite)
    digest = entry_digest(meta)
    cached = _MEMO.get(digest)
    if cached is not None:
        return cached
    store = active_store()
    if store is None:
        return None
    record = store.load_tuning(meta)
    if not isinstance(record, dict):
        return None
    schedule = record.get("schedule")
    if not _sched.validate_schedule(program, schedule):
        _log.warning(
            "tuning record %s does not fit the program it keys; "
            "ignoring it", digest)
        return None
    schedule = _MEMO[digest] = {"protocols": schedule["protocols"]}
    return schedule


def tune_program(make_program, label="program", budget=None, repeats=5,
                 warmup=1, constant_loop_rewrite=True, store=None,
                 persist=True):
    """Search one program's protocol assignments; returns a result
    dict.

    ``make_program`` builds the program over its representative data
    (fresh tensors are fine; every candidate is rewritten from one
    instance, so all candidates bind *identical* data and their
    timings are comparable).  ``budget`` caps the number of candidates
    measured (the program as written always survives the cut; the drop
    is reported, never silent).

    Candidates compile uncached at the ``opt_level`` and backend the
    ordinary precedence rule resolves (``fl.configure`` / ``FL_*``
    env / default), and the winner is keyed by them.  With
    ``persist=True`` and a store (default: the active store) the
    winner lands in the tunings table and its artifact in the store's
    entries, so applying it costs no compile; divergent or crashing
    candidates are *never* eligible, no matter how fast.

    The result dict carries the winner (``schedule``), per-candidate
    ``records``, ``baseline_s``/``best_s``/``speedup``, the counts
    (``candidates``/``measured``/``verified``/``rejected``/
    ``errors``/``dropped``), and ``persisted`` (the record path, or
    None).
    """
    from repro.bench.harness import median_time_kernel
    from repro.compiler.kernel import KERNEL_CACHE, compile_kernel
    from repro.compiler.key import KernelKey, entry_digest
    from repro.compiler.options import CompileOptions
    from repro.compiler.tiers import put
    from repro.fuzz.conform import reference_outputs, verify_candidate
    from repro.store import active_store

    if store is None:
        store = active_store()

    program = make_program()
    # One interpreter run covers every candidate: they all rewrite
    # *this* program over *these* tensors, so the trusted answer is a
    # constant of the search.  A program the reference interpreter
    # cannot execute is unverifiable — no candidate can ever become
    # eligible, so the search is skipped honestly rather than crashed.
    try:
        expected = reference_outputs(program)
    except Exception as exc:
        _log.warning("tune %s: reference interpreter cannot run the "
                     "program (%s: %s); skipping the search",
                     label, type(exc).__name__, exc)
        return {
            "label": label,
            "candidates": 0, "dropped": 0, "measured": 0,
            "verified": 0, "rejected": 0, "errors": 1,
            "baseline_s": None, "best_s": None, "schedule": None,
            "speedup": None, "records": [],
            "persisted": None, "seconds": 0.0,
            "unverifiable": "%s: %s" % (type(exc).__name__, exc),
        }
    candidates = _sched.enumerate_candidates(program)
    dropped = 0
    if budget is not None and len(candidates) > max(1, int(budget)):
        kept = max(1, int(budget))
        dropped = len(candidates) - kept
        _log.info("tune %s: budget %d keeps %d of %d candidates",
                  label, kept, kept, len(candidates))
        candidates = candidates[:kept]

    # tune="off" unconditionally: the search must measure each
    # candidate as enumerated, never re-apply the very table it is
    # rebuilding (FL_KERNEL_TUNE=apply in the environment would
    # otherwise recurse into it).  cache=False: only the winner is
    # worth a store entry, and it is filed once below.
    options = CompileOptions(cache=False, tune="off")
    records = []
    winner = artifact = None
    start = time.perf_counter()
    for position, candidate in enumerate(candidates):
        record = {"schedule": candidate,
                  "describe": _sched.describe_schedule(candidate),
                  "median_s": None, "verified": False, "error": None}
        records.append(record)
        try:
            variant = _sched.apply_schedule(program, candidate)
            kernel = compile_kernel(
                variant, constant_loop_rewrite=constant_loop_rewrite,
                options=options)
        except Exception as exc:
            record["error"] = "%s: %s" % (type(exc).__name__, exc)
            continue
        divergences = verify_candidate(
            variant, kernel, name="candidate[%d]" % position,
            expected=expected)
        if divergences:
            record["error"] = "diverged: %s" % "; ".join(
                str(d) for d in divergences)
            continue
        record["verified"] = True
        record["effective_backend"] = kernel.effective_backend
        record["median_s"] = median_time_kernel(
            kernel, repeats=repeats, warmup=warmup)
        if winner is None or record["median_s"] < winner["median_s"]:
            winner, artifact = record, kernel.artifact

    baseline = records[0] if records and records[0]["verified"] else None

    result = {
        "label": label,
        "candidates": len(candidates),
        "dropped": dropped,
        "measured": len(records),
        "verified": sum(1 for r in records if r["verified"]),
        "rejected": sum(1 for r in records
                        if r["error"] and r["error"].startswith(
                            "diverged")),
        "errors": sum(1 for r in records
                      if r["error"] and not r["error"].startswith(
                          "diverged")),
        "baseline_s": baseline["median_s"] if baseline else None,
        "best_s": winner["median_s"] if winner else None,
        "schedule": winner["schedule"] if winner else None,
        "speedup": (baseline["median_s"] / winner["median_s"]
                    if baseline and winner and winner["median_s"] > 0
                    else None),
        "records": records,
        "persisted": None,
        "seconds": time.perf_counter() - start,
    }
    if persist and winner is not None and store is not None:
        payload = {
            "label": label,
            "schedule": winner["schedule"],
            "median_s": winner["median_s"],
            "baseline_s": result["baseline_s"],
            "speedup": result["speedup"],
            "candidates": len(candidates),
        }
        put(KernelKey.of(artifact), artifact, memory=KERNEL_CACHE,
            store=store)
        meta = _sched.tuning_key_meta(
            program, artifact.opt_level, artifact.backend,
            constant_loop_rewrite=constant_loop_rewrite)
        result["persisted"] = store.save_tuning(meta, payload)
        # The table changed under this process; re-read on next apply.
        _MEMO.pop(entry_digest(meta), None)
    return result
