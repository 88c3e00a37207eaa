"""Schedule/protocol autotuning with a persisted winners table.

The paper's central claim is that *coiteration strategy* — which
protocol each tensor access uses to traverse its levels — changes the
asymptotics of a kernel, and that the strategy is a compiler choice,
not a format property.  This package closes the loop: instead of the
program author hand-picking ``gallop`` vs ``walk`` per access, the
autotuner enumerates the protocol assignments, times each on
representative data at the ``opt_level`` and backend the ordinary
precedence rule resolves, rejects any candidate that is not
**bit-identical** to the reference interpreter, and persists the
fastest survivor into the kernel store's ``tunings/`` table under a
row keyed by that configuration.  From then on
``compile_kernel(program, tune="apply")`` — or ``FL_KERNEL_TUNE=apply``
for a whole process — reads the row of the configuration it resolved
and compiles the winning protocols with zero search; a tuning never
chooses the level or backend.

Layout:

:mod:`repro.tune.schedule`
    The schedule representation (per-access protocol lists over the
    canonical ``collect_accesses`` preorder), the protocol rewriter,
    the protocol-erased tuning key, and candidate enumeration.

:mod:`repro.tune.engine`
    The search loop: compile → verify against the interpreter → time
    (warmup + median-of-k) → persist the winner; plus the read side
    ``compile_kernel`` calls.

:mod:`repro.tune.__main__`
    ``python -m repro.tune`` — search the benchmark figure registry
    (or one fuzz spec) and print/persist the results.
"""

from repro.tune.engine import (
    clear_tuning_memo,
    lookup_schedule,
    tune_program,
)
from repro.tune.schedule import (
    TUNE_VERSION,
    apply_schedule,
    describe_schedule,
    enumerate_candidates,
    extract_protocols,
    neutral_digest,
    tunable_sites,
    tuning_key_meta,
    validate_schedule,
)

__all__ = [
    "TUNE_VERSION",
    "apply_schedule",
    "clear_tuning_memo",
    "describe_schedule",
    "enumerate_candidates",
    "extract_protocols",
    "lookup_schedule",
    "neutral_digest",
    "tunable_sites",
    "tune_program",
    "tuning_key_meta",
    "validate_schedule",
]
