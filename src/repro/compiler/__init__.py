"""The Finch compiler: unfurling, progressive lowering, kernels.

The package re-exports nothing, so a process that needs only a
kernel's identity (:mod:`repro.compiler.key`) never loads the lowerer.
"""
