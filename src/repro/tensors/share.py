"""Adopt tensors into a shared-memory arena for zero-copy batching.

:func:`share_tensor` moves every buffer of a fiber-tree tensor into a
:class:`~repro.exec.shm.ShmArena` — one copy, at adoption time.  The
tensor keeps working exactly as before in this process (its levels now
hold numpy views over the arena segments), but from then on the
``processes`` executor ships it to workers as a descriptor instead of
bytes: workers map the same physical pages and rebind views, and
writes to *output* tensors land directly in the caller's buffers.

This works generically over every level format because the buffer
name hints returned by ``Level.buffers()`` are the level's attribute
names: both come from the class's one ``ARRAYS`` declaration (``pos``,
``idx``, ...), which the kernel binding plan relies on too.

The benchmark harness adopts its datasets up front so that repeated
batches move zero tensor bytes; long-running services can do the same
for standing inputs.  Append outputs (:class:`~repro.tensors.output.RunOutput`
and friends) pass through unchanged: their streams are scratch the
kernel overwrites, so the ``processes`` executor stages them and
writes them back like any non-resident tensor.
"""

#: Adoptions made by this process.  A bound ``Kernel`` holds the
#: arrays its tensors had at bind time: it compares this count on each
#: ``run`` (one integer) and re-binds its tensors after it moved.
_adoptions = 0


def share_tensor(tensor, arena):
    """Move ``tensor``'s buffers into ``arena``; returns the tensor.

    Safe to call on any dataset member: objects without the fiber-tree
    buffer protocol (append outputs) are returned untouched.

    Kernels already bound to ``tensor`` follow it on their next
    ``run``.  A hand-assigned ``element.val`` or level array is not
    noticed: such a kernel needs an explicit ``kernel.rebind(...)``.
    """
    global _adoptions
    levels = getattr(tensor, "levels", None)
    element = getattr(tensor, "element", None)
    if levels is None or element is None:
        return tensor
    for level in levels:
        for hint, array in level.buffers().items():
            setattr(level, hint, arena.add(array))
    element.val = arena.add(element.val)
    _adoptions += 1
    return tensor


def share_dataset(tensors, arena):
    """Adopt every tensor of one dataset; returns the same
    sequence (or name->tensor mapping)."""
    members = tensors.values() if hasattr(tensors, "values") else tensors
    for tensor in members:
        share_tensor(tensor, arena)
    return tensors
