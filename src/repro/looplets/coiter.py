"""Coiterating looplets: Stepper and Jumper.

A stepper is an unbounded sequence of identical child looplets; a
jumper is the same but elects itself a *leader* during coiteration by
declaring the widest extent it can handle (enabling galloping
intersections, Section 7 of the paper).

Both manipulate runtime state in the generated code (typically a
position cursor into a coordinate array), so their pieces are emitted
code fragments:

``preamble()``
    statements run once when the looplet enters scope (e.g. ``p =
    pos[i]``).
``seek(ctx, start)``
    statements that position the cursor at the first child intersecting
    ``start`` (often a binary search): every stride the lowerer reads
    from then on lies past the cursor of its loop.
``stride``
    IR expression for the *exclusive* end of the current child.
``body``
    the current child looplet; may be extent-dependent
    (``body(ctx, ext)``).
``next(ctx)``
    statements advancing to the next child; the lowerer guards them
    with "did this looplet's child end here?".
"""

from repro.ir.nodes import as_expr
from repro.looplets.base import Looplet, Style


def _no_stmts(*_args, **_kwargs):
    return []


class _Coiterator(Looplet):
    """What a stepper and a jumper share.

    ``stop``, when known, is an expression no stride passes: the end of
    the pipeline phase holding a stepper (:meth:`within`).  A jumper's
    ``fill``, when given, is the payload of every slot of a child but
    its last (its children are spikes): where its stride passes the
    region being lowered, it holds only ``fill`` there.
    """

    def __init__(self, stride, body, seek=None, next=None, preamble=None,
                 fill=None, stop=None):
        self.stride = as_expr(stride)
        self.body = body
        self.seek = seek or _no_stmts
        self.next = next or _no_stmts
        self.preamble = preamble or _no_stmts
        self.fill = fill
        self.stop = stop

    def within(self, stop):
        """This looplet, known to end its last child by ``stop``."""
        return type(self)(self.stride, self.body, self.seek, self.next,
                          self.preamble, self.fill, stop)

    def __repr__(self):
        return "%s(stride=%r)" % (type(self).__name__, self.stride)


class Stepper(_Coiterator):
    """Repeated application of the same child looplet (Figure 2)."""

    STYLE = Style.STEPPER


class Jumper(_Coiterator):
    """Like a stepper, but may be asked to cover an extent *wider* than
    one child, enabling accelerated (galloping) iteration."""

    STYLE = Style.JUMPER
