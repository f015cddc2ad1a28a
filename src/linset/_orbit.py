"""The one orbit loop: the iteration engine, the residue orbits, the
positive-difference iterates and the scaled construction all step through
``orbit``, so repeat detection and the step budget have one rule."""

from __future__ import annotations

from .epset import InputError


def orbit(step, states, max_steps=None, key=None, closes=None):
    """Extend ``states``, which holds x_0, by x_{k+1} = step(k, x_k).

    Closure: x_k repeats when its key, ``key(k, x_k)`` or x_k itself,
    equals the key of an earlier state; the first state with that key is
    its first occurrence x_i.  The repeat closes the orbit when ``closes``
    is None or ``closes(i)`` is true, and (i, k - i) is returned without
    appending x_k.  A repeat that does not close is appended, and x_i
    stays the first occurrence of its key.

    Budget: at most ``max_steps`` steps are taken, none for 0 and no limit
    for None, and None is returned when they run out.  A negative budget
    is an InputError.  An exception from ``step`` propagates and leaves
    the states computed so far in ``states``.
    """
    if max_steps is not None and max_steps < 0:
        raise InputError("step budget %d is negative" % max_steps)
    x = states[0]
    seen = {x if key is None else key(0, x): 0}
    k = 0
    while k != max_steps:
        x = step(k, x)
        k += 1
        i = seen.setdefault(x if key is None else key(k, x), k)
        if i < k and (closes is None or closes(i)):
            return i, k - i
        states.append(x)
    return None
