"""The exception for bad user input, how an input is shown in error
messages, and the integer test the input checks share."""

import numpy as np


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; False for bool, float and the rest."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _shown(value) -> str:
    """repr of an input for an error message, cut to 60 characters.

    A string is cut before its repr, so the count is of its characters;
    any other value is cut after it.  A value whose repr raises (an int
    past the interpreter's digit limit, or a container holding one) is
    shown by its type, and an int also by its bit length.
    """
    if isinstance(value, str):
        head, size = repr(value[:60]), len(value)
    else:
        try:
            head = repr(value)
        except ValueError:
            if isinstance(value, int):
                return f"<int of {value.bit_length()} bits>"
            return f"<{type(value).__name__}>"
        head, size = head[:60], len(head)
    return head if size <= 60 else f"{head}… ({size} chars)"


class ValidationError(ValueError):
    """User-supplied data violates a required invariant (e.g. a matrix
    offered as a density matrix is not unit trace). The message names the
    violated invariant."""
