"""Exception types shared across the package, and the one whole-number refusal."""

import math


class InadmissibleInputError(ValueError):
    """Input fails a positivity certificate (state, channel, or Hamiltonian)."""


class NonRegularChannelError(InadmissibleInputError):
    """Channel has singular K, so the closed-form gain is undefined."""


class HypothesisViolationError(ValueError):
    """A verification routine was called outside its stated hypotheses."""


def _whole(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as an int, refused by name unless it is a whole number in [low, high)."""
    try:
        if low <= value < high and not value % 1:
            return int(value)
    except (TypeError, ValueError):  # not a number, or an array
        pass
    below = f" and < {high}" if high < math.inf else ""
    raise InadmissibleInputError(f"{name} must be an integer >= {low}{below}, got {value!r}")
