"""What the CLI reads before numpy loads: exception types, the defaults argv is checked
against, and the refusals that need no array."""

import math

DEFAULT_TOL = 1e-9
DEFAULT_DIM = 60  # Fock-space cutoff


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


def _beta_grid_points(beta_max: float, beta_min: float, points) -> int:
    """Point count of a descending beta grid, refused unless beta_max > beta_min > 0 and points >= 2."""
    if not (beta_max > beta_min > 0):
        raise InadmissibleInputError("need beta_max > beta_min > 0")
    return _whole("beta grid points", points, 2)
