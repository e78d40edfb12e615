"""Exception types shared across the package."""


class InadmissibleInputError(ValueError):
    """Input fails a positivity certificate (state, channel, or Hamiltonian)."""


class NonRegularChannelError(InadmissibleInputError):
    """Channel has singular K, so the closed-form gain is undefined."""


class HypothesisViolationError(ValueError):
    """A verification routine was called outside its stated hypotheses."""
