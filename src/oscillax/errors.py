"""Exception types shared across the package."""


class OscillaxError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(OscillaxError):
    """A model or distribution violates a structural hypothesis."""


class NotAperiodic(ValidationError):
    pass


class SupportOneSided(ValidationError):
    pass


class O3Violated(ValidationError):
    def __init__(self, d, dprime):
        self.d, self.dprime = d, dprime
        super().__init__(f"D*D' = {d}*{dprime} = {d * dprime} > -2")


class O4Violated(ValidationError):
    pass


class NotCentered(ValidationError):
    pass


class DegenerateInterval(OscillaxError):
    pass


class IdenticalTransforms(OscillaxError):
    pass


class ConventionMismatch(OscillaxError):
    """The model's media do not fit the analysis asked for: ``classify`` on
    a three-media (P,P) or (N,P) model, a drift case ``select_tilt`` does
    not cover, or a start outside its medium in ``first_passage_rows``."""


class WindowTooSmall(OscillaxError):
    pass


class NoConvergence(OscillaxError):
    pass


class PlateauNotReached(OscillaxError):
    pass


class SequenceTooNoisy(OscillaxError):
    pass


class LeakDominated(OscillaxError):
    pass


class TieUnresolvable(OscillaxError):
    """A float comparison landed inside the tie tolerance and no exact
    (rational) probabilities are available to resolve it."""

