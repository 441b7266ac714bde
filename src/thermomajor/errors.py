"""Exception hierarchy shared by all thermomajor modules."""


class ThermomajorError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(ThermomajorError):
    """Vectors or matrices that must share a dimension do not."""


class NonPositiveWeight(ThermomajorError):
    """A Gibbs weight is zero or negative (energies must be finite)."""


class NegativeProbability(ThermomajorError):
    """A probability entry is negative."""


class ProbSumNotOne(ThermomajorError):
    """Probabilities do not sum to exactly one (checked as rationals)."""


class WidthMismatch(ThermomajorError):
    """Curves compared for majorization have different total widths."""


class GibbsInput(ThermomajorError):
    """Operation requires a non-equilibrium state but received a Gibbs state."""


class NontrivialHamiltonian(ThermomajorError):
    """Operation is only defined for equal Gibbs weights on every level."""


class ZeroProbability(ThermomajorError):
    """Operation requires strictly positive probabilities."""


class InvalidTemperatures(ThermomajorError):
    """Engine parameters violate 0 < beta_hot <= beta_cold or epsilon > 0."""


class DimensionCapExceeded(ThermomajorError):
    """LP oracle invoked above its configured dimension cap."""


class InvalidCurve(ThermomajorError, ValueError):
    """Curve segments violate the canonical-form invariants."""


class OutsideDomain(ThermomajorError, ValueError):
    """An argument lies outside the domain of the function it was passed to."""


class InvalidOrder(ThermomajorError, ValueError):
    """A Renyi order is nan or -inf (valid orders are real numbers or +inf),
    or a grid of orders is empty."""


class ParseError(ThermomajorError):
    """Malformed input file or rational literal."""


class ReproductionMismatch(ThermomajorError):
    """A reproduction target produced a value outside its tolerance."""
