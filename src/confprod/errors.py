"""Error taxonomy.

EngineError is the common base so callers (in particular the CLI, which maps
configuration and domain problems to exit code 2) can catch everything the
engine raises deliberately.
"""

from __future__ import annotations


class EngineError(Exception):
    pass


class ExprSyntaxError(EngineError):
    """Malformed expression text. Carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(EngineError):
    """Identifier that is neither a chart coordinate, 'pi', nor a known function."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}' (at position {position})")
        self.name = name
        self.position = position


class DomainError(EngineError):
    """Evaluation left the domain of a node (log of a non-positive value, ...).

    The offending node is identified by its printed form.
    """

    def __init__(self, message: str, node_text: str):
        super().__init__(f"{message} in '{node_text}'")
        self.node_text = node_text


class OutsideDomainError(EngineError):
    """A point fell outside the open box of a chart."""


def _plain_point(point) -> tuple[float, ...]:
    # plain floats, so messages read (0.1, 0.2) rather than numpy scalar reprs
    return tuple(float(v) for v in point)


class SingularMetricError(EngineError):
    """Metric not positive definite (eigenvalue test) at a sampled point."""

    def __init__(self, point, min_eigenvalue: float):
        self.point = _plain_point(point)
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"metric not positive definite at {self.point} "
            f"(min eigenvalue {self.min_eigenvalue:.3e})"
        )


class NonPositiveConformalFactorError(EngineError):
    def __init__(self, point, value: float):
        self.point = _plain_point(point)
        self.value = float(value)
        super().__init__(f"conformal factor is {self.value:.6g} <= 0 at {self.point}")


class BadParameterError(EngineError):
    pass


class EmptyDomainError(BadParameterError):
    """The sample plan is unusable, or its margin leaves an empty box."""


class ConstantSummandError(EngineError):
    """A summand of the factor function is constant on the sampled box.

    Not a failure: the caller is expected to fall back to the warped route.
    """


class IllConditionedFitError(EngineError):
    pass


class FitFailureError(EngineError):
    pass


class UnknownScenarioError(EngineError):
    def __init__(self, name: str):
        super().__init__(f"unknown scenario '{name}'")
        self.name = name


class UnsupportedDimError(EngineError):
    pass
