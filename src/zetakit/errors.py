"""Exception types shared across the toolkit."""


class ZetakitError(Exception):
    """Base class for all toolkit errors."""


class NotPrime(ZetakitError):
    pass


class DegreeZero(ZetakitError):
    pass


class IncompatibleFields(ZetakitError):
    pass


class FieldMismatch(ZetakitError):
    pass


class MixedCyclotomicOrder(ZetakitError):
    pass


class BudgetExceeded(ZetakitError):
    def __init__(self, estimate, budget):
        super().__init__(f"enumeration needs ~{estimate} candidates, budget is {budget}")
        self.estimate = estimate
        self.budget = budget


class NonHomogeneous(ZetakitError):
    pass


class ProjectiveWithNonzeroF(ZetakitError):
    pass


class TallyTooShallow(ZetakitError):
    pass


class RouteMismatch(ZetakitError):
    pass


class NonIntegralCoefficient(ZetakitError):
    pass


class CoefficientMismatch(ZetakitError):
    def __init__(self, n, lhs, rhs):
        super().__init__(f"coefficient of t^{n} differs: {lhs} != {rhs}")
        self.n = n


class NoCandidate(ZetakitError):
    pass


class InsufficientOrder(ZetakitError):
    pass


class OrderMismatch(ZetakitError):
    pass


class NonIntegralResult(ZetakitError):
    pass


class NonSquare(ZetakitError):
    pass


class UnverifiedCandidate(ZetakitError):
    pass


class ZeroVector(ZetakitError):
    pass


class ZeroInput(ZetakitError):
    pass


class InsufficientSamples(ZetakitError):
    pass


class PoorFit(ZetakitError):
    pass


class NotASubvariety(ZetakitError):
    pass


class NotProjective(ZetakitError):
    pass


class PrefixTooShort(ZetakitError):
    pass


class Uncovered(ZetakitError):
    def __init__(self, point):
        super().__init__(f"point {point} covered by no piece")
        self.point = point


class DoubleCovered(ZetakitError):
    def __init__(self, point):
        super().__init__(f"point {point} covered by more than one piece")
        self.point = point


class TotalMismatch(ZetakitError):
    pass


class NoStrictDrop(ZetakitError):
    pass


class UnrepresentableComplement(ZetakitError):
    pass


class BaseMismatch(ZetakitError):
    pass


class MissingBaseMap(ZetakitError):
    pass


class NonzeroRealization(ZetakitError):
    def __init__(self, q, twist, value):
        super().__init__(f"expected 0 over F_{q} (twist {twist}), got {value}")
        self.q = q
        self.twist = twist
        self.value = value


class IncompleteTable(ZetakitError):
    pass


class NotASubgroup(ZetakitError):
    pass


class ParseError(ZetakitError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NonRational(ZetakitError):
    pass


class ConstantTermNotOne(ZetakitError):
    pass
