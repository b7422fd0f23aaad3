"""Exception hierarchy shared by all kreiss modules."""


class KreissError(Exception):
    """Base class for all errors raised by this package."""


# --- matrix input / generation -------------------------------------------

class ParseError(KreissError):
    """A matrix file could not be parsed."""


class NotSquareError(KreissError):
    """The input matrix is not square."""


class UnstableError(KreissError):
    """The matrix violates the declared stability assumption."""


class ZeroEigenvalueError(KreissError):
    """Zero is an eigenvalue of a discrete-time matrix."""


class UnknownKindError(KreissError):
    """Unknown test-matrix kind."""


class MissingBaseMatrixError(KreissError):
    """A base-matrix file is required for this test-matrix kind."""


# --- dense kernels ---------------------------------------------------------

class ConvergenceFailure(KreissError):
    """A dense eigenvalue/SVD backend failed to converge."""


class SingularPencilError(KreissError):
    """The matrix pencil was detected to be non-regular."""


class NearSingularOperatorError(KreissError):
    """A (shifted) linear operator is too close to singular to solve with."""


class ArnoldiBreakdownError(KreissError):
    """The Arnoldi iteration broke down irrecoverably."""


class MaxIterationsError(KreissError):
    """An iterative eigensolver hit its iteration limit with no results."""


# --- objective evaluation --------------------------------------------------

class NonsimpleSigmaError(KreissError):
    """The smallest singular value is not simple at this point."""


class ZeroSigmaError(KreissError):
    """The smallest singular value vanishes; derivatives are undefined."""


class DegenerateGapError(KreissError):
    """An eigenvalue-difference denominator is too small for a stable Hessian."""


# --- optimization / solvers -------------------------------------------------

class InfeasibleStartError(KreissError):
    """The starting point is outside the feasible search domain."""


# --- divide-and-conquer ----------------------------------------------------

class ZeroShiftError(KreissError):
    """A zero shift is invalid for this shifted-inverse operator."""


class MaxShiftsError(KreissError):
    """The divide-and-conquer sweep exceeded its shift budget."""
