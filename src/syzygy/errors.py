"""Exception types shared across the package."""


class SyzygyError(Exception):
    """Base class for all library errors."""


class InconsistentSystem(SyzygyError):
    """A linear system x @ m = b has no solution."""


class NotAdmissible(SyzygyError):
    """A quiver relation has a component of path length < 2, or its paths
    are not parallel."""


class NotFiniteDimensional(SyzygyError):
    """The paths of a quiver presentation do not vanish by algebra.MAX_PATH_LENGTH."""


class BimoduleMismatch(SyzygyError):
    """The bimodule handed to the triangular constructor is not over the
    given pair of algebras."""


class NotIdempotent(SyzygyError):
    """The element handed to a corner constructor is not idempotent."""


class DimensionMismatch(SyzygyError):
    """Basis map between algebras of different dimensions."""


class AlgebraMismatch(SyzygyError):
    """Modules over different algebras were combined."""


class NotStable(SyzygyError):
    """The alleged submodule is not closed under the algebra action."""


class ShapeMismatch(SyzygyError):
    """A triple does not match the block shape of the triangular algebra."""


class CharTooSmall(SyzygyError):
    """The trace-form kernel of an End ring is not nilpotent, which can
    happen only when p <= dim End.  Only `decompose.endring_radical`
    raises it, and no computation of the package calls that."""


class ResourceGuard(SyzygyError):
    """A size or modulus limit protecting exact arithmetic was exceeded."""


class CorpusError(SyzygyError):
    """A corpus or algebra definition file failed to parse or resolve."""
