"""Exception classes shared across the package.

Every documented failure mode has its own class so callers (and the CLI
exit-code mapping) can dispatch on type rather than on message text.
"""


class KidaError(Exception):
    """Base class for all library errors."""


# -- arith -------------------------------------------------------------

class NotAUnit(KidaError):
    """Residue is not invertible modulo its modulus."""


class ZeroInput(KidaError):
    """p-adic valuation of zero requested."""


# -- chargroup ---------------------------------------------------------

class SubgroupMismatch(KidaError):
    """Subgroup does not live inside the expected ambient group, or its
    stated order contradicts its elements."""


# -- qexp --------------------------------------------------------------

class PrecisionExceeded(KidaError):
    """Coefficient index beyond the configured series precision."""


class BadReduction(KidaError):
    """Prime divides the curve discriminant."""


class BoundExceeded(KidaError):
    """Input beyond a supported work bound: a point-counting prime, a
    field conductor or a precision budget."""


class RamifiedLevel(KidaError):
    """Frobenius data requested at a prime dividing the level."""


class MissingCoefficient(KidaError):
    """Coefficient source does not cover the requested index."""


# -- splitting ---------------------------------------------------------

class NotASubfield(KidaError):
    """Claimed field containment fails after conductor alignment."""


class NotPPower(KidaError):
    """Relative degree is not a power of the working prime."""


# -- localfactor -------------------------------------------------------

class GenericUnsupported(KidaError):
    """Operation undefined for generic (user-tabulated) local types."""


class IncoherentGenericData(KidaError):
    """Generic per-character values incompatible with the requested tower."""


# -- transition --------------------------------------------------------

class MuNonzero(KidaError):
    """Transition formula requires mu = 0 on input."""


class MissingLocalType(KidaError):
    """No local type available at a ramified prime dividing the level."""


class IncompleteTwistData(KidaError):
    """Per-character lambda values missing for some character."""


class ChainMismatch(KidaError):
    """Transition reports do not form an aligned tower."""


class InternalAdditivityViolation(KidaError):
    """Tower bookkeeping or exact cyclotomic division failed; indicates a
    library bug."""


class MismatchedInputs(KidaError):
    """Algebraic/analytic report pair disagrees on shared inputs."""


# -- cli / input grammars ---------------------------------------------

class SpecParseError(KidaError):
    """Malformed field, form, or local-type input string."""
