"""Exception classes, the record base and the ``key=<int>`` list parser
shared across the package.

Every documented failure mode has its own class so callers can dispatch
on type rather than on message text, and each class carries the exit code
the CLI returns for it.
"""

from operator import attrgetter


class Record:
    """Immutable value record.

    A subclass names its fields in ``__slots__``, in constructor order,
    and sets them in ``__init__`` through ``object.__setattr__`` (``_fill``
    sets them all in that order).  The fields in ``_compare`` (all of them
    unless the subclass says) give equality within the class, the hash and
    the ``Name(field=value, ...)`` repr.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__dict__.get("_compare", cls.__slots__)
        cls._compare = names
        cls._key = staticmethod(attrgetter(*names) if names
                                else lambda record: ())

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._compare)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through __init__: __setattr__ refuses
        return type(self), tuple(getattr(self, name)
                                 for name in self.__slots__)


class KidaError(Exception):
    """Base class for all library errors; a domain error unless marked."""

    exit_code = 2


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
    conductor, a number to factor, a precision budget or a suite size."""


class RamifiedLevel(KidaError):
    """Frobenius data requested at a prime dividing the level."""


class MissingCoefficient(KidaError):
    """Coefficient source does not cover the requested index."""


# -- splitting ---------------------------------------------------------

class NotASubfield(KidaError):
    """The base field's conductor does not divide the extension's, or the
    extension's subgroup does not reduce into the base field's."""

    exit_code = 3


class NotPPower(KidaError):
    """Relative degree is not a power of the working prime."""

    exit_code = 3


class TameAtP(KidaError):
    """A field has a character whose p-part is tamely ramified (its H
    misses the Teichmueller (p-1)-torsion at p), so no field unramified
    at p has its cyclotomic p-tower."""


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

    exit_code = 4


class ChainMismatch(KidaError):
    """Transition reports do not form an aligned tower."""


class InternalAdditivityViolation(KidaError):
    """Tower bookkeeping, an exact cyclotomic division or the division by
    756 in Ramanujan's tau identity failed; indicates a library bug."""


class NegativeLambda(KidaError):
    """The local contributions drive lambda.out below 0, which no tower
    with mu = 0 has: the local types cannot be those of the form."""


# -- cli / input grammars ---------------------------------------------

class SpecParseError(KidaError):
    """Malformed field, form, or local-type input string."""

    exit_code = 3


def parse_int_fields(spec: str, body: str,
                     keys: tuple[str, ...]) -> dict[str, int]:
    """The ``key=<int>,...`` list ``body`` of ``spec``, each key one of
    ``keys`` and given at most once; which keys are required is the
    caller's rule."""
    out: dict[str, int] = {}
    for item in body.split(","):
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in keys:
            raise SpecParseError(f"bad field {item!r} in {spec!r}: "
                                 f"expected {'|'.join(keys)}=<int>")
        if key in out:
            raise SpecParseError(f"{spec!r}: {key} given twice")
        try:
            out[key] = int(value)
        except ValueError:
            raise SpecParseError(f"bad integer in {spec!r}")
    return out
