"""Exception classes and the ``key=<int>`` list parser shared across the
package.

Every library refusal is one of these classes, each documented failure
mode its own, so callers can dispatch on type rather than on message text;
each class carries the exit code the CLI returns for it.
"""


class KidaError(Exception):
    """Base class for all library errors, raised itself where no subclass
    fits (as by ``tower_places``); a domain error unless marked."""

    exit_code = 2


# -- arith -------------------------------------------------------------

class NotAUnit(KidaError):
    """Residue is not invertible modulo its modulus; crt moduli not coprime."""


class ZeroInput(KidaError):
    """Valuation of 0 or to a base < 2, or factor() below 1: endless loops."""


# -- chargroup ---------------------------------------------------------

class SubgroupMismatch(KidaError):
    """Malformed group data: a group that is no chain of invariant
    factors (one below 2, or one not dividing the next), a subgroup or
    character that does not belong to the expected group (a generator or
    exponent vector of the wrong length, or an entry out of range), a
    negative multiplicity, or a subgroup's stated order that contradicts
    its elements."""


# -- eta and qexp ------------------------------------------------------

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

class IncoherentGenericData(KidaError):
    """Generic values incompatible with the tower, or unnested degrees."""


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
    """Malformed field, form, or local-type input, as a string or as values."""

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
