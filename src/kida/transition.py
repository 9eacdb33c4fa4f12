"""Global transition evaluators for Iwasawa invariants under p-extensions.

The single formula driving everything:

    lambda_out = [F'_infty : F_infty] * lambda_in
                 + sum over ramified prime-to-p places w' of m(local type)

valid when mu = 0 on input (and then mu = 0 on output).  The same shape
serves the algebraic, analytic, and signed (plus/minus) invariants; only
the asserted hypotheses differ.  Each ramified prime contributes
(number of places of the extension tower above it) x m(type, local degree),
priced by ``localfactor.m_extension``: the h-table for tabulated types,
the user's values for generic ones.  A place's type is a ``--local``
override or, away from the level, the form's ``qexp.local_type``.
"""

from __future__ import annotations

from . import arith, localfactor, qexp, splitting
from .errors import (ChainMismatch, InternalAdditivityViolation,
                     MissingLocalType, MuNonzero, NegativeLambda, Record,
                     SpecParseError)

KINDS = ("algebraic", "analytic", "plus", "minus")

HYPOTHESIS_NAMES = {
    "algebraic": (
        "graded_pieces_residually_distinct",
        "archimedean_rank_condition",
        "residual_invariants_vanish",
        "inertia_coinvariants_divisible",
    ),
    "analytic": (
        "p_ordinary",
        "residual_irreducible",
        "p_distinguished",
    ),
    "plus": (
        "supersingular_weight_two",
        "congruent_to_zp_coefficient_form",
        "extension_abelian_p_over_Q",
    ),
    "minus": (
        "supersingular_weight_two",
        "congruent_to_zp_coefficient_form",
        "extension_abelian_p_over_Q",
    ),
}


class InvariantRecord(Record):
    """(mu, lambda) of one kind; mu None means unknown."""

    __slots__ = ("kind", "mu", "lam")

    def __init__(self, kind: str, mu: int | None, lam: int | None):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if mu is not None and mu < 0:
            raise ValueError("mu must be >= 0")
        if mu != 0 and lam is not None:
            raise ValueError("lambda is only defined when mu = 0")
        if mu == 0 and (lam is None or lam < 0):
            raise ValueError("mu = 0 needs a lambda >= 0")
        self._fill(kind, mu, lam)


class LocalFactorReport(Record):
    """Per ramified prime: place counts and the local contribution.

    ``h`` is the table value (None on the generic path) and ``path`` is
    "table", "table(user)", "generic" or "composed".  ``local_type`` is
    carried for composition and takes no part in eq, hash or repr.
    """

    __slots__ = ("ell", "local_degree", "places", "m", "h", "path",
                 "type_spec", "local_type")
    _compare = __slots__[:-1]

    def __init__(self, ell: int, local_degree: int, places: int, m: int,
                 h: int | None, path: str, type_spec: str,
                 local_type: object):
        self._fill(ell, local_degree, places, m, h, path, type_spec,
                   local_type)

    @property
    def contribution(self) -> int:
        return self.places * self.m


class TransitionReport(Record):
    __slots__ = ("kind", "p", "form", "base_spec", "ext_spec", "base_field",
                 "ext_field", "degree", "lambda_in", "lambda_out", "mu_in",
                 "mu_out", "places", "hypotheses", "warnings")

    def __init__(self, kind: str, p: int, form: str, base_spec: str,
                 ext_spec: str, base_field: splitting.AbelianField,
                 ext_field: splitting.AbelianField, degree: int,
                 lambda_in: int, lambda_out: int, mu_in: int, mu_out: int,
                 places: tuple[LocalFactorReport, ...],
                 hypotheses: tuple[tuple[str, bool], ...],
                 warnings: tuple[str, ...]):
        self._fill(kind, p, form, base_spec, ext_spec, base_field, ext_field,
                   degree, lambda_in, lambda_out, mu_in, mu_out, places,
                   hypotheses, warnings)

    def to_invariant_record(self) -> "InvariantRecord":
        """The transported invariants, as the next step's input."""
        return InvariantRecord(self.kind, self.mu_out, self.lambda_out)

    def as_mapping(self) -> dict[str, object]:
        """Flat key/value view with deterministic keys (for output)."""
        out: dict[str, object] = {
            "kind": self.kind,
            "p": self.p,
            "form": self.form,
            "base": self.base_spec,
            "extension": self.ext_spec,
            "degree": self.degree,
            "lambda.in": self.lambda_in,
            "lambda.out": self.lambda_out,
            "mu.in": self.mu_in,
            "mu.out": self.mu_out,
        }
        for name, val in self.hypotheses:
            out[f"hypothesis.{name}"] = val
        for i, w in enumerate(self.warnings):
            out[f"warning.{i}"] = w
        for rep in self.places:
            k = f"local.{rep.ell}"
            out[f"{k}.degree"] = rep.local_degree
            out[f"{k}.places"] = rep.places
            out[f"{k}.m"] = rep.m
            if rep.h is not None:
                out[f"{k}.h"] = rep.h
            out[f"{k}.contribution"] = rep.contribution
            out[f"{k}.path"] = rep.path
            out[f"{k}.type"] = rep.type_spec
        return out


def parse_local_types(items, p: int) -> dict[int, object]:
    """ELL -> local type from ``ELL=TYPESPEC`` items (``kida transition
    --local``); each ELL a prime within the input bound, given once.  A
    prime need not be ramified: a level's local types may be listed whole."""
    out: dict[int, object] = {}
    for item in items or ():
        if "=" not in item:
            raise SpecParseError(f"bad --local {item!r}; use ell=typespec")
        ell_s, typespec = item.split("=", 1)
        try:
            ell = int(ell_s)
        except ValueError:
            raise SpecParseError(f"bad prime in --local {item!r}")
        arith.require_prime(f"--local {item!r}:", ell)
        if ell in out:
            raise SpecParseError(f"--local {item!r}: {ell} given twice")
        out[ell] = localfactor.parse_local_type(typespec, p)
    return out


def transition(*, p: int,
               base_field: splitting.AbelianField,
               ext_field: splitting.AbelianField,
               base: InvariantRecord,
               form: qexp.ModularFormData | None = None,
               local_types: dict[int, object] | None = None,
               assert_hypotheses: bool = False,
               precision: int | None = None) -> TransitionReport:
    """Transport (mu, lambda) from the base tower to the extension tower.

    Rejects mu != 0 inputs.  ``splitting.ramified_set`` reads the field
    pair: it refuses a field with a tame p-part (TameAtP) and otherwise
    reduces both fields at p, to the fields cut out by the tame parts of
    their characters, which have the same cyclotomic p-towers.  The report
    carries the reduced pair (with a warning when it is not the given one)
    and its p-power degree.  A ``local_types`` override gives the type at
    its prime; elsewhere ``qexp.local_type`` reads it off the form, over
    the base's residue field, and a missing form or a prime dividing the
    level raises MissingLocalType.
    """
    if base.mu != 0 or base.lam is None:
        raise MuNonzero(
            "transition formula needs mu = 0 (and a lambda) on input; "
            f"got mu={base.mu!r}")
    rs = splitting.ramified_set(base_field, ext_field, p)
    warnings: list[str] = []
    if rs.base != base_field or rs.ext != ext_field:
        warnings.append(
            "extension ramified above p: fields replaced by the fields cut "
            "out by the tame parts of their characters (the towers are "
            "unchanged)")
    if not assert_hypotheses:
        warnings.append(
            "standard hypotheses not asserted by the caller; the formula "
            "is applied formally")
    places = []
    for entry in sorted(rs.entries, key=lambda ent: ent.ell):
        ell = entry.ell
        user = ell in (local_types or ())
        if user:
            V = local_types[ell]
        elif form is None:
            raise MissingLocalType(
                f"no form and no local type supplied for ramified prime {ell}")
        elif form.level % ell == 0:
            raise MissingLocalType(
                f"{ell} divides the level {form.level}; supply a local type "
                f"for it explicitly")
        else:   # Frobenius of the base tower field (splitting.RamifiedPlace)
            V = qexp.local_type(form, ell, p, entry.f_prime_to_p, precision)
        m = localfactor.m_extension(V, entry.local_degree)
        generic = isinstance(V, localfactor.Generic)
        path = "generic" if generic else "table(user)" if user else "table"
        places.append(LocalFactorReport(
            ell=ell, local_degree=entry.local_degree,
            places=entry.places, m=m, h=None if generic else m, path=path,
            type_spec=localfactor.describe_local_type(V), local_type=V))
    local_sum = sum(rep.contribution for rep in places)
    lam_out = rs.degree * base.lam + local_sum
    if lam_out < 0:
        raise NegativeLambda(
            f"local sum {local_sum} with lambda.in = {base.lam} at degree "
            f"{rs.degree} gives lambda.out = {lam_out} < 0")
    hypotheses = tuple((name, assert_hypotheses)
                       for name in HYPOTHESIS_NAMES[base.kind])
    return TransitionReport(
        kind=base.kind, p=p,
        form=form.describe() if form is not None else "local-types-only",
        base_spec=base_field.spec_string(), ext_spec=ext_field.spec_string(),
        base_field=rs.base, ext_field=rs.ext,
        degree=rs.degree, lambda_in=base.lam, lambda_out=lam_out,
        mu_in=0, mu_out=0, places=tuple(places),
        hypotheses=hypotheses, warnings=tuple(warnings))


def compose(r_ab: TransitionReport, r_bc: TransitionReport) -> TransitionReport:
    """Composite report for F''/F from reports for F'/F and F''/F'.

    Verifies the tower bookkeeping: for every prime the composite local
    sum must decompose as [F'':F'] times the lower sum plus the upper
    sum, place by place.
    """
    if r_ab.p != r_bc.p or r_ab.kind != r_bc.kind or r_ab.form != r_bc.form:
        raise ChainMismatch("reports disagree on p, kind, or form")
    if r_ab.ext_field != r_bc.base_field:
        raise ChainMismatch("middle fields do not match")
    if r_bc.lambda_in != r_ab.lambda_out:
        raise ChainMismatch(
            f"lambda chain broken: {r_ab.lambda_out} -> {r_bc.lambda_in}")
    p = r_ab.p
    ab = {rep.ell: rep for rep in r_ab.places}
    bc = {rep.ell: rep for rep in r_bc.places}
    deg_total = r_ab.degree * r_bc.degree
    places = []
    local_sum = 0
    for ell in sorted(set(ab) | set(bc)):
        d_ab = ab[ell].local_degree if ell in ab else 1
        d_bc = bc[ell].local_degree if ell in bc else 1
        d_tot = d_ab * d_bc
        if ell in ab:
            v_base = ab[ell].local_type
        else:
            # unramified in the lower step: the lower local fields agree,
            # so the upper report's type is already base-relative
            v_base = bc[ell].local_type
        if ell in ab and ell in bc:
            expected_upper = localfactor.restrict_type(v_base, d_ab)
            if expected_upper != bc[ell].local_type:
                raise ChainMismatch(
                    f"local type at {ell} in the upper report does not "
                    f"restrict from the lower report")
        count_total = (bc[ell].places if ell in bc else splitting.tower_places(
            r_bc.ext_field, ell, p).g_infinity)
        count_mid = (ab[ell].places if ell in ab else splitting.tower_places(
            r_ab.ext_field, ell, p).g_infinity)
        m_tot = localfactor.m_extension(v_base, d_tot)
        lhs = count_total * m_tot
        rhs = (r_bc.degree * count_mid * localfactor.m_extension(v_base, d_ab)
               + count_total * localfactor.m_extension(
                   localfactor.restrict_type(v_base, d_ab), d_bc))
        if lhs != rhs:
            raise InternalAdditivityViolation(
                f"tower bookkeeping fails at {ell}: {lhs} != {rhs}")
        local_sum += lhs
        places.append(LocalFactorReport(
            ell=ell, local_degree=d_tot, places=count_total, m=m_tot,
            h=None if isinstance(v_base, localfactor.Generic) else m_tot,
            path="composed",
            type_spec=localfactor.describe_local_type(v_base),
            local_type=v_base))
    lam_out = deg_total * r_ab.lambda_in + local_sum
    if lam_out != r_bc.lambda_out:
        raise InternalAdditivityViolation(
            f"composite lambda {lam_out} != chained lambda {r_bc.lambda_out}")
    warnings = tuple(dict.fromkeys(r_ab.warnings + r_bc.warnings))
    hyps = tuple((name, a and b) for (name, a), (_, b)
                 in zip(r_ab.hypotheses, r_bc.hypotheses))
    return TransitionReport(
        kind=r_ab.kind, p=p, form=r_ab.form,
        base_spec=r_ab.base_spec, ext_spec=r_bc.ext_spec,
        base_field=r_ab.base_field, ext_field=r_bc.ext_field,
        degree=deg_total, lambda_in=r_ab.lambda_in, lambda_out=lam_out,
        mu_in=0, mu_out=0, places=tuple(places),
        hypotheses=hyps, warnings=warnings)

