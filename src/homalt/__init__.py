"""Exact verifier for identities in right Hom-alternative algebras.

The public names below load on first use: ``import homalt`` imports no
submodule, and ``homalt.verify`` or ``from homalt import verify`` imports
the module that defines it (PEP 562).  So ``python -m homalt.cli`` loads
only the modules a command runs.  The identity registry, how an entry is
checked (preconditions, strategies, witness search and replay) and
``PreconditionError``, a ValueError like every refusal of bad input, live
in :mod:`homalt.proof_replay`; what each entry says, its evaluator, is in
:mod:`homalt.laws`, which loads only for registry checks.  The operator
calculus, :mod:`homalt.operators`, loads only for operator entries.  Every
basis scan and element test sits in :mod:`homalt.homalgebra`, beside the
replay of its witnesses; a morphism there is a map of one algebra into
itself.  Printing and parsing elements, which no holding check runs, sits
in :mod:`homalt.text`.
Algebra and morphism documents are both read and written by
:mod:`homalt.algfile`.
"""

import importlib

# Public names by the submodule that defines them.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "scalars": ("Poly", "Rational", "Scalar"),
    "homalgebra": (
        "CheckReport", "Element", "HomAlgebra", "Witness", "is_hom_nilpotent",
        "is_left_hom_alternative", "is_morphism", "is_multiplicative", "is_right_hom_alternative",
        "is_weak_morphism", "smallest_alpha_exponent", "substitute_params", "yau_twist",
    ),
    "text": ("element_str", "parse_element_expr", "scalar_str"),
    "operators": (
        "RightOp", "alpha_op", "apply", "compose", "op_sub", "op_sup", "right_mul_op",
    ),
    "catalog": (
        "FamilyParams", "family_nonisomorphism_condition", "mikheev_algebra", "mikheev_family",
        "mikheev_morphism", "spectrum_certificate",
    ),
    "proof_replay": (
        "BatchResult", "IdentityInstance", "PreconditionError", "registry", "verify", "verify_all",
    ),
    "algfile": (
        "AlgebraFormatError", "parse_document", "parse_morphism", "serialize_algebra",
        "serialize_morphism",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_SOURCE) + ["__version__"]

def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCE) | set(_EXPORTS))
