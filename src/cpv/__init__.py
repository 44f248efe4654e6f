"""Verifier and synthesizer for contextually private query protocols.

A choice rule maps profiles of privately known types to outcomes.  A
protocol is a rooted query tree that narrows down the profile until the
outcome is determined.  This package decides whether protocols leak more
than the outcome requires (contextual privacy and its group/individual
variants), synthesizes private protocols or impossibility witnesses, and
ships the classic mechanisms (serial dictatorship, first/second price,
double auctions, matching) as built-ins.
"""

from cpv.core import (
    ChoiceRule,
    InputError,
    PreconditionError,
    ProfileSet,
    ResourceError,
    TypeSpace,
    Witness,
    product_factorization,
)

__all__ = [
    "ChoiceRule",
    "InputError",
    "PreconditionError",
    "ProfileSet",
    "ResourceError",
    "TypeSpace",
    "Witness",
    "product_factorization",
]
