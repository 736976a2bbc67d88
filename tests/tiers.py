"""Run tests in each tier of the compiled forms.

A form of ``cnfopt.expr`` or of a problem kernel runs on the float evaluator
for its first ``expr.COLD_CALLS[k]`` calls of order k and compiles on the
next.  A test
decorated with ``in_both_tiers`` runs twice: once with every form on the
evaluator, and once with every form compiled on its first call.  Forms and
their call counts are cached on the trees and problems, so such a test
builds them in its body.
"""

import contextlib
import functools

import cnfopt.expr as expr

# expr.COLD_CALLS in each tier: the evaluator's runs every order on floats,
# so its Hessians are the oracle of compiled ones
TIERS = {"evaluator": (10**9,) * 3, "compiled": (0,) * 3}


@contextlib.contextmanager
def cold_calls(calls):
    """Set ``expr.COLD_CALLS``, one count per order, for the block."""
    saved = expr.COLD_CALLS
    expr.COLD_CALLS = calls
    try:
        yield
    finally:
        expr.COLD_CALLS = saved


def compiled_tier():
    """True in the tier where every form compiles on its first call."""
    return expr.COLD_CALLS == TIERS["compiled"]


def in_both_tiers(test):
    @functools.wraps(test)
    def run(*args, **kwargs):
        for tier, calls in TIERS.items():
            with cold_calls(calls):
                try:
                    test(*args, **kwargs)
                except AssertionError as err:
                    raise AssertionError(f"in the {tier} tier") from err

    return run
