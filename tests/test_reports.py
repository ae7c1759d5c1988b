"""Every report's ``to_dict()`` is plain JSON: no NumPy scalars or arrays."""

import json

import pytest

from rscorr.autocorr import verify_even_zero
from rscorr.jsr import ProductWord, bnb_bracket, invariant_polytope, irreducibility_check
from rscorr.norms import (
    conjugation_invariance_check,
    letter_domination_report,
    verify_power_bounds,
)
from rscorr.recurrence import (
    MA,
    MB,
    PROJ,
    SWAP,
    check_floor_ceil_identities,
    normal_form,
    shift_chain,
    verify_decomposition,
    verify_periodic_formula,
    verify_recurrences,
)

REPORTS = {
    "even-shift": lambda: verify_even_zero(6),
    "bound": lambda: verify_power_bounds(),
    "conjugation": lambda: conjugation_invariance_check(max_len=3),
    "letter-domination": lambda: letter_domination_report(samples=50),
    "identity": lambda: check_floor_ceil_identities(12),
    "decomposition": lambda: verify_decomposition(6),
    "recurrence": lambda: verify_recurrences(6),
    "periodic": lambda: verify_periodic_formula(6),
    "irreducible": lambda: irreducibility_check((MA, MB)),
    "reducible": lambda: irreducibility_check((SWAP, PROJ)),
    "bracket": lambda: bnb_bracket(4),
    "polytope-success": lambda: invariant_polytope(),
    "polytope-failure": lambda: invariant_polytope(ProductWord.make(("MB",)), max_rounds=6),
    "normal-form": lambda: normal_form(8, 43),
    "shift-chain": lambda: shift_chain(43, 8),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_to_dict_is_json(name):
    payload = REPORTS[name]().to_dict()
    assert json.loads(json.dumps(payload)) == payload
