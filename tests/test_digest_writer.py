"""The digest writer of ``test_regression.py`` merges its children's results
into ``digests.json`` and refuses a set it cannot trust.  Fed hand-made
child results; no child interpreter starts."""

from __future__ import annotations

import pytest
from test_regression import KERNELS, MATRICES, MATRIX_CELLS, merge_digests


def child_result(core: str) -> dict:
    """A child's ``matrix_digests``: every records digest 'r', every model digest the core's name."""
    cells = {matrix: [cell for m, cell in MATRIX_CELLS if m == matrix] for matrix in MATRICES}
    return {
        "core": core,
        "records": {matrix: dict.fromkeys(names, "r") for matrix, names in cells.items()},
        "models": {matrix: dict.fromkeys(names, core) for matrix, names in cells.items()},
    }


def test_clean_results_give_one_records_set_and_a_model_set_per_core():
    document = merge_digests({kernel: child_result(core) for kernel, core in KERNELS.items()})
    cores = ("Katmai", "Nehalem", "Sandybridge", "Haswell", "SkylakeX")
    assert document["records"] == child_result("any")["records"]
    assert document["models"] == {core: child_result(core)["models"] for core in cores}


def test_records_that_differ_under_one_core_are_refused_naming_the_cell_and_both_cores():
    results = {kernel: child_result(core) for kernel, core in KERNELS.items()}
    results["Haswell"]["records"]["11+3"]["krum-trim-all"] = "other"
    message = r"^records of 11\+3 cell krum-trim-all differ between cores Katmai and Haswell$"
    with pytest.raises(ValueError, match=message):
        merge_digests(results)


def test_a_child_on_an_unexpected_core_is_refused_naming_it():
    results = {kernel: child_result(core) for kernel, core in KERNELS.items()}
    results["Sandybridge"]["core"] = "Nehalem"
    with pytest.raises(ValueError, match=r"^forced to Sandybridge, the child reports core Nehalem, not Sandybridge$"):
        merge_digests(results)
