"""The public names of the dynwindow package; any change here is an API change."""
from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import dynwindow

PUBLIC_NAMES = {
    # intsets
    "SequenceFormatError", "Status", "Verdict", "Window", "banach_density_estimate",
    "difference_set", "finite_ip", "format_sequence", "is_syndetic", "is_thick",
    "parse_sequence_file", "parse_sequence_text", "piecewise_syndetic_certificate",
    "shifted_hit", "write_sequence_file",
    # systems
    "GOLDEN", "CoverMismatchError", "CyclicSystem", "FiniteCover",
    "OdometerSystem", "ProductCover", "ProductSystem", "RotationSystem",
    "SkewProductSystem", "TorusCover", "eps_dense", "is_totally_minimal", "orbit_at",
    # recurrence
    "DEFAULT_SWEEP_SEED", "CoverageError", "ProductTransitivityResult", "RSequenceReport",
    "ReturnTimesResult", "birkhoff_window_test", "cesaro_average_along",
    "cesaro_interval_closed_form", "crosscheck_cyclic_equivalence", "finite_subcover",
    "product_transitive_finite", "r_sequence_cyclic", "r_sequence_metric", "random_windows",
    "return_times", "shift_family_test",
    # permpoly
    "CapExceededError", "NonSurjectiveResult", "OracleDisagreementError", "PolyModP",
    "PolynomialSyntaxError", "PrimeField", "brute_permutation_check",
    "find_non_surjective_prime", "hermite_check", "is_permutation", "parse_int_polynomial",
    # constructions
    "BlockInfo", "BuiltSequence", "IPBlockSchedule", "build_ip_block_sequence",
    "default_t_sequence", "verify_not_pws", "verify_shifted_recurrence",
}


def test_public_names_are_pinned():
    exported = {
        name for name, value in vars(dynwindow).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == PUBLIC_NAMES


@pytest.mark.parametrize(
    "module", [m.name for m in pkgutil.iter_modules(dynwindow.__path__) if not m.name.startswith("_")]
)
def test_every_listed_name_is_bound(module):
    # A stale __all__ entry would break ``from dynwindow.<module> import *``.
    mod = importlib.import_module(f"dynwindow.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
