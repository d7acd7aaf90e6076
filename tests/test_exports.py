"""The public names: each module declares its own in `__all__`, and the
package re-exports them."""

import triform
from triform import brahmagupta, census, perrin, spectrum

MODULES = (brahmagupta, census, perrin, spectrum)

# every name the package exports, sorted: the 33 it spelled out by hand
# before the modules declared them
PUBLIC = [
    "BrahmaguptaRep", "CensusReport", "CensusRow", "Doublet", "DoubletCoverage",
    "EmptySpectrumError", "EnergyLevel", "IdentityExpansion", "InvalidSeedError", "Parity",
    "PerrinSeed", "PerrinTriplet", "RepClass", "RepMode", "Spectrum", "State",
    "build_census", "check_brahmagupta_conjecture", "check_perrin_conjecture",
    "classify_rep", "doublet_coverage", "doublet_from_rep", "energy_of",
    "enumerate_spectrum", "identity_expand", "inverse_rep", "level_of", "match_perrin",
    "parity_of_energy", "perrin_energy", "perrin_triplet", "rep_search", "signed_doublet",
]


def test_each_name_is_declared_by_one_module():
    declared = [name for module in MODULES for name in module.__all__]
    assert all(isinstance(module.__all__, list) for module in MODULES)
    assert len(declared) == len(set(declared))
    assert sorted(declared) == PUBLIC


def test_the_package_exports_the_modules_names():
    assert sorted(triform.__all__) == PUBLIC
    # a list of its own, so extending it changes no module's
    assert all(triform.__all__ is not module.__all__ for module in MODULES)
    for name in ("is_strict", "find_seed", "form_solutions", "factorize"):
        assert name not in triform.__all__


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from triform import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC


def test_each_exported_object_is_the_one_its_module_defines():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(triform, name)
            assert obj is getattr(module, name), name
            assert obj.__module__ == module.__name__, name
