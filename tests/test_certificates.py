"""The line between evidence and certificates.

``qvl.counting`` holds the walks, the counts and the degree probe, which are
evidence; ``qvl.certificates`` holds the checks built for named families.
The walks know no family and no certificate."""

import qvl
import qvl.certificates as certificates
import qvl.counting as counting
import qvl.families as families

CHECKS = {"CensusResult", "hom_counterexample_census", "WitnessPoint",
          "WitnessReport", "mono_reducibility_witness",
          "_verify_witness_point", "ProductCheckResult",
          "product_count_check"}


def _modules(module) -> dict:
    """Each name bound in ``module`` -> the module its value was defined
    in, for values that say so, or the module's own name for a module."""
    return {name: getattr(value, "__module__", getattr(value, "__name__",
                                                       None))
            for name, value in vars(module).items()}


def test_counting_binds_nothing_from_families_or_certificates():
    assert {name: home for name, home in _modules(counting).items()
            if home in ("qvl.families", "qvl.certificates")} == {}


def test_families_bind_nothing_from_extensions_or_counting():
    """The named families are presentations and maps between them; they
    reach no cocycle and no walk."""
    assert {name: home for name, home in _modules(families).items()
            if home in ("qvl.extensions", "qvl.counting")} == {}
    # the check sees a bound submodule too, as the package binds them
    assert _modules(qvl)["families"] == "qvl.families"


def test_certificates_define_exactly_the_checks():
    assert {name for name, home in _modules(certificates).items()
            if home == "qvl.certificates"} == CHECKS


def test_package_exports_each_from_its_home():
    assert qvl.hom_counterexample_census is \
        certificates.hom_counterexample_census
    assert qvl.mono_reducibility_witness is \
        certificates.mono_reducibility_witness
    assert qvl.product_count_check is certificates.product_count_check
    assert qvl.leading_coefficient_probe is \
        counting.leading_coefficient_probe
