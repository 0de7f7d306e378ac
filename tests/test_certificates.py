"""The line between evidence and certificates.

``qvl.counting`` holds the walks, the counts and the degree probe, which are
evidence; ``qvl.certificates`` holds the checks built for named families.
The walks know no family and no certificate."""

import dataclasses

import qvl
import qvl.certificates as certificates
import qvl.counting as counting
import qvl.families as families
from qvl.linalg import PrimeField

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


def _witness_samples(*args):
    report = certificates.mono_reducibility_witness(*args)
    return report.sample_full_rank, report.sample_mu1


def _broken_samples():
    """(arguments of ``_verify_witness_point``, sample) pairs, each sample
    breaking one displayed equation of the witness system while the ones
    checked before it hold, in the order they are checked: a1 U^(l-1) = 0,
    U^l = 0, U w = 0, lam mu_1 = a1 w, w != 0 and lam != 0."""
    b_full, _ = _witness_samples(3, 3, 1, 2)           # B(1, 3) over F_2
    a_full, a_mu1 = _witness_samples(3, 2, 1, 3)       # A(1, 3, 1) over F_3
    b = (families.family_b(1, 3), PrimeField(2), 3, 3, 1)
    a = (families.family_a(1, 3, 1), PrimeField(3), 3, 2, 1)
    replace = dataclasses.replace
    return [
        # a1 U = (0, 1) != 0
        (a, replace(a_full, arrow_rows=((1, 0),), mu=(1,))),
        # an idempotent loop: U^l = U != 0, while a1 = 0 kills U^(l-1)
        (b, replace(b_full, loop_mat=((1, 0, 0), (0, 0, 0), (0, 0, 0)),
                    emb_col=(0, 0, 1))),
        # U w = e1 != 0
        (b, replace(b_full, emb_col=(0, 1, 0))),
        # lam mu_1 = 2, a1 w = 1
        (a, replace(a_mu1, mu=(2,))),
        # w = 0
        (a, replace(a_mu1, emb_col=(0, 0), mu=(0,))),
        # lam = 0, mu_1 = a1 w = 0
        (b, replace(b_full, lam=0)),
    ]


def test_each_broken_witness_equation_is_rejected(monkeypatch):
    samples = _broken_samples()
    for args, sample in samples:
        assert not certificates._verify_witness_point(*args, sample), sample
    # with validity and injectivity accepting every input, only the
    # displayed equations are left to reject each sample
    monkeypatch.setattr(certificates.Representation, "is_valid",
                        lambda self: True)
    monkeypatch.setattr(certificates, "is_monomorphism", lambda mor: True)
    for args, sample in samples:
        assert not certificates._verify_witness_point(*args, sample), sample
