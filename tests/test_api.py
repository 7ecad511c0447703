import re
from pathlib import Path

import numpy as np
import pytest

import rrtls
from rrtls.errors import check_integer, check_real, finite_array, finite_vector


def test_public_api_is_unchanged():
    # the public contract every refactor keeps; a deliberate change edits
    # this list and says so in the change log
    assert sorted(rrtls.__all__) == [
        "BiasEstimate",
        "ConfigError",
        "DegenerateSolutionError",
        "ExperimentResult",
        "ExperimentSpec",
        "InsufficientDataError",
        "LsEstimate",
        "MeasurementModel",
        "ModelInvalidError",
        "MomentReport",
        "NonUniqueTlsError",
        "NormDependenceCertificate",
        "NormDependenceWitness",
        "OrderedBasis",
        "QObjective",
        "RankSelection",
        "Realization",
        "RrtlsError",
        "SelectionComparison",
        "SingularModelError",
        "SvdFactorization",
        "TlsEstimate",
        "augmented_scores",
        "bias_estimate",
        "compare_selection_rules",
        "gaussian_model",
        "ls_full",
        "ls_reduced",
        "mse_theoretical_ls",
        "mse_theoretical_tls_full",
        "norm_dependence_certificate",
        "order_by_scores",
        "planted_model",
        "projector",
        "q_objective",
        "q_objective_bias_recipe",
        "run",
        "sample_ls",
        "sample_tls",
        "search_norm_dependence_witness",
        "select_rank_ls",
        "spectrum_model",
        "svd",
        "tls_objective",
        "tls_reduced",
        "tls_solve",
        "trial_rng",
        "verify_chi_square",
    ]
    for name in rrtls.__all__:
        assert hasattr(rrtls, name)


# Each case is (call, expected): the value the rule returns, compared by type
# and value, or the message of the ValueError it raises.
_RULE_CASES = {
    "integer-numpy-int": (lambda: check_integer(np.int64(3), "n", 1), 3),
    "integer-numpy-uint": (lambda: check_integer(np.uint8(0), "n", 0), 0),
    "integer-zero-positive": (lambda: check_integer(0, "n", 1), "^n must be a positive integer, got 0$"),
    "integer-negative": (lambda: check_integer(-1, "n", 0), "^n must be a non-negative integer, got -1$"),
    "integer-whole-float": (lambda: check_integer(2.0, "n", 0), "^n must be a non-negative integer"),
    "integer-numpy-float": (lambda: check_integer(np.float64(2.0), "n", 0),
                            "^n must be a non-negative integer"),
    "real-int": (lambda: check_real(2, "s"), 2.0),
    "real-numpy-int": (lambda: check_real(np.int32(2), "s", strict=True), 2.0),
    "real-numpy-uint": (lambda: check_real(np.uint16(7), "s"), 7.0),
    "real-numpy-float": (lambda: check_real(np.float32(0.5), "s", strict=True), 0.5),
    "real-zero": (lambda: check_real(0, "s"), 0.0),
    "real-zero-strict": (lambda: check_real(0.0, "s", strict=True), "^s must be finite and > 0, got 0.0$"),
    "real-negative": (lambda: check_real(-0.5, "s"), "^s must be finite and >= 0, got -0.5$"),
    "array-2d": (lambda: finite_array([[1, 2]], "A", 2), np.array([[1.0, 2.0]])),
    "array-ndim": (lambda: finite_array([1.0, 2.0], "A", 2), r"^A must be a 2-D array, got shape \(2,\)$"),
    "array-nan": (lambda: finite_array([[1.0, np.nan]], "A", 2), "^A must be finite$"),
    "vector-flat": (lambda: finite_vector([[1], [2]], "v", 2), np.array([1.0, 2.0])),
    "vector-length": (lambda: finite_vector([1.0], "v", 2),
                      "^dimension mismatch: v has length 1, expected 2$"),
    "vector-inf": (lambda: finite_vector([1.0, -np.inf], "v", 2), "^v must be finite$"),
}
# No scalar rule accepts these: neither truncates, coerces nor unwraps them.
_NOT_SCALARS = {"bool": True, "numpy-bool": np.True_, "str": "1", "none": None, "complex": 1j,
                "0d-array": np.array(1.0), "1-element-array": np.array([1.0]),
                "nan": float("nan"), "inf": float("inf"), "minus-inf": -float("inf")}
for _label, _value in _NOT_SCALARS.items():
    _RULE_CASES[f"integer-{_label}"] = (lambda v=_value: check_integer(v, "n", 0),
                                        "^n must be a non-negative integer, got ")
    _RULE_CASES[f"real-{_label}"] = (lambda v=_value: check_real(v, "s"), "^s must be finite and >= 0, got ")
    _RULE_CASES[f"real-strict-{_label}"] = (lambda v=_value: check_real(v, "s", strict=True),
                                            "^s must be finite and > 0, got ")


@pytest.mark.parametrize("case", sorted(_RULE_CASES))
def test_input_rules(case):
    call, expected = _RULE_CASES[case]
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            call()
        return
    out = call()
    assert type(out) is type(expected) and np.asarray(out).dtype == np.asarray(expected).dtype
    assert np.array_equal(out, expected)


def test_input_rules_have_one_home():
    # the integer, real and array-shape rules are written once, in errors.py;
    # every other module calls check_integer, check_real or finite_array
    # instead of its own copy
    package = Path(rrtls.__file__).parent
    copies = [path.name for path in sorted(package.glob("*.py"))
              if path.name != "errors.py"
              and re.search(r"\b(Integral|Real)\b|\.ndim\s*!=", path.read_text())]
    assert copies == []
