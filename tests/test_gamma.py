import pytest

import oracles
from reference_loops import log_gamma

# The complex log-gamma that the functional-equation route used, kept as a
# reference in reference_loops (the library's paper formula covers the whole
# strip and needs no Gamma of s).


@pytest.mark.parametrize("re", [1e-3, 0.1, 0.5, 1.0, 2.5, 10.0, 30.0, 60.0])
@pytest.mark.parametrize("im", [-37.2, 120.0, 150.0, 177.0, -177.0])
def test_log_gamma_thirteen_digits(re, im):
    z = complex(re, im)
    ref = oracles.loggamma_reference(re, im)
    assert oracles.diff(log_gamma(z), ref) <= 1e-13 * max(1.0, float(abs(ref)))

