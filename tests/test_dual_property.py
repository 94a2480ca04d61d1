"""Property test of the one derivation of a weighted dual: a direct weight
exp(P) and the log-weight P give the same dual, whatever the polynomial P."""

import numpy as np
import pytest

from diffgap import expr as ex
from diffgap import gallery as gal
from diffgap import model as md

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.sampled_from(["ou", "quartic", "cauchy"]),
                  st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
def test_direct_exp_and_exp_w_derive_one_dual(name, coeffs):
    # direct exp(P) and exp_w P reduce to the same W' = P', so to the same
    # trees; V_a is finite on [-30, 30] although exp(P) may not be
    m = gal.gallery_model(name)
    p = ex.add(*[ex.mul(ex.const(c), ex.pow_(ex.X, k)) for k, c in enumerate(coeffs)])
    direct = md.derive_weight(m, md.WeightSpec.direct(ex.exp(p)))
    exp_w = md.derive_weight(m, md.WeightSpec.exp_w(p))
    assert direct.v_expr == exp_w.v_expr
    assert direct.drift_expr == exp_w.drift_expr
    assert np.all(np.isfinite(ex.evaluate(direct.v_expr, np.linspace(-30.0, 30.0, 241))))
