import numpy as np
import pytest

import diffgap.expr as ex
import diffgap.gallery as gal
import diffgap.model as md


class TestNames:
    def test_listing_is_sorted(self):
        names = gal.gallery_names()
        assert names == sorted(names)
        assert "quartic" in names and "cauchy" in names

    def test_unknown_name(self):
        with pytest.raises(md.ModelError, match="unknown"):
            gal.gallery_model("pentic")

    def test_missing_required_param(self):
        with pytest.raises(md.ModelError, match="alpha"):
            gal.gallery_model("power")

    def test_extra_param_rejected(self):
        with pytest.raises(md.ModelError, match="gamma"):
            gal.gallery_model("ou", gamma=2.0)


class TestModels:
    def test_ou_drift(self):
        m = gal.gallery_model("ou")
        xs = np.linspace(-3, 3, 11)
        assert np.allclose(ex.evaluate(m.drift, xs), -xs)

    def test_power_four_matches_quartic(self):
        # (x^2)^2/4 and x^4/4 are the same potential
        m4 = gal.gallery_model("power", alpha=4.0)
        mq = gal.gallery_model("quartic")
        xs = np.linspace(-2.5, 2.5, 41)
        assert np.max(np.abs(m4.U(xs) - mq.U(xs))) < 1e-12

    def test_power_validation(self):
        with pytest.raises(md.ModelError, match="positive"):
            gal.gallery_model("power", alpha=-1.0)

    def test_double_well_name_and_wells(self):
        m = gal.gallery_model("double-well", beta=0.5)
        assert m.name == "double-well(0.5)"
        # wells at +/- sqrt(beta): drift vanishes there
        r = np.sqrt(0.5)
        assert abs(ex.evaluate(m.drift, r)) < 1e-12

    def test_smoothed_exponential(self):
        m = gal.gallery_model("smoothed-exponential")
        assert m.name == "smoothed-exponential(0.001)"
        # near-|x| potential away from the origin
        assert abs(m.U(5.0) - 5.0) < 1e-3
        with pytest.raises(md.ModelError, match="positive"):
            gal.gallery_model("smoothed-exponential", delta=0.0)

    def test_cauchy_variants(self):
        ms = gal.gallery_model("cauchy")
        ml = gal.gallery_model("cauchy", variant="linear")
        assert ms.tail_kind == "polynomial" and ml.tail_kind == "polynomial"
        assert abs(ms.sigma_fn(2.0) - np.sqrt(5.0)) < 1e-12
        assert abs(ml.sigma_fn(2.0) - 5.0) < 1e-12
        with pytest.raises(md.ModelError, match="variant"):
            gal.gallery_model("cauchy", variant="cubic")
        with pytest.raises(md.ModelError, match="exceed 1/2"):
            gal.gallery_model("cauchy", beta=0.5)

    def test_cauchy_density_is_student_like(self):
        # h = e^{-U}/sigma^2 with U = beta log(1+x^2) - 2 log sigma gives
        # h = (1+x^2)^{-beta} for the sqrt variant
        m = gal.gallery_model("cauchy", beta=2.5)
        xs = np.linspace(-4, 4, 17)
        h = m.density(xs)
        ref = (1.0 + xs**2) ** -2.5
        ratio = h / ref
        assert np.max(np.abs(ratio / ratio[8] - 1.0)) < 1e-10
