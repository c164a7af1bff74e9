import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finray.metrics_force import (
    ConditionMetrics,
    MetricsReport,
    NORMALIZATION_RANGE_N,
    ThresholdTrigger,
    decompose,
    max_error,
    rmse_nrmsd,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-100, max_value=100)


class TestDecompose:
    @pytest.mark.parametrize("fl,fr,grasp,manip", [
        (3.0, 2.0, 2.0, 1.0),
        (5.0, 5.0, 5.0, 0.0),
        (0.0, 4.0, 0.0, -4.0),
    ])
    def test_direct_cases(self, fl, fr, grasp, manip):
        g, m = decompose(fl, fr)
        assert g == grasp
        assert m == manip

    @settings(max_examples=100)
    @given(finite, finite)
    def test_swap_symmetry(self, a, b):
        g1, m1 = decompose(a, b)
        g2, m2 = decompose(b, a)
        assert g1 == g2
        assert m1 == -m2

    @settings(max_examples=100)
    @given(finite, finite)
    def test_grasp_nonnegative(self, a, b):
        g, _ = decompose(a, b)
        assert g >= 0.0


class TestRmseNrmsd:
    def test_identical_series(self):
        x = np.linspace(0, 5, 50)
        r, n = rmse_nrmsd(x, x)
        assert r == 0.0 and n == 0.0

    def test_constant_offset(self):
        gt = np.linspace(0, 5, 50)
        r, n = rmse_nrmsd(gt + 0.5, gt)
        assert r == pytest.approx(0.5, abs=1e-12)
        assert n == pytest.approx(4.53, abs=0.01)

    def test_reported_anchor_consistency(self):
        # published anchor: 0.24 N at the 11.04 N range reads 2.16%
        _, n = rmse_nrmsd(np.array([0.24]), np.array([0.0]))
        assert n == pytest.approx(2.16, abs=0.05)

    def test_identity_relation(self, rng):
        sim = rng.normal(size=200)
        gt = rng.normal(size=200)
        r, n = rmse_nrmsd(sim, gt)
        assert n * NORMALIZATION_RANGE_N / 100.0 == pytest.approx(r, rel=1e-12)

    def test_max_error_dominates_rmse(self, rng):
        sim = rng.normal(size=200)
        gt = rng.normal(size=200)
        r, _ = rmse_nrmsd(sim, gt)
        assert max_error(sim, gt) >= r

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse_nrmsd([], [])


class TestThresholdTrigger:
    def test_fires_at_threshold(self):
        trig = ThresholdTrigger(5.0)
        ramp = np.linspace(0, 10, 40)
        fired_at = None
        for i, v in enumerate(ramp):
            if trig.update(v) and fired_at is None:
                fired_at = i
        assert fired_at == int(np.argmax(ramp >= 5.0))
        assert trig.fire_index == fired_at

    def test_never_fires_below(self):
        trig = ThresholdTrigger(50.0)
        for v in np.linspace(0, 10, 40):
            trig.update(v)
        assert not trig.fired

    def test_latched(self):
        trig = ThresholdTrigger(1.0)
        assert trig.update(2.0)
        assert trig.update(0.0)  # stays fired


class TestReports:
    def test_condition_metrics_aggregation(self):
        sims = [np.array([1.0, 2.0]), np.array([1.5, 2.5])]
        gts = [np.array([1.0, 2.0]), np.array([1.0, 2.0])]
        cm = ConditionMetrics.from_cycles("c", sims, gts)
        assert cm.rmse_mean == pytest.approx(0.25)
        assert cm.max_error == 0.5
        assert cm.n_cycles == 2

    def test_markdown_render(self):
        cm = ConditionMetrics("middle-d15", 0.24, 0.02, 2.16, 0.21, 0.62, 5)
        report = MetricsReport("static", [cm])
        md = report.markdown()
        assert "middle-d15" in md
        assert "0.24 ± 0.02" in md
