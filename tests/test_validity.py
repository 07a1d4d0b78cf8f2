import math
from fractions import Fraction

import pytest

from randpred import (
    BoundedNoiseLinearGenerator,
    PipelineSpec,
    SummarySequence,
    ValidityCell,
    ValidityReport,
    audit_pvariable,
    binary_irp_pvalue,
    binary_irp_pvariable,
    check_dominance,
    dominating_pvariable,
    icp_pvariable,
    RegressorSpec,
    monte_carlo_coverage,
    reproduce_table_k,
    urp_binary_event,
)

# 3-decimal reference rows for the asymptotic-numerator table.
IRP_ROW = (0.368, 0.840, 1.371, 1.942, 2.544, 3.168, 3.812, 4.472)
RATIO_ROW = (0.368, 0.420, 0.457, 0.486, 0.509, 0.528, 0.545, 0.559)


class TestUrpBinaryEvent:
    def test_sure_event(self):
        assert urp_binary_event(5, lambda bits, t: True) == pytest.approx(1.0, abs=1e-12)

    def test_empty_event(self):
        assert urp_binary_event(5, lambda bits, t: False) == 0.0

    def test_nonconforming_test_with_no_calibration_ones(self):
        for m in (1, 4, 9):
            value = urp_binary_event(m, lambda bits, t: t == 1 and sum(bits) == 0)
            expected = m**m / float((m + 1) ** (m + 1))
            assert value == pytest.approx(expected, abs=1e-11)

    def test_single_outcome_event(self):
        # P(all ones) = p^(m+1), supremum 1 at p = 1
        value = urp_binary_event(3, lambda bits, t: sum(bits) == 3 and t == 1)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_m_cap(self):
        with pytest.raises(ValueError, match="onte"):
            urp_binary_event(25, lambda bits, t: True)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            urp_binary_event(0, lambda bits, t: True)


class TestAuditPvariable:
    def test_engine_pvariable_passes(self):
        report = audit_pvariable(binary_irp_pvariable, 8)
        assert report.mode == "exact"
        assert report.passed
        assert all(cell.standard_error is None for cell in report.cells)

    def test_dominating_pvariable_passes(self):
        report = audit_pvariable(dominating_pvariable, 8)
        assert report.passed

    def test_icp_pvariable_passes(self):
        report = audit_pvariable(icp_pvariable, 8)
        assert report.passed

    def test_constant_zero_fails(self):
        report = audit_pvariable(lambda seq: 0.0, 5)
        assert not report.passed
        assert all(not cell.passed for cell in report.cells if cell.epsilon < 1.0)

    def test_engine_thresholds_are_tight(self):
        # at every realized threshold the exceedance probability equals the
        # threshold itself: the engine p-values are exactly the suprema
        report = audit_pvariable(binary_irp_pvariable, 6)
        for cell in report.cells:
            assert cell.probability == pytest.approx(cell.epsilon, abs=1e-9)

    def test_asymmetric_pvariable_rejected(self):
        def lopsided(seq):
            return 1.0 if seq.calibration_summaries[0] == 1 else 0.5

        with pytest.raises(ValueError, match="symmetric"):
            audit_pvariable(lopsided, 4)

    def test_m_cap(self):
        with pytest.raises(ValueError):
            audit_pvariable(binary_irp_pvariable, 25)


class TestCheckDominance:
    def test_dominating_strictly_dominates_rank(self):
        result = check_dominance(dominating_pvariable, icp_pvariable, 10)
        assert result.verdict == "strict"
        assert result.witness.calibration_ones == 0
        assert result.witness.test_summary == 1
        assert result.witness.p1_value == pytest.approx(
            float(Fraction(10**10, 11**11)), rel=1e-15
        )
        assert result.witness.p2_value == pytest.approx(1.0 / 11.0, rel=1e-15)

    def test_reflexive_weak(self):
        assert check_dominance(icp_pvariable, icp_pvariable, 6).verdict == "weak"

    def test_asymmetry_gives_counterexample(self):
        result = check_dominance(icp_pvariable, dominating_pvariable, 6)
        assert result.verdict == "none"
        assert result.witness.calibration_ones == 0
        assert result.witness.test_summary == 1
        assert result.witness.p1_value > result.witness.p2_value

    def test_engine_dominates_rank_on_binary_summaries(self):
        result = check_dominance(binary_irp_pvariable, icp_pvariable, 8)
        assert result.verdict == "strict"

    def test_m_cap_and_validation(self):
        with pytest.raises(ValueError):
            check_dominance(icp_pvariable, icp_pvariable, 0)
        with pytest.raises(ValueError):
            check_dominance(icp_pvariable, icp_pvariable, 21)


class TestMonteCarloCoverage:
    def test_coverage_and_identity_small_run(self):
        report = monte_carlo_coverage(PipelineSpec(), None, 0.05, 300, 7)
        assert report.mode == "monte_carlo"
        assert report.trials == 300 and report.seed == 7
        names = [cell.name for cell in report.cells]
        assert names == ["coverage-irp", "coverage-icp", "interval-identity"]
        assert report.passed
        identity = report.cells[-1]
        assert identity.probability == 1.0

    def test_bit_reproducible(self):
        a = monte_carlo_coverage(None, None, 0.1, 120, 99)
        b = monte_carlo_coverage(None, None, 0.1, 120, 99)
        assert a == b

    def test_single_method(self):
        report = monte_carlo_coverage(PipelineSpec(method="icp"), None, 0.05, 50, 3)
        assert [cell.name for cell in report.cells] == ["coverage-icp"]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_coverage(None, None, 0.0, 10, 1)
        with pytest.raises(ValueError):
            monte_carlo_coverage(None, None, 0.05, 0, 1)
        with pytest.raises(ValueError):
            PipelineSpec(method="oracle")


def _miss_counts(report):
    return {cell.name: int(cell.detail.split("/")[0]) for cell in report.cells}


class TestMonteCarloPinned:
    """Miss and interval-identity counts of the seeded runs, pinned so that
    a change to the data path or the fit shows in the counts."""

    @pytest.mark.parametrize(
        "seed, irp, icp", [(0, 2, 2), (1, 4, 1), (2, 2, 0), (3, 3, 2)]
    )
    def test_hundred_trials(self, seed, irp, icp):
        report = monte_carlo_coverage(None, None, 0.05, 100, seed)
        assert _miss_counts(report) == {
            "coverage-irp": irp,
            "coverage-icp": icp,
            "interval-identity": 100,
        }

    def test_ten_thousand_trials(self):
        report = monte_carlo_coverage(
            PipelineSpec(), BoundedNoiseLinearGenerator(), 0.05, 10000, 2026
        )
        assert _miss_counts(report) == {
            "coverage-irp": 234,
            "coverage-icp": 93,
            "interval-identity": 10000,
        }

    def test_mean_regressor(self):
        report = monte_carlo_coverage(
            PipelineSpec(predictor=RegressorSpec("mean")),
            BoundedNoiseLinearGenerator(calibration_size=60),
            0.05,
            300,
            11,
        )
        assert _miss_counts(report) == {
            "coverage-irp": 9,
            "coverage-icp": 7,
            "interval-identity": 300,
        }
        assert report.passed


class TestGenerators:
    def test_sample_shapes(self):
        import numpy as np

        gen = BoundedNoiseLinearGenerator(proper_size=5, calibration_size=3)
        split, x, y = gen.sample(np.random.default_rng(0))
        assert split.proper_size == 5
        assert split.calibration_size == 3
        assert x.shape == (2,) and isinstance(y, float)

    def test_noise_is_bounded(self):
        import numpy as np

        gen = BoundedNoiseLinearGenerator(noise_half_width=0.25)
        split, x, y = gen.sample(np.random.default_rng(1))
        rows = list(zip(split.X.tolist(), split.y.tolist())) + [(x.tolist(), y)]
        assert len(rows) == gen.proper_size + gen.calibration_size + 1
        for features, label in rows:
            signal = sum(c * x for c, x in zip(gen.coefficients, features)) + gen.intercept
            assert abs(label - signal) <= gen.noise_half_width

    def test_same_draws_as_per_row_examples(self):
        import numpy as np

        # The split is built straight from the generator's arrays, in the
        # order the rng drew them: features, then noise.
        gen = BoundedNoiseLinearGenerator(proper_size=4, calibration_size=3)
        split, x, y = gen.sample(np.random.default_rng(5))
        rng = np.random.default_rng(5)
        features = rng.uniform(-1.0, 1.0, size=(8, 2))
        labels = features @ np.array(gen.coefficients) + gen.intercept
        labels += rng.uniform(-0.25, 0.25, size=8)
        assert np.array_equal(split.X, features[:-1])
        assert np.array_equal(split.y, labels[:-1])
        assert np.array_equal(x, features[-1]) and y == labels[-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedNoiseLinearGenerator(coefficients=())
        with pytest.raises(ValueError):
            BoundedNoiseLinearGenerator(proper_size=0)
        with pytest.raises(ValueError):
            BoundedNoiseLinearGenerator(noise_half_width=-1.0)
        with pytest.raises(ValueError):
            BoundedNoiseLinearGenerator(feature_low=1.0, feature_high=-1.0)


class TestReproduceTable:
    def test_reference_rows(self):
        rows = reproduce_table_k(7)
        assert tuple(row.a_k_rounded for row in rows) == IRP_ROW
        assert tuple(row.ratio_rounded for row in rows) == RATIO_ROW
        assert tuple(row.icp_numerator for row in rows) == tuple(range(1, 9))

    def test_k0_ratio_equals_numerator(self):
        row = reproduce_table_k(0)[0]
        assert row.ratio == row.a_k

    def test_validation(self):
        with pytest.raises(ValueError):
            reproduce_table_k(-1)
        with pytest.raises(ValueError):
            reproduce_table_k(65)


class TestValidityReportInvariants:
    def test_exact_cells_cannot_carry_standard_errors(self):
        cell = ValidityCell(
            name="x", epsilon=0.1, probability=0.05, passed=True, standard_error=0.01
        )
        with pytest.raises(ValueError):
            ValidityReport(mode="exact", cells=(cell,))

    def test_monte_carlo_requires_trials(self):
        with pytest.raises(ValueError):
            ValidityReport(mode="monte_carlo", cells=())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ValidityReport(mode="bootstrap", cells=())


class TestEngineOracleEquivalence:
    def test_small_m_sweep(self):
        # independent recomputation of every p-value as a worst-case
        # probability over the corresponding exceedance event
        for m in range(1, 9):
            for k in range(m + 1):
                oracle = urp_binary_event(
                    m, lambda bits, t, k=k: t == 1 and sum(bits) <= k
                )
                assert binary_irp_pvalue(m, k) == pytest.approx(oracle, abs=1e-9)
