import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randpred import (
    EXACT_M_LIMIT,
    BoundedNoiseLinearGenerator,
    Interval,
    PipelineSpec,
    SummarySequence,
    ValidityCell,
    ValidityReport,
    audit_pvariable,
    binary_irp_pvalue,
    binary_irp_pvariable,
    check_dominance,
    dominating_pvariable,
    fit_regression_pipeline,
    icp_pvariable,
    RegressorSpec,
    monte_carlo_coverage,
    prediction_set,
    reproduce_table_k,
    urp_binary_event,
)
from randpred.audits import _audit_table, _sup_coverage_polynomial
from randpred.pipelines import FittedPipeline
from randpred.predictors import LeastSquaresRegressor, MeanRegressor, _least_squares
from randpred.validity import _BLOCK_ROWS, _TrialState, _stage_trials, _trial_states

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
        for m in (np.int64(0), np.int64(21), np.bool_(True), True, 3.0):
            with pytest.raises(ValueError, match="must be an integer"):
                urp_binary_event(m, lambda bits, t: True)
        # numpy's integers are integers
        event = lambda bits, t: t == 1 and sum(bits) == 0
        assert urp_binary_event(np.int64(3), event) == urp_binary_event(3, event)


def _reference_sup(counts, n, mpmath):
    """50-digit maximum of sum_j counts[j] p^j (1-p)^(n-j) over [0, 1].

    The candidates are 0, 1 and the real roots in (0, 1) of the
    derivative, taken in the power basis with exact integer coefficients,
    located by numpy and polished by Newton's method at 50 digits.
    """
    power = [0] * (n + 1)
    for j, count in enumerate(counts):
        for i in range(n - j + 1):
            power[j + i] += count * math.comb(n - j, i) * (-1) ** i
    slope = [i * power[i] for i in range(n, 0, -1)]
    while slope and slope[0] == 0:
        slope.pop(0)
    with mpmath.workdps(50):
        points = [mpmath.mpf(0), mpmath.mpf(1)]
        for root in np.roots(slope) if len(slope) > 1 else ():
            if abs(root.imag) < 1e-3 and -1e-3 < root.real < 1.0 + 1e-3:
                x = mpmath.mpf(root.real)
                for _ in range(30):
                    value, derivative = mpmath.polyval(slope, x, derivative=True)
                    x -= value / derivative if derivative else 0
                if 0 < x < 1:
                    points.append(x)
        return max(
            mpmath.fsum(c * p**j * (1 - p) ** (n - j) for j, c in enumerate(counts))
            for p in points
        )


class TestSupCoveragePolynomial:
    def test_matches_a_50_digit_maximum(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(2024)
        for trial in range(240):
            n = rng.randint(1, 21)
            if trial % 2:
                # arbitrary counts, about half of them zero
                counts = [rng.choice((0, rng.randint(1, 10**6))) for _ in range(n + 1)]
            else:
                # a random set of audit classes (calibration ones, test bit)
                counts = [0] * (n + 1)
                for k in range(n):
                    for test_bit in (0, 1):
                        if rng.random() < 0.5:
                            counts[k + test_bit] += math.comb(n - 1, k)
            value = _sup_coverage_polynomial(counts, n)
            reference = _reference_sup(counts, n, mpmath)
            assert abs(value - reference) <= 4e-15 * reference, (counts, value, reference)

    def test_no_mass_gives_zero(self):
        assert _sup_coverage_polynomial([0] * 8, 7) == 0.0

    def test_mass_at_zero_peaks_at_p_zero(self):
        assert _sup_coverage_polynomial([7] + [0] * 9, 9) == 7.0

    def test_mass_at_n_peaks_at_p_one(self):
        assert _sup_coverage_polynomial([0] * 9 + [5], 9) == 5.0

    @pytest.mark.parametrize("n", range(1, 22))
    def test_binomial_row_sums_to_one(self, n):
        value = _sup_coverage_polynomial([math.comb(n, j) for j in range(n + 1)], n)
        assert abs(value - 1.0) <= math.ulp(1.0)

    def test_global_maximum_in_the_right_half(self):
        mpmath = pytest.importorskip("mpmath")
        # peaks near p = 0.1 (about 0.285) and p = 0.85 (about 0.486)
        counts = [0] * 21
        counts[2], counts[17] = math.comb(20, 2), 2 * math.comb(20, 17)
        value = _sup_coverage_polynomial(counts, 20)
        assert value > 0.48
        assert abs(value - _reference_sup(counts, 20, mpmath)) <= 4e-15 * value


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
        for m in (np.int64(25), np.int64(0), np.bool_(True), 5.0):
            with pytest.raises(ValueError, match="must be an integer"):
                audit_pvariable(icp_pvariable, m)
        # numpy's integers are integers, and the report holds an int
        report = audit_pvariable(icp_pvariable, np.int64(5))
        assert report == audit_pvariable(icp_pvariable, 5) and type(report.m) is int

    def test_nan_value_rejected(self):
        # NaN compares false with every threshold, so the class would drop
        # out of every cell, and at 0 < k < m the symmetry probe would
        # report an asymmetry; the error names the class instead
        def nan_at(k, test_bit):
            def pvariable(seq):
                if (seq.k, seq.test_summary) == (k, test_bit):
                    return math.nan
                return float(icp_pvariable(seq))

            return pvariable

        for k, test_bit in ((0, 0), (2, 1), (4, 1)):
            with pytest.raises(ValueError, match=rf"NaN at class \(k={k}, test bit={test_bit}\)"):
                audit_pvariable(nan_at(k, test_bit), 4)

    def test_audits_a_toy_table_of_two_classes_per_k(self):
        # The first calibration bit splits each class (k, b) in two, of
        # C(m-1, k-1) and C(m-1, k) outcomes.  The toy p-variable reads that
        # bit, so it is not symmetric and the binary table cannot take it,
        # but the same audit over the split table is exact: each cell
        # equals the enumerated worst case of its exceedance event.
        m = 5

        def value(first, k, test_bit):
            return (k + 2 * test_bit + first + 1) / (m + 4)

        table = [
            (value(first, k, test_bit), k + test_bit, math.comb(m - 1, k - first))
            for k in range(m + 1)
            for test_bit in (0, 1)
            for first in (0, 1)
            if first <= k <= m - 1 + first
        ]
        assert sum(weight for _, _, weight in table) == 2**(m + 1)
        report = _audit_table(table, m)
        assert report.mode == "exact" and report.m == m
        assert len(report.cells) == len({entry[0] for entry in table})
        for cell in report.cells:
            expected = urp_binary_event(
                m, lambda bits, t: value(bits[0], sum(bits), t) <= cell.epsilon
            )
            assert cell.probability == expected, cell
            assert cell.passed == (expected <= cell.epsilon + 1e-9)
            assert cell.detail.endswith(f"/{len(table)} summary classes at or below threshold")


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

    @pytest.mark.parametrize("m", range(1, EXACT_M_LIMIT + 1))
    def test_engine_dominates_rank_on_binary_summaries(self, m):
        # at every m: the proof is in the binary_irp_pvariable docstring
        assert check_dominance(binary_irp_pvariable, icp_pvariable, m).verdict == "strict"

    def test_m_cap_and_validation(self):
        with pytest.raises(ValueError):
            check_dominance(icp_pvariable, icp_pvariable, 0)
        with pytest.raises(ValueError):
            check_dominance(icp_pvariable, icp_pvariable, 21)
        for m in (np.int64(21), np.bool_(True), 5.0):
            with pytest.raises(ValueError, match="must be an integer"):
                check_dominance(icp_pvariable, icp_pvariable, m)
        # numpy's integers are integers
        assert check_dominance(dominating_pvariable, icp_pvariable, np.int64(5)) == (
            check_dominance(dominating_pvariable, icp_pvariable, 5)
        )

    def test_nan_value_rejected(self):
        # a NaN compares false both ways, so a NaN p-variable used to come
        # out equal to every other one, "weak"
        for p1, p2 in ((lambda seq: math.nan, icp_pvariable), (icp_pvariable, lambda seq: math.nan)):
            with pytest.raises(ValueError, match=r"NaN at class \(k=0, test bit=0\)"):
                check_dominance(p1, p2, 1)


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

    @pytest.mark.parametrize("seed", [-1, True, False, np.bool_(False), np.int64(-1), 1.5, "3", None])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            monte_carlo_coverage(None, None, 0.05, 5, seed)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16, np.array])
    def test_numpy_integers_accepted(self, kind):
        report = monte_carlo_coverage(None, None, 0.05, kind(40), kind(7))
        assert report == monte_carlo_coverage(None, None, 0.05, 40, 7)
        assert type(report.trials) is int and type(report.seed) is int

    @pytest.mark.parametrize("trials", [True, np.bool_(True), np.int64(0), 10.0, "10"])
    def test_trials_must_be_a_positive_int(self, trials):
        with pytest.raises(ValueError, match="^trials must be a positive integer"):
            monte_carlo_coverage(None, None, 0.05, trials, 1)

    def test_overflowing_label_raises_the_split_error(self):
        # finite coefficients whose labels overflow: the harness raises the
        # error DataSplit raises for the same draw
        generator = BoundedNoiseLinearGenerator(coefficients=(1e308, 1e308))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="^features and labels must be finite$"):
                monte_carlo_coverage(None, generator, 0.05, 20, 0)
            with pytest.raises(ValueError, match="^features and labels must be finite$"):
                generator.sample(np.random.default_rng([0, 0]))

    def test_non_finite_test_center_raises_the_interval_error(self):
        # the training labels are finite, but the test row's feature is
        # near 1, where the fitted line passes the largest float: its
        # centre is inf, and the harness names it as interval_bounds does
        generator = BoundedNoiseLinearGenerator(
            coefficients=(1e307,), intercept=1.7e308, proper_size=5, calibration_size=3
        )
        spec = PipelineSpec()
        message = "^invalid interval: test row 1: point prediction inf is not finite$"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=message):
                monte_carlo_coverage(spec, generator, 0.05, 1, 53)
            split, x, _ = generator.sample(np.random.default_rng([53, 0]))
            assert np.isfinite(split.y).all()
            with pytest.raises(ValueError, match=message):
                fit_regression_pipeline(split, spec.predictor).interval_bounds(x[np.newaxis])

    def test_mean_of_labels_near_the_largest_float_is_finite(self):
        # the labels' sum overflows, but their mean does not: the harness
        # reports, and the test row's centre is the labels' mean
        generator = BoundedNoiseLinearGenerator(coefficients=(1e305,), intercept=1e308)
        spec = PipelineSpec(predictor=RegressorSpec("mean"))
        report = monte_carlo_coverage(spec, generator, 0.05, 3, 0)
        assert report == _recount(spec, generator, 0.05, 3, 0)
        split, x, _ = generator.sample(np.random.default_rng([0, 0]))
        (center,) = fit_regression_pipeline(split, spec.predictor).predictor.predict_batch([x])
        labels = split.proper[1].tolist()
        assert center == pytest.approx(float(sum(map(Fraction, labels)) / len(labels)), rel=1e-15)

    def test_test_row_is_not_a_calibration_row(self):
        # Five proper rows and the mean predictor: the interval often
        # misses.  A miss counts for icp at (k, m) = (0, 3), where the
        # incertitude is 0.25 <= 0.3.  Scoring the test row as one more
        # calibration bit would give (1, 4) on exactly the trials where
        # the interval misses, an incertitude of 0.4, and a level set that
        # is the whole line.
        spec = PipelineSpec(predictor=RegressorSpec("mean"))
        generator = BoundedNoiseLinearGenerator(proper_size=5, calibration_size=3)
        report = monte_carlo_coverage(spec, generator, 0.3, 200, 1)
        assert report == _recount(spec, generator, 0.3, 200, 1)
        assert all(cell.probability > 0.05 for cell in report.cells[:2])


def _recount(spec, generator, epsilon, trials, seed):
    """The report of monte_carlo_coverage, recounted trial by trial through
    the public API, with every method's level set formed on every trial."""
    methods = ("irp", "icp") if spec.method == "both" else (spec.method,)
    misses = dict.fromkeys(methods, 0)
    identical = 0
    for trial in range(trials):
        split, x, y = generator.sample(np.random.default_rng([seed, trial]))
        pipeline = fit_regression_pipeline(split, spec.predictor)
        (lower,), (upper,) = pipeline.interval_bounds(x[np.newaxis])
        predictions = {method: pipeline.hedge(Interval(lower, upper), method) for method in methods}
        for method, prediction in predictions.items():
            if not prediction_set(prediction, epsilon).contains(y):
                misses[method] += 1
        if len(methods) == 2:
            identical += predictions["irp"].prediction_set == predictions["icp"].prediction_set
    cells = []
    for method in methods:
        rate = misses[method] / trials
        stderr = math.sqrt(rate * (1.0 - rate) / trials)
        cells.append(ValidityCell(
            f"coverage-{method}", epsilon, rate, rate <= epsilon + 3.0 * stderr, stderr,
            f"{misses[method]}/{trials} test labels excluded",
        ))
    if len(methods) == 2:
        rate = identical / trials
        cells.append(ValidityCell(
            "interval-identity", epsilon, rate, identical == trials,
            math.sqrt(rate * (1.0 - rate) / trials),
            f"{identical}/{trials} trials with identical intervals",
        ))
    return ValidityReport("monte_carlo", tuple(cells), generator.calibration_size, trials, seed)


class TestMonteCarloRecount:
    """The harness forms level sets only where the interval misses the
    label; its whole report equals a recount that forms them on every
    trial."""

    @pytest.mark.parametrize("seed", [0, 5, 2026])
    @pytest.mark.parametrize("m", [5, 30, 60])
    @pytest.mark.parametrize("epsilon", [0.05, 0.2])
    @pytest.mark.parametrize("method", ["both", "irp", "icp"])
    def test_report_equals_recount(self, method, epsilon, m, seed):
        spec = PipelineSpec(method=method)
        generator = BoundedNoiseLinearGenerator(calibration_size=m)
        report = monte_carlo_coverage(spec, generator, epsilon, 60, seed)
        assert report == _recount(spec, generator, epsilon, 60, seed)

    def test_recount_sees_misses(self):
        # the recount is a check only where some label is excluded
        spec, generator = PipelineSpec(), BoundedNoiseLinearGenerator(calibration_size=60)
        report = _recount(spec, generator, 0.2, 300, 4)
        assert all(cell.probability > 0 for cell in report.cells[:2])
        assert report == monte_carlo_coverage(spec, generator, 0.2, 300, 4)


def _block_trials(generator):
    """How many trials the harness counts in one block."""
    rows = generator.proper_size + generator.calibration_size + 1
    return max(1, _BLOCK_ROWS // rows)


class TestMonteCarloBlocks:
    """The harness counts its trials in blocks of at most _BLOCK_ROWS data
    rows; the report and the error raised are those of the trial-by-trial
    path at every block boundary."""

    @pytest.mark.parametrize(
        "m, trials",
        # a block holds 202 trials at m = 30 and one trial at the large m,
        # which has no trial count below its block
        [(30, t) for t in (201, 202, 203, 405)] + [(_BLOCK_ROWS, t) for t in (1, 2, 3)],
    )
    def test_report_equals_recount_at_block_seams(self, m, trials):
        spec, generator = PipelineSpec(), BoundedNoiseLinearGenerator(calibration_size=m)
        assert _block_trials(generator) == (202 if m == 30 else 1)
        report = monte_carlo_coverage(spec, generator, 0.2, trials, 3)
        assert report == _recount(spec, generator, 0.2, trials, 3)

    def test_first_failure_in_a_later_block(self):
        # the labels overflow where the feature is within about 5e-5 of 1:
        # at seed 2 trial 446, in the third block, is the first to fail
        spec = PipelineSpec()
        generator = BoundedNoiseLinearGenerator(coefficients=(1e307,), intercept=1.6977e308)
        assert 446 > 2 * _block_trials(generator)
        with np.errstate(over="ignore"):
            report = monte_carlo_coverage(spec, generator, 0.05, 446, 2)
            assert report == _recount(spec, generator, 0.05, 446, 2)
            for count in (monte_carlo_coverage, _recount):
                with pytest.raises(ValueError, match="^features and labels must be finite$"):
                    count(spec, generator, 0.05, 447, 2)

    def test_center_error_before_label_error_in_one_block(self):
        # at seed 1 trial 0 passes, trial 1's test centre overflows to inf
        # and trial 3's training labels overflow: trial 1's error is raised
        spec = PipelineSpec()
        generator = BoundedNoiseLinearGenerator(
            coefficients=(1.7e308, 1.7e308), intercept=0.0, proper_size=3, calibration_size=1
        )
        assert _block_trials(generator) > 4
        message = "^invalid interval: test row 1: point prediction inf is not finite$"
        with np.errstate(over="ignore", invalid="ignore"):
            assert monte_carlo_coverage(spec, generator, 0.05, 1, 1) == _recount(
                spec, generator, 0.05, 1, 1
            )
            for count in (monte_carlo_coverage, _recount):
                with pytest.raises(ValueError, match=message):
                    count(spec, generator, 0.05, 4, 1)
            with pytest.raises(ValueError, match="^features and labels must be finite$"):
                generator.sample(np.random.default_rng([1, 3]))

    def test_nan_width_is_raised_in_trial_order(self):
        # a NaN proper prediction makes a NaN half-width, which the pipeline
        # rejects; a block raises it, or an earlier trial's centre error
        width_message = "^width must be nonnegative, got nan$"
        with pytest.raises(ValueError, match=width_message):
            FittedPipeline("regression", MeanRegressor(), math.nan, 0, 1)
        generator = BoundedNoiseLinearGenerator(proper_size=2, calibration_size=1)
        (split_1, _, _), (_, x_0, _), (_, x_2, _) = (
            generator.sample(np.random.default_rng([0, trial])) for trial in (1, 0, 2)
        )
        # trial 2's test centre, then a proper row of trial 1
        marks = [(x_2, math.inf), (split_1.X[0], math.nan)]
        with pytest.raises(ValueError, match=width_message):
            monte_carlo_coverage(PipelineSpec(predictor=_MarkedRows(marks)), generator, 0.05, 3, 0)
        marks = [(x_0, -math.inf)] + marks  # and trial 0's test centre
        with pytest.raises(ValueError, match="^invalid interval: test row 1: point prediction -inf"):
            monte_carlo_coverage(PipelineSpec(predictor=_MarkedRows(marks)), generator, 0.05, 3, 0)


class _Alternating:
    """A predictor spec that builds least-squares and mean predictors in
    turn, the first one least squares."""

    def __init__(self):
        self.built = 0

    def build(self):
        self.built += 1
        return LeastSquaresRegressor() if self.built % 2 else MeanRegressor()


def _per_trial(predictor_spec, generator, seed, trials):
    """The predictions, labels and affine maps of trials 0, 1, ... drawn
    and predicted one trial at a time by _draw and predict_batch."""
    rows, proper = [], generator.proper_size
    for trial in range(trials):
        X, y = generator._draw(np.random.default_rng([seed, trial]))
        predictor = predictor_spec.build().fit(X[:proper], y[:proper])
        rows.append((predictor.predict_batch(X), y, getattr(predictor, "affine_map", None)))
    return rows


class TestStagedTrials:
    """A stage of trials draws per trial, takes the labels in one pass,
    fits per trial and predicts every affine trial in one pass; its labels
    and predictions are bitwise those of the per-trial path.  On numpy's
    oldest supported version too, these tests pin the stacked matmul of the
    label rule to one BLAS matrix-vector product per trial."""

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("m", [1, 30, 200])
    def test_labels_and_predictions_equal_the_per_trial_path(self, d, m):
        coefficients = tuple(np.random.default_rng(d).uniform(-3.0, 3.0, d).tolist())
        generator = BoundedNoiseLinearGenerator(coefficients, calibration_size=m)
        for seed in (0, 2026):
            predictions, labels = _stage_trials(
                RegressorSpec(), generator, _trial_states(seed, 0, 40)
            )
            expected = _per_trial(RegressorSpec(), generator, seed, 40)
            assert predictions.shape == labels.shape == (40, generator.proper_size + m + 1)
            for trial, (prediction, label, affine) in enumerate(expected):
                assert affine is not None
                assert labels[trial].tobytes() == label.tobytes()
                assert predictions[trial].tobytes() == prediction.tobytes()
                split, x, y = generator.sample(np.random.default_rng([seed, trial]))
                assert split.y.tobytes() == labels[trial, :-1].tobytes()
                assert y == labels[trial, -1]

    @pytest.mark.parametrize("proper_size", [50, 2])
    def test_affine_and_own_predictions_in_one_stage(self, proper_size):
        # least squares on even trials and the mean on odd ones; with two
        # proper rows below d + 1 = 3, every least-squares fit falls back
        # to the mean too, and no trial has an affine map
        generator = BoundedNoiseLinearGenerator(proper_size=proper_size, calibration_size=20)
        predictions, labels = _stage_trials(_Alternating(), generator, _trial_states(4, 0, 30))
        expected = _per_trial(_Alternating(), generator, 4, 30)
        maps = [affine is not None for _, _, affine in expected]
        assert maps == [proper_size == 50 and trial % 2 == 0 for trial in range(30)]
        for trial, (prediction, label, _) in enumerate(expected):
            assert labels[trial].tobytes() == label.tobytes()
            assert predictions[trial].tobytes() == prediction.tobytes()
        for make_spec in (lambda: PipelineSpec(predictor=_Alternating()), PipelineSpec):
            report = monte_carlo_coverage(make_spec(), generator, 0.2, 30, 4)
            assert report == _recount(make_spec(), generator, 0.2, 30, 4)

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("m", [1, 30, 200])
    def test_staged_maps_are_the_fitted_affine_maps(self, monkeypatch, d, m):
        # the staged least-squares path writes the shared rule's solution
        # straight into its maps: the bytes of the public fit's affine_map
        solved = []

        def recorded(design, y):
            solution, rank = _least_squares(design, y)
            solved.append(solution)
            return solution, rank

        monkeypatch.setattr("randpred.validity._least_squares", recorded)
        coefficients = tuple(np.random.default_rng(d).uniform(-3.0, 3.0, d).tolist())
        generator = BoundedNoiseLinearGenerator(coefficients, calibration_size=m)
        proper = generator.proper_size
        _stage_trials(RegressorSpec(), generator, _trial_states(11, 0, 40))
        assert len(solved) == 40
        for trial, solution in enumerate(solved):
            X, y = generator._draw(np.random.default_rng([11, trial]))
            coef, intercept = LeastSquaresRegressor().fit(X[:proper], y[:proper]).affine_map
            assert solution[:-1].tobytes() == np.array(coef).tobytes()
            assert solution[-1:].tobytes() == np.array([intercept]).tobytes()

    def test_full_rank_and_rank_deficient_fits_in_one_stage(self, monkeypatch):
        # the shared rule reports a low rank on every other trial's data,
        # first seen first; that trial falls back to the mean through the
        # public fit, which reads the same rule and so falls back too
        deficient = {}

        def alternating(design, y):
            solution, rank = _least_squares(design, y)
            if deficient.setdefault(y.tobytes(), len(deficient) % 2):
                return None, rank - 1
            return solution, rank

        for target in ("randpred.predictors", "randpred.validity"):
            monkeypatch.setattr(f"{target}._least_squares", alternating)
        fits = []
        fit = LeastSquaresRegressor.fit

        def counted(self, X, y):
            fits.append(len(y))
            return fit(self, X, y)

        monkeypatch.setattr(LeastSquaresRegressor, "fit", counted)
        generator = BoundedNoiseLinearGenerator(calibration_size=20)
        predictions, labels = _stage_trials(RegressorSpec(), generator, _trial_states(6, 0, 30))
        assert fits == [50] * 15
        expected = _per_trial(RegressorSpec(), generator, 6, 30)
        assert [affine is not None for _, _, affine in expected] == [t % 2 == 0 for t in range(30)]
        for trial, (prediction, label, _) in enumerate(expected):
            assert labels[trial].tobytes() == label.tobytes()
            assert predictions[trial].tobytes() == prediction.tobytes()

    def test_a_successful_default_run_calls_no_fit(self, monkeypatch):
        fits = []
        for cls in (LeastSquaresRegressor, MeanRegressor):
            def counted(self, X, y, fit=cls.fit, name=cls.__name__):
                fits.append(name)
                return fit(self, X, y)

            monkeypatch.setattr(cls, "fit", counted)
        monte_carlo_coverage(None, BoundedNoiseLinearGenerator(calibration_size=30), 0.05, 450, 3)
        assert fits == []
        # every other spec, and every rank-deficient trial, fits per trial
        # through the public route
        monte_carlo_coverage(PipelineSpec(predictor=RegressorSpec("mean")), None, 0.05, 7, 3)
        assert fits == ["MeanRegressor"] * 7
        fits.clear()
        monte_carlo_coverage(PipelineSpec(predictor=_Alternating()), None, 0.05, 7, 3)
        assert fits == ["LeastSquaresRegressor", "MeanRegressor"] * 3 + ["LeastSquaresRegressor"]
        fits.clear()
        # two proper rows, three design columns: each fit falls back to the mean
        generator = BoundedNoiseLinearGenerator(proper_size=2, calibration_size=30)
        monte_carlo_coverage(None, generator, 0.05, 5, 3)
        assert fits == ["LeastSquaresRegressor", "MeanRegressor"] * 5

    def test_a_successful_run_calls_no_predict_batch(self, monkeypatch):
        calls = []
        predict_batch = LeastSquaresRegressor.predict_batch

        def counted(self, X):
            calls.append(len(X))
            return predict_batch(self, X)

        monkeypatch.setattr(LeastSquaresRegressor, "predict_batch", counted)
        monte_carlo_coverage(None, BoundedNoiseLinearGenerator(calibration_size=30), 0.05, 450, 3)
        assert calls == []
        # a fitted predictor without an affine map predicts by its own
        generator = BoundedNoiseLinearGenerator(proper_size=2, calibration_size=30)
        monte_carlo_coverage(None, generator, 0.05, 5, 3)
        assert calls == [33] * 5

    @pytest.mark.parametrize("d", [3, 10])
    def test_wide_stages_stay_within_the_cell_cap(self, monkeypatch, d):
        # 16 rows a trial and 4 trials a block of 64 rows, staged within
        # the cap of 128 feature cells: 2 trials (96 cells) a part at d = 3,
        # and 1 trial a part at d = 10, where one trial has 160 cells
        monkeypatch.setattr("randpred.validity._BLOCK_ROWS", 64)
        stages = []

        def staged(predictor_spec, generator, states):
            stages.append(len(states))
            return _stage_trials(predictor_spec, generator, states)

        monkeypatch.setattr("randpred.validity._stage_trials", staged)
        generator = BoundedNoiseLinearGenerator(
            coefficients=(0.5,) * d, proper_size=12, calibration_size=3
        )
        spec = PipelineSpec()
        report = monte_carlo_coverage(spec, generator, 0.2, 13, 9)
        assert report == _recount(spec, generator, 0.2, 13, 9)
        assert stages == ([2, 2, 2, 2, 2, 2, 1] if d == 3 else [1] * 13)
        assert all(count * 16 * d <= 2 * 64 or count == 1 for count in stages)


class TestTrialStates:
    """A block's trial streams are seeded from one array pass of numpy's
    SeedSequence algorithm; every stream is default_rng([seed, trial])."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 7])
    @pytest.mark.parametrize(
        "first, count",
        # the trial's entropy grows from one word to two at 2**32
        [(0, 300), (2**32 - 3, 6)],
    )
    def test_rows_seed_the_default_rng_streams(self, seed, first, count):
        states = _trial_states(seed, first, count)
        assert states.dtype == np.uint64 and states.shape == (count, 4)
        assert states.flags.c_contiguous
        for row, trial in enumerate(range(first, first + count)):
            expected = np.random.SeedSequence([seed, trial]).generate_state(4, np.uint64)
            np.testing.assert_array_equal(states[row], expected)
            rng = np.random.Generator(np.random.PCG64(_TrialState(states[row])))
            reference = np.random.default_rng([seed, trial])
            np.testing.assert_array_equal(rng.random(4), reference.random(4))
            np.testing.assert_array_equal(rng.integers(2**63, size=3), reference.integers(2**63, size=3))

    def test_trial_state_seeds_only_pcg64(self):
        row = _trial_states(7, 0, 1)[0]
        with pytest.raises(ValueError, match="4 uint64 words"):
            np.random.MT19937(_TrialState(row))
        for n_words, dtype in [(4, np.uint32), (8, np.uint64), (2, np.uint64)]:
            with pytest.raises(ValueError, match="4 uint64 words"):
                _TrialState(row).generate_state(n_words, dtype)

    def test_big_seed_over_three_blocks_equals_recount(self):
        spec, generator = PipelineSpec(), BoundedNoiseLinearGenerator(calibration_size=30)
        assert 2 * _block_trials(generator) < 450 <= 3 * _block_trials(generator)
        report = monte_carlo_coverage(spec, generator, 0.05, 450, 2**100 + 7)
        assert report == _recount(spec, generator, 0.05, 450, 2**100 + 7)

    def test_a_successful_run_calls_no_default_rng(self, monkeypatch):
        calls = []
        default_rng = np.random.default_rng

        def counted(*args, **kwargs):
            calls.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        monte_carlo_coverage(None, BoundedNoiseLinearGenerator(calibration_size=30), 0.05, 450, 3)
        assert calls == []
        # the replay path of a failing block still seeds by default_rng
        generator = BoundedNoiseLinearGenerator(coefficients=(1e308, 1e308))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="^features and labels must be finite$"):
                monte_carlo_coverage(None, generator, 0.05, 20, 0)
        assert calls and calls[0] == ([0, 0],)


class _MarkedRows:
    """A predictor spec whose predictor ignores its training data and
    predicts a marked value at every row equal to a marked feature row, 0
    elsewhere: a row-wise function of X, as a fitted predictor is."""

    def __init__(self, marks):
        self.marks = marks

    def build(self):
        return self

    def fit(self, X, y):
        return self

    def predict_batch(self, X):
        X = np.asarray(X, dtype=np.float64)
        predictions = np.zeros(len(X))
        for row, value in self.marks:
            predictions[(X == row).all(axis=1)] = value
        return predictions


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
        gen = BoundedNoiseLinearGenerator(proper_size=5, calibration_size=3)
        split, x, y = gen.sample(np.random.default_rng(0))
        assert split.proper_size == 5
        assert split.calibration_size == 3
        assert x.shape == (2,) and isinstance(y, float)

    def test_noise_is_bounded(self):
        gen = BoundedNoiseLinearGenerator(noise_half_width=0.25)
        split, x, y = gen.sample(np.random.default_rng(1))
        rows = list(zip(split.X.tolist(), split.y.tolist())) + [(x.tolist(), y)]
        assert len(rows) == gen.proper_size + gen.calibration_size + 1
        for features, label in rows:
            signal = sum(c * x for c, x in zip(gen.coefficients, features)) + gen.intercept
            assert abs(label - signal) <= gen.noise_half_width

    def test_same_draws_as_per_row_examples(self):
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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"noise_half_width": 0.0},
            {"coefficients": (0.7,)},
            {"coefficients": tuple(np.linspace(-1.0, 1.0, 200)), "calibration_size": 3},
            {"feature_low": 2.5, "feature_high": 3.0, "noise_half_width": 1e-9},
            {"feature_low": -1e300, "feature_high": 1e300, "noise_half_width": 1e307},
        ],
        ids=["default", "no-noise", "d=1", "d=200", "shifted", "wide"],
    )
    def test_one_random_call_is_the_two_uniform_calls(self, kwargs):
        # the one rng.random call, scaled, is bit for bit numpy's
        # uniform(low, high) of the features and then of the noise
        gen = BoundedNoiseLinearGenerator(**kwargs)
        n, d = gen.proper_size + gen.calibration_size + 1, len(gen.coefficients)
        h = gen.noise_half_width
        for seed in range(5):
            rng = np.random.default_rng([seed, 7])
            features = rng.uniform(gen.feature_low, gen.feature_high, size=(n, d))
            noise = rng.uniform(-h, h, size=n)
            labels = features @ np.array(gen.coefficients) + gen.intercept + noise
            drawn = gen._uniforms(np.random.default_rng([seed, 7]))
            assert [a.shape for a in drawn] == [(n, d), (n,)]
            assert drawn[0].tobytes() == features.tobytes()
            assert drawn[1].tobytes() == noise.tobytes()
            split, x, y = gen.sample(np.random.default_rng([seed, 7]))
            assert split.X.tobytes() == features[:-1].tobytes()
            assert split.y.tobytes() == labels[:-1].tobytes()
            assert x.tobytes() == features[-1].tobytes() and y == labels[-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundedNoiseLinearGenerator(coefficients=())
        with pytest.raises(ValueError):
            BoundedNoiseLinearGenerator(proper_size=0)
        with pytest.raises(ValueError):
            BoundedNoiseLinearGenerator(noise_half_width=-1.0)
        with pytest.raises(ValueError):
            BoundedNoiseLinearGenerator(feature_low=1.0, feature_high=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("coefficients", (math.inf, 1.0)),
            ("coefficients", (1.0, math.nan)),
            ("coefficients", ("1.0",)),
            ("intercept", math.nan),
            ("intercept", True),
            ("noise_half_width", math.nan),
            ("noise_half_width", 1e308),  # 2 * 1e308 overflows
            ("feature_low", -math.inf),
            ("feature_high", math.inf),
            ("feature_high", 1.7e308),  # 1.7e308 - (-1.0) is finite; -1e308 below is not
            ("proper_size", 2.5),
            ("proper_size", True),
            ("calibration_size", True),
            ("calibration_size", "30"),
            ("calibration_size", -3),
        ],
    )
    def test_rejected_at_construction_naming_the_field(self, field, value):
        kwargs = {field: value}
        if value == 1.7e308:
            kwargs["feature_low"] = -1e308
        with pytest.raises(ValueError, match=field):
            BoundedNoiseLinearGenerator(**kwargs)

    def test_numpy_scalars_accepted(self):
        gen = BoundedNoiseLinearGenerator(
            coefficients=np.array([1.0, 2.0]), intercept=np.float32(0.5), proper_size=np.int64(4)
        )
        assert gen.coefficients == (1.0, 2.0) and gen.intercept == 0.5
        assert type(gen.proper_size) is int and gen.proper_size == 4

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        coefficients=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
        intercept=st.floats(-1e3, 1e3),
        noise_half_width=st.floats(0.0, 10.0),
        proper_size=st.integers(1, 9),
        calibration_size=st.integers(1, 9),
        feature_low=st.floats(-100.0, 100.0),
        feature_width=st.floats(1e-3, 100.0),
    )
    def test_sample_wraps_the_harness_draw(
        self, seed, coefficients, intercept, noise_half_width, proper_size, calibration_size,
        feature_low, feature_width,
    ):
        gen = BoundedNoiseLinearGenerator(
            tuple(coefficients), intercept, noise_half_width, proper_size, calibration_size,
            feature_low, feature_low + feature_width,
        )
        X, labels = gen._draw(np.random.default_rng(seed))
        split, x, y = gen.sample(np.random.default_rng(seed))
        n = proper_size + calibration_size
        assert X.shape == (n + 1, len(coefficients)) and labels.shape == (n + 1,)
        assert np.array_equal(split.X, X[:-1]) and np.array_equal(split.y, labels[:-1])
        assert split.proper_size == proper_size
        assert np.array_equal(x, X[-1]) and y == labels[-1]


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
        for k_max in (np.int64(-1), np.bool_(True), 3.0):
            with pytest.raises(ValueError, match="must be a nonnegative integer"):
                reproduce_table_k(k_max)
        # numpy's integers are integers
        assert reproduce_table_k(np.int64(3)) == reproduce_table_k(3)


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
