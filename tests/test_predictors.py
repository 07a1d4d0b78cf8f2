import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randpred import (
    ConstantClassifier,
    HingeLossLinearClassifier,
    LeastSquaresRegressor,
    MeanRegressor,
    PointPredictor,
)


def predict_one(model, x):
    """The model's prediction for one object, from a one-row batch."""
    return model.predict_batch(np.array([x], dtype=float))[0]


def linear_data(coef, intercept, n=30, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, len(coef)))
    return X, X @ np.array(coef) + intercept


class TestMeanRegressor:
    def test_predicts_training_mean(self):
        model = MeanRegressor().fit([[0.0], [1.0]], [1.0, 3.0])
        assert predict_one(model, (5.0,)) == 2.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MeanRegressor().fit(np.empty((0, 1)), [])

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            predict_one(MeanRegressor(), (0.0,))

    @pytest.mark.parametrize(
        "labels",
        [
            [1e308, 1e308],
            [1.7e308] * 5,
            [math.ulp(0.0), 1.7976931348623157e308, 1.7976931348623157e308],
            [-1.7976931348623157e308] * 3 + [1e308],
            [1.7976931348623157e308, -1.7976931348623157e308, 1.7976931348623157e308, 1.0],
        ],
    )
    def test_mean_is_finite_where_the_sum_overflows(self, labels):
        # no warning either: pytest turns warnings into errors
        mean = predict_one(MeanRegressor().fit(np.zeros((len(labels), 1)), labels), (0.0,))
        exact = sum(map(Fraction, labels)) / len(labels)
        assert math.isfinite(mean)
        assert min(labels) <= mean <= max(labels)
        assert mean == pytest.approx(float(exact), rel=1e-15)

    @settings(max_examples=50)
    @given(labels=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40))
    def test_mean_is_numpys_where_that_is_finite(self, labels):
        model = MeanRegressor().fit(np.zeros((len(labels), 1)), labels)
        assert predict_one(model, (0.0,)) == float(np.mean(np.array(labels)))

    def test_rejects_other_widths(self):
        model = MeanRegressor().fit(np.zeros((3, 2)), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=r"expected X of shape \(n, 2\), got \(1, 3\)"):
            predict_one(model, (1.0, 2.0, 3.0))


class TestLeastSquaresRegressor:
    def test_recovers_exact_linear_signal(self):
        X, y = linear_data([1.5, -2.0], 0.3)
        model = LeastSquaresRegressor().fit(X, y)
        assert model.fallback_reason is None
        assert model.predict_batch(X) == pytest.approx(y, abs=1e-10)
        assert predict_one(model, (0.5, 0.5)) == pytest.approx(1.5 * 0.5 - 2.0 * 0.5 + 0.3, abs=1e-10)

    def test_rank_deficient_falls_back_to_mean(self):
        # one example, two features: the design cannot have full column rank
        model = LeastSquaresRegressor().fit([[1.0, 2.0]], [5.0])
        assert model.fallback_reason is not None
        assert "rank" in model.fallback_reason
        assert predict_one(model, (9.0, 9.0)) == 5.0

    def test_collinear_features_fall_back(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        model = LeastSquaresRegressor().fit(np.column_stack([v, 2 * v]), 3 * v)
        assert model.fallback_reason is not None
        assert predict_one(model, (1.0, 2.0)) == pytest.approx(7.5)

    def test_deterministic(self):
        X, y = linear_data([0.7], -0.1, seed=3)
        a = LeastSquaresRegressor().fit(X, y)
        b = LeastSquaresRegressor().fit(X, y)
        assert predict_one(a, (0.321,)) == predict_one(b, (0.321,))

    def test_satisfies_protocol(self):
        assert isinstance(LeastSquaresRegressor(), PointPredictor)

    def test_refit_starts_afresh(self):
        # a fit after a rank-deficient one drops its mean-label fallback
        X, y = linear_data([1.5, -2.0], 0.3)
        model = LeastSquaresRegressor()
        for A, b in ((X, y), (X[:1], y[:1]), (X, y)):
            assert fitted_state(model.fit(A, b), X) == fitted_state(
                LeastSquaresRegressor().fit(A, b), X
            )
        assert model.fallback_reason is None


class TestConstantClassifier:
    def test_infinite_scores(self):
        assert predict_one(ConstantClassifier(1), (0.0,)) == math.inf
        assert predict_one(ConstantClassifier(-1), (0.0,)) == -math.inf

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            ConstantClassifier(0)

    def test_fitted_rejects_other_widths(self):
        model = ConstantClassifier(1).fit(np.zeros((2, 2)), [1.0, 1.0])
        assert predict_one(model, (0.0, 0.0)) == math.inf
        with pytest.raises(ValueError, match=r"expected X of shape \(n, 2\), got \(1, 1\)"):
            predict_one(model, (0.0,))


class TestHingeLossLinearClassifier:
    def separable(self, n=40, seed=1, gap=0.15):
        # reject points too close to the separating line so the classes
        # have an actual margin between them
        rng = np.random.default_rng(seed)
        rows = []
        while len(rows) < n:
            x = rng.uniform(-1, 1, size=2)
            if abs(x[0] + x[1]) < gap:
                continue
            rows.append(x)
        X = np.array(rows)
        return X, np.where(X[:, 0] + X[:, 1] > 0, 1.0, -1.0)

    def test_separates_separable_data(self):
        X, y = self.separable()
        model = HingeLossLinearClassifier().fit(X, y)
        assert model.fallback_reason is None
        assert ((model.predict_batch(X) > 0) == (y > 0)).all()

    def test_two_point_symmetry(self):
        model = HingeLossLinearClassifier().fit([[-1.0], [1.0]], [-1, 1])
        assert predict_one(model, (0.0,)) == pytest.approx(0.0, abs=1e-9)
        assert predict_one(model, (1.0,)) > 0 > predict_one(model, (-1.0,))

    def test_single_class_falls_back(self):
        model = HingeLossLinearClassifier().fit([[0.0], [1.0]], [1, 1])
        assert model.fallback_reason is not None
        assert predict_one(model, (5.0,)) == math.inf

    def test_rejects_non_sign_labels(self):
        with pytest.raises(ValueError):
            HingeLossLinearClassifier().fit([[0.0]], [2])

    @pytest.mark.parametrize("label", [1.5, 1.9, 0.5, -1.5])
    def test_rejects_fractional_labels(self, label):
        # int(1.5) == 1: the labels must be compared exactly, not truncated
        with pytest.raises(ValueError, match="-1 or \\+1"):
            HingeLossLinearClassifier().fit([[0.0], [1.0], [2.0]], [-1.0, 1.0, label])

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "3"])
    def test_bad_seed_rejected_when_built(self, seed):
        with pytest.raises(ValueError, match="seed"):
            HingeLossLinearClassifier(seed=seed)

    @pytest.mark.parametrize("seed", [None, 0, 7, np.int64(7)])
    def test_good_seed_accepted(self, seed):
        assert HingeLossLinearClassifier(seed=seed).seed == seed

    def test_deterministic_without_seed(self):
        X, y = self.separable(seed=5)
        a = HingeLossLinearClassifier().fit(X, y)
        b = HingeLossLinearClassifier().fit(X, y)
        assert predict_one(a, (0.2, -0.4)) == predict_one(b, (0.2, -0.4))

    def test_seeded_init_reproducible(self):
        X, y = self.separable(seed=6)
        a = HingeLossLinearClassifier(seed=11).fit(X, y)
        b = HingeLossLinearClassifier(seed=11).fit(X, y)
        c = HingeLossLinearClassifier(seed=12).fit(X, y)
        x = (0.3, 0.3)
        assert predict_one(a, x) == predict_one(b, x)
        assert predict_one(a, x) != predict_one(c, x)

    @staticmethod
    def hinge_data(case, seed, n, d):
        rng = np.random.default_rng(seed)
        if case == "scaled":
            X = rng.normal(0.0, 10.0 ** rng.uniform(-2, 2, size=d), size=(n, d))
            y = np.where(X @ rng.normal(size=d) + rng.normal(0.0, 1.0, n) > 0, 1.0, -1.0)
        elif case == "flipped":
            # as the benchmark's classification files: a random hyperplane
            # in the unit cube with 2% of the labels flipped
            w, b = rng.normal(size=d), rng.uniform(-0.2, 0.2)
            X = rng.uniform(-1.0, 1.0, (n, d))
            y = np.where(X @ w + b >= 0.0, 1.0, -1.0)
            y[rng.random(n) < 0.02] *= -1.0
        else:  # "wide-margin": every row 3 units from the hyperplane
            w = rng.normal(size=d)
            w /= np.linalg.norm(w)
            X = rng.uniform(-1.0, 1.0, (n, d))
            y = np.where(X @ w >= 0.0, 1.0, -1.0)
            X += 3.0 * y[:, None] * w
        return X, y

    @pytest.mark.parametrize(
        "seed, init, case, n, d, last_share",
        [
            pytest.param(0, None, "scaled", 400, 4, None, id="0-None"),
            pytest.param(1, None, "scaled", 400, 4, None, id="1-None"),
            pytest.param(2, 7, "scaled", 400, 4, None, id="2-7"),
            pytest.param(3, None, "scaled", 400, 4, None, id="3-None"),
            pytest.param(4, None, "flipped", 12_500, 5, (0.25, 0.35), id="benchmark-sized"),
            pytest.param(5, 3, "scaled", 300, 1, None, id="one-feature"),
            pytest.param(6, None, "wide-margin", 400, 3, (0.0, 0.0), id="wide-margin"),
            # one column, whose violating rows numpy sums pairwise, with
            # more of them than its 8192-element reduction block early on
            pytest.param(7, None, "flipped", 12_500, 1, None, id="one-feature-large"),
            pytest.param(
                8, None, "flipped", 12_500, 2, (0.25, 0.35), id="benchmark-sized-two-features"
            ),
        ],
    )
    def test_weights_match_per_epoch_products(self, seed, init, case, n, d, last_share):
        # The reference forms y * X over the violating rows inside every
        # epoch and sums the violating labels; the fit's products, taken
        # once before the loop, and its label count must give the same
        # weights bit for bit.
        X, y = self.hinge_data(case, seed, n, d)
        model = HingeLossLinearClassifier(seed=init).fit(X, y)

        w = np.zeros(d) if init is None else 0.01 * np.random.default_rng(init).standard_normal(d)
        b = 0.0
        violations = []
        for _ in range(model.epochs):
            violating = y * (X @ w + b) < 1.0
            violations.append(np.count_nonzero(violating))
            grad_w = model.l2 * w
            grad_b = 0.0
            if np.any(violating):
                grad_w = grad_w - (y[violating, None] * X[violating]).sum(axis=0) / n
                grad_b = -y[violating].sum() / n
            w = w - model.learning_rate * grad_w
            b = b - model.learning_rate * grad_b
        assert model._weights == tuple(w.tolist())
        assert model._bias == float(b)
        if last_share is not None:
            # the share of violating rows over the later half of the epochs
            low, high = last_share
            shares = np.array(violations[model.epochs // 2 :]) / n
            assert low <= shares.min() and shares.max() <= high

    @pytest.mark.parametrize("init", [None, 5])
    def test_fit_buffers_leave_inputs_and_refits_alone(self, init):
        # the fit keeps its epoch buffers to itself: a read-only strided
        # view, as read_csv_dataset returns its features and labels, fits
        # as its contiguous copy does, and a refit starts afresh
        X, y = self.hinge_data("flipped", 9, 3000, 3)
        rows = np.column_stack([X, y])
        rows.setflags(write=False)
        before = rows.copy()
        view, labels = rows[:, :-1], rows[:, -1]
        assert not view.flags.c_contiguous and not view.flags.writeable
        copy = np.ascontiguousarray(view)
        fitted = [HingeLossLinearClassifier(seed=init).fit(A, labels) for A in (view, copy)]
        assert np.array_equal(rows, before) and np.array_equal(copy, before[:, :-1])
        assert fitted_state(fitted[0], X) == fitted_state(fitted[1], X)

        # refits on other data, on one class (the fallback) and back
        model = fitted[0]
        other, other_labels = self.hinge_data("scaled", 10, 500, 3)
        for A, b in ((other, other_labels), (other, np.ones(500)), (view, labels)):
            fresh = HingeLossLinearClassifier(seed=init).fit(A, b)
            assert fitted_state(model.fit(A, b), X) == fitted_state(fresh, X)
        assert fitted_state(model, X) == fitted_state(fitted[1], X)

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            HingeLossLinearClassifier(learning_rate=0.0)
        with pytest.raises(ValueError):
            HingeLossLinearClassifier(epochs=0)
        with pytest.raises(ValueError):
            HingeLossLinearClassifier(l2=-0.1)


def fitted_state(model, X):
    """What a fitted linear predictor holds, and its predictions for X."""
    return (
        getattr(model, "_weights", getattr(model, "_coef", None)),
        getattr(model, "_bias", getattr(model, "_intercept", None)),
        model.fallback_reason,
        model.predict_batch(X).tolist(),
    )


def _fitted_predictors(X, y, signs):
    """One fitted instance of every predictor, fallbacks included."""
    n, d = X.shape
    collinear = X.copy()
    collinear[:, 0] = 1.0  # a constant column, collinear with the intercept
    yield MeanRegressor().fit(X, y)
    yield LeastSquaresRegressor().fit(X, y)
    yield LeastSquaresRegressor().fit(X[:1], y[:1])  # rank-deficient fallback
    yield LeastSquaresRegressor().fit(collinear, y)  # collinear fallback
    yield HingeLossLinearClassifier(epochs=20).fit(X, signs)
    yield HingeLossLinearClassifier(epochs=20, seed=1).fit(X, signs)
    yield HingeLossLinearClassifier().fit(X, np.ones(n))  # single-class fallback
    yield ConstantClassifier(-1)


def python_float_reference(model, X):
    """The model's prediction for every row of X in Python floats: for a
    linear model, w.x summed column by column, then the intercept."""
    while getattr(model, "_fallback", None) is not None:
        model = model._fallback
    if isinstance(model, MeanRegressor):
        return [model._mean] * len(X)
    if isinstance(model, ConstantClassifier):
        return [model._score] * len(X)
    if isinstance(model, LeastSquaresRegressor):
        coef, intercept = model._coef, model._intercept
    else:
        coef, intercept = model._weights, model._bias
    predictions = []
    for row in X.tolist():
        total = 0.0
        for c, v in zip(coef, row):
            total += c * v
        predictions.append(total + intercept)
    return predictions


class TestBatchMatchesScalar:
    """predict_batch equals, bit for bit, a Python-float reference that
    sums w.x column by column and adds the intercept last, and a row's
    prediction does not depend on the batch it is in: a measure scores
    every row alike, and a pipeline's one-row predict agrees with its
    batch sets."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        d=st.integers(1, 6),
        scale=st.sampled_from([1e-3, 1.0, 37.5, 1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_predictor(self, n, d, scale, seed):
        rng = np.random.default_rng(seed)
        X = scale * rng.standard_normal((n, d))
        y = X @ rng.standard_normal(d) + rng.standard_normal(n)
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        signs[:2] = (-1.0, 1.0)
        test_X = scale * rng.standard_normal((25, d))
        for model in _fitted_predictors(X, y, signs):
            for rows in (X, test_X):
                batch = model.predict_batch(rows)
                assert batch.shape == (len(rows),)
                assert batch.tolist() == python_float_reference(model, rows), type(model).__name__
                assert [predict_one(model, row) for row in rows] == batch.tolist()

    def test_batch_shape_is_checked(self):
        model = LeastSquaresRegressor().fit(*linear_data([1.0, 2.0], 0.5))
        with pytest.raises(ValueError):
            model.predict_batch(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            model.predict_batch(np.zeros(2))

    def test_overflow_is_silent(self):
        # +-inf and inf - inf come out without a numpy warning
        model = LeastSquaresRegressor().fit(*linear_data([2.0, -2.0], 0.0))
        rows = np.array([[1e308, -1e308], [-1e308, 1e308], [1e308, 1e308]])
        with np.errstate(all="raise"):
            predictions = model.predict_batch(rows)
        assert predictions[0] == math.inf and predictions[1] == -math.inf
        assert math.isnan(predictions[2])

    def test_fit_shapes_are_checked(self):
        with pytest.raises(ValueError):
            LeastSquaresRegressor().fit(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            MeanRegressor().fit(np.zeros((3, 1)), np.zeros(2))
