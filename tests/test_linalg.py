import numpy as np
import pytest

from conftest import masked_sigmoid
from robustgsl.linalg import (
    NumericError,
    adam_init,
    adam_step,
    glorot,
    grad_check,
    make_rng,
    relu,
    sigmoid,
)


class TestGlorot:
    def test_single_entry_bound(self):
        val = glorot(1, 1, make_rng(3))[0, 0]
        assert abs(val) <= np.sqrt(3.0)

    def test_deterministic(self):
        a = glorot(8, 8, make_rng(42))
        b = glorot(8, 8, make_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_empirical_variance(self):
        rng = make_rng(0)
        samples = np.concatenate([glorot(64, 64, rng).ravel() for _ in range(3)])
        expected = 2.0 / (64 + 64)
        assert abs(samples.var() - expected) / expected < 0.05

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            glorot(0, 4, make_rng(0))


class TestAdam:
    def test_zero_gradient_noop(self):
        params = {"w": np.array([1.0, -2.0])}
        state = adam_init(params, lr=0.1)
        out = adam_step(params, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(out["w"], params["w"])
        assert state.step == 1

    def test_first_step_hand_formula(self):
        # With constant gradient g and fresh moments, bias correction makes
        # the first update exactly -lr * g / (|g| + eps).
        g = np.array([0.3, -2.0])
        params = {"w": np.array([1.0, 1.0])}
        state = adam_init(params, lr=0.05)
        out = adam_step(params, {"w": g}, state)
        expected = params["w"] - 0.05 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(out["w"], expected, rtol=1e-12)
        assert np.all(np.sign(params["w"] - out["w"]) == np.sign(g))

    def test_descends_quadratic(self):
        params = {"w": np.array([1.0])}
        state = adam_init(params, lr=0.1)
        for _ in range(100):
            grads = {"w": 2.0 * params["w"]}
            params = adam_step(params, grads, state)
        assert abs(params["w"][0]) < 0.1

    def test_bitwise_equal_to_expression_form(self):
        # The update written out as whole-array expressions, with fresh moment
        # arrays each step; the in-place update must keep its bits.
        def reference_step(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
            out = {}
            for name, p in params.items():
                g = grads[name]
                m[name] = b1 * m[name] + (1 - b1) * g
                v[name] = b2 * v[name] + (1 - b2) * g * g
                mhat = m[name] / (1 - b1 ** t)
                vhat = v[name] / (1 - b2 ** t)
                out[name] = p - lr * mhat / (np.sqrt(vhat) + eps)
            return out

        rng = make_rng(5)
        params = {"w": rng.normal(size=(7, 4)), "b": rng.normal(size=4)}
        state = adam_init(params, lr=0.01)
        want = dict(params)
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        for t, scale in enumerate(np.logspace(-8, 2, 300), start=1):
            grads = {k: rng.normal(size=p.shape) * scale for k, p in params.items()}
            params = adam_step(params, grads, state)
            want = reference_step(want, grads, m, v, t, lr=0.01)
            for k in params:
                assert params[k].tobytes() == want[k].tobytes(), (t, k)
                assert state.m[k].tobytes() == m[k].tobytes(), (t, k)
                assert state.v[k].tobytes() == v[k].tobytes(), (t, k)

    def test_nonfinite_gradient_aborts(self):
        params = {"w": np.array([1.0])}
        state = adam_init(params, lr=0.1)
        with pytest.raises(NumericError):
            adam_step(params, {"w": np.array([np.nan])}, state)


class TestGradCheck:
    def test_exact_quadratic(self):
        def lag(p):
            w = p["w"]
            return float(np.sum(w * w)), {"w": 2.0 * w}

        err = grad_check(lag, {"w": np.array([1.5, -0.7, 2.0])})
        assert err < 1e-9

    def test_detects_scaled_gradient(self):
        def lag(p):
            w = p["w"]
            return float(0.5 * np.sum(w * w)), {"w": 2.0 * w}  # 2x too big

        err = grad_check(lag, {"w": np.array([2.0, 3.0])})
        assert err == pytest.approx(1.0, rel=1e-3)

    def test_rejects_nonfinite_loss(self):
        def lag(p):
            return float("nan"), {"w": np.zeros(1)}

        with pytest.raises(NumericError):
            grad_check(lag, {"w": np.array([1.0])})


class TestElementwiseGradients:
    """Analytic gradients of the elementwise kernels vs central differences."""

    def test_relu_gradient(self, rng):
        x = rng.normal(size=17)
        x = x[np.abs(x) > 1e-3]  # keep away from the kink

        def lag(p):
            v = p["x"]
            return float(relu(v).sum()), {"x": (v > 0).astype(float)}

        assert grad_check(lag, {"x": x}, 1e-6) < 1e-6

    def test_sigmoid_gradient(self, rng):
        def lag(p):
            s = sigmoid(p["x"])
            return float(s.sum()), {"x": s * (1 - s)}

        assert grad_check(lag, {"x": rng.normal(size=13)}, 1e-5) < 1e-6

    def test_softmax_cross_entropy_gradient(self, rng):
        y = 2

        def lag(p):
            z = p["z"]
            e = np.exp(z - z.max())
            probs = e / e.sum()
            grad = probs.copy()
            grad[y] -= 1.0
            return float(-np.log(probs[y])), {"z": grad}

        assert grad_check(lag, {"z": rng.normal(size=5)}, 1e-5) < 1e-6


def test_rng_reproducible():
    a = make_rng(99).integers(0, 1 << 30, size=16)
    b = make_rng(99).integers(0, 1 << 30, size=16)
    np.testing.assert_array_equal(a, b)


class TestSigmoid:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-300, -1e-300,
               709.8, -709.8, 745.2, -745.2, 800.0, -800.0, 5e-324, -5e-324]

    def test_bitwise_equal_to_masked_form_on_special_values(self):
        x = np.array(self.SPECIAL)
        got, want = sigmoid(x), masked_sigmoid(x)
        assert got.dtype == want.dtype
        for xi, g, w in zip(x, got, want):
            assert g.tobytes() == w.tobytes(), f"sigmoid({xi!r}): {g!r} != {w!r}"

    @pytest.mark.parametrize("scale", [1e-8, 1.0, 30.0, 1e3])
    def test_bitwise_equal_to_masked_form_on_normals(self, scale):
        x = make_rng(7).normal(size=(200, 3)) * scale
        assert sigmoid(x).tobytes() == masked_sigmoid(x).tobytes()

    def test_no_overflow_warning(self):
        # exp(-800) underflows to 0, as in the masked form; nothing overflows.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            sigmoid(np.array([-800.0, 800.0]))
