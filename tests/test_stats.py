import hashlib
import math
from dataclasses import astuple

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

import passevo.stats as stats_mod
from passevo.errors import ExecutionError, ValidationError
from passevo.stats import (
    betainc_regularized,
    percent_improvement,
    student_t_sf,
    summarize,
)


# --- independent oracle: numerical integration of the t density --------------

def t_sf_oracle(t: float, df: int) -> float:
    with mp.workdps(40):
        df_mp = mp.mpf(df)
        norm = mp.gamma((df_mp + 1) / 2) / (mp.sqrt(df_mp * mp.pi) * mp.gamma(df_mp / 2))
        density = lambda x: norm * (1 + x * x / df_mp) ** (-(df_mp + 1) / 2)
        return float(mp.quad(density, [t, mp.inf]))


# Eight values with mean 3.7 and sample stddev exactly 0.8768.
def reported_trial_values() -> list[float]:
    spread = 0.8768 * math.sqrt(7 / 8)
    return [3.7 - spread] * 4 + [3.7 + spread] * 4


# --- percent_improvement -----------------------------------------------------

def test_percent_improvement_headline_figure():
    assert percent_improvement(10.0, 9.63) == pytest.approx(3.7, abs=1e-12)


def test_percent_improvement_equal_is_zero():
    assert percent_improvement(5.0, 5.0) == 0.0


def test_percent_improvement_regression_sign():
    assert percent_improvement(2.0, 3.0) == -50.0


def test_percent_improvement_rejects_bad_baseline():
    for baseline in (0.0, -1.0, float("inf")):
        with pytest.raises(
            ValidationError,
            match=rf"^baseline runtime must be positive and finite, got {baseline!r}$",
        ):
            percent_improvement(baseline, 1.0)


@given(st.floats(0.01, 1e6), st.floats(-99.0, 99.0))
def test_percent_improvement_antisymmetric_identity(baseline, x):
    evolved = baseline * (1 - x / 100.0)
    assert percent_improvement(baseline, evolved) == pytest.approx(x, abs=1e-9, rel=1e-9)


# --- t distribution machinery ------------------------------------------------

def test_betainc_endpoints_and_symmetry():
    assert betainc_regularized(2.0, 3.0, 0.0) == 0.0
    assert betainc_regularized(2.0, 3.0, 1.0) == 1.0
    # I_x(a, b) = 1 - I_{1-x}(b, a)
    for x in (0.1, 0.37, 0.5, 0.9):
        assert betainc_regularized(2.5, 0.5, x) == pytest.approx(
            1.0 - betainc_regularized(0.5, 2.5, 1.0 - x), abs=1e-12
        )


def test_betainc_closed_form_uniform():
    # I_x(1, 1) is the identity
    for x in (0.0, 0.2, 0.77, 1.0):
        assert betainc_regularized(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)


@pytest.mark.parametrize("t", [-4.0, -1.0, -1e-9, 0.0, 1e-9, 1e-5, 0.5, 2.0, 5.0, 11.935652784626942, 20.0, 60.0])
@pytest.mark.parametrize("df", [1, 2, 3, 7, 8, 30, 31, 200])
def test_student_t_sf_matches_integration_oracle(t, df):
    assert student_t_sf(t, df) == pytest.approx(t_sf_oracle(t, df), rel=1e-10, abs=1e-15)


def test_t_tail_is_pinned_bit_for_bit():
    # float.hex of every value, so a refactor of the continued fraction that
    # moves any result by one ulp fails here, where the oracle test above
    # allows 1e-10
    digest = hashlib.sha256()
    for df in (*range(1, 41), 100, 400):
        for t in (0.0, 1e-9, -1e-9, 0.5, -0.5, 2.0, -2.0, 11.9357, -11.9357, 50.0, -50.0):
            digest.update(f"{t!r} {df} {student_t_sf(t, df).hex()}\n".encode())
    points = [(2.0, 3.0, 0.1), (0.5, 7.5, 0.05), (20.0, 0.5, 0.6),
              (2.0, 3.0, 0.9), (0.5, 7.5, 0.5), (20.0, 0.5, 0.99)]
    # betainc_regularized's direct branch for the first three, its reflected one after
    assert [x < (a + 1.0) / (a + b + 2.0) for a, b, x in points] == [True] * 3 + [False] * 3
    for a, b, x in points:
        digest.update(f"{a!r} {b!r} {x!r} {betainc_regularized(a, b, x).hex()}\n".encode())
    assert digest.hexdigest() == "12619114ad039aa338fb8a6f0fbedcbced0344c4a476475a53d802c7f02a7d54"


@pytest.mark.parametrize("a, b, x, message", [
    (0.0, 1.0, 0.5, "a and b must be positive"),
    (1.0, -1.0, 0.5, "a and b must be positive"),
    (1.0, 1.0, -0.1, r"x must be in \[0, 1\]"),
    (1.0, 1.0, 1.5, r"x must be in \[0, 1\]"),
    (1.0, 1.0, math.nan, r"x must be in \[0, 1\]"),
])
def test_betainc_rejects_arguments_outside_its_domain(a, b, x, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        betainc_regularized(a, b, x)


def test_betainc_raises_when_the_continued_fraction_does_not_converge(monkeypatch):
    monkeypatch.setattr(stats_mod, "_MAX_ITER", 1)
    with pytest.raises(ArithmeticError, match="^incomplete beta continued fraction did not converge$"):
        betainc_regularized(2.0, 3.0, 0.3)


def test_student_t_sf_rejects_df_below_one():
    with pytest.raises(ValueError, match=r"^df must be >= 1$"):
        student_t_sf(1.0, 0)


def test_student_t_sf_symmetry_and_midpoint():
    assert student_t_sf(0.0, 7) == pytest.approx(0.5, abs=1e-12)
    for t in (0.3, 1.7, 6.0):
        assert student_t_sf(-t, 7) == pytest.approx(1.0 - student_t_sf(t, 7), abs=1e-12)


# --- summarize ---------------------------------------------------------------

def test_summarize_reported_trial_statistics():
    stats = summarize(reported_trial_values())
    assert stats.n == 8
    assert stats.mean_improvement == pytest.approx(3.7, abs=1e-12)
    assert stats.sample_stddev == pytest.approx(0.8768, abs=1e-12)
    # frozen from the arithmetic oracle: 3.7 / (0.8768 / sqrt(8))
    assert stats.t_statistic == pytest.approx(11.935652784626942, abs=1e-9)
    assert stats.t_statistic == pytest.approx(11.936, abs=0.005)
    # frozen from the numerical-integration oracle at 40 digits
    assert stats.p_value_one_tailed == pytest.approx(3.2959419109240383e-06, rel=1e-9)
    assert stats.p_value_one_tailed == pytest.approx(
        t_sf_oracle(stats.t_statistic, 7), rel=1e-10
    )


def test_summarize_degenerate_samples():
    with pytest.raises(ExecutionError, match=r"^no improvement values to summarize$"):
        summarize([])
    # one value, or values with no spread: the mean alone, no t test
    assert astuple(summarize([1.0])) == (1, 1.0, None, None, None)
    assert astuple(summarize([2.5] * 3)) == (3, 2.5, None, None, None)


def test_summarize_flat_mean_is_exact():
    # a sum/len mean would give 3.6999999999999997
    assert summarize([3.7] * 8).mean_improvement == 3.7


@given(st.lists(st.floats(-50, 50), min_size=3, max_size=12), st.randoms())
def test_summarize_permutation_invariant(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    a = summarize(values)
    b = summarize(shuffled)
    assert a.mean_improvement == pytest.approx(b.mean_improvement, rel=1e-9, abs=1e-9)
    assert a.t_statistic == pytest.approx(b.t_statistic, rel=1e-6, abs=1e-9)
    assert a.p_value_one_tailed == pytest.approx(b.p_value_one_tailed, rel=1e-6, abs=1e-12)


def test_p_value_strictly_decreasing_in_mean():
    previous = None
    for mean in [0.5 * k for k in range(1, 13)]:
        spread = 0.8768 * math.sqrt(7 / 8)
        values = [mean - spread] * 4 + [mean + spread] * 4
        p = summarize(values).p_value_one_tailed
        if previous is not None:
            assert p < previous
        previous = p


def test_negative_mean_gives_large_p():
    stats = summarize([-3.0, -2.0, -4.0, -3.5])
    assert stats.p_value_one_tailed > 0.99
