import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbmlab.model import (
    DYADIC,
    ModelParams,
    OffspringLaw,
    RngStream,
    TimeGrid,
    sample_offspring,
    sample_offspring_many,
    size_biased,
)

laws = st.dictionaries(
    st.integers(min_value=2, max_value=9),
    st.floats(min_value=0.01, max_value=1.0),
    min_size=1,
    max_size=5,
).map(lambda d: OffspringLaw({k: v / sum(d.values()) for k, v in d.items()}))


def test_law_validation():
    with pytest.raises(ValueError):
        OffspringLaw({1: 1.0})
    with pytest.raises(ValueError):
        OffspringLaw({2: 0.5, 3: 0.6})
    with pytest.raises(ValueError):
        OffspringLaw({2: -0.1, 3: 1.1})
    with pytest.raises(ValueError):
        OffspringLaw({})


def test_law_moments():
    law = OffspringLaw({2: 0.5, 3: 0.5})
    assert law.mean == pytest.approx(2.5)
    assert law.m == pytest.approx(1.5)
    assert law.a_log_a == pytest.approx(0.5 * 2 * math.log(2) + 0.5 * 3 * math.log(3))


def test_size_biased_point_mass_is_identity():
    assert size_biased(DYADIC).pmf == DYADIC.pmf


def test_size_biased_hand_values():
    # k p_k / mean, evaluated by hand
    got = dict(size_biased(OffspringLaw({2: 0.5, 3: 0.5})).pmf)
    assert got[2] == pytest.approx(0.4)
    assert got[3] == pytest.approx(0.6)
    got = dict(size_biased(OffspringLaw({2: 0.25, 4: 0.75})).pmf)
    assert got[2] == pytest.approx(1.0 / 7.0)
    assert got[4] == pytest.approx(6.0 / 7.0)


def test_size_biased_not_idempotent_for_mixtures():
    once = size_biased(OffspringLaw({2: 0.5, 3: 0.5}))
    twice = size_biased(once)
    # second application: k q_k / 2.6
    assert dict(twice.pmf)[2] == pytest.approx(2 * 0.4 / 2.6)
    assert dict(twice.pmf) != dict(once.pmf)


@given(laws)
def test_size_biased_increases_mean(law):
    sb = size_biased(law)
    assert sb.mean >= law.mean - 1e-12
    assert [k for k, _ in sb.pmf] == [k for k, _ in law.pmf]
    assert math.fsum(p for _, p in sb.pmf) == pytest.approx(1.0, abs=1e-12)


def test_sample_offspring_dyadic_constant():
    rng = RngStream(1, (0,)).generator()
    assert all(sample_offspring(DYADIC, rng) == 2 for _ in range(100))


def test_sample_offspring_frequencies():
    law = OffspringLaw({2: 0.5, 3: 0.5})
    rng = RngStream(2, (0,)).generator()
    draws = sample_offspring_many(law, 100_000, rng)
    freq2 = np.mean(draws == 2)
    assert abs(freq2 - 0.5) <= 3.0 * math.sqrt(0.25 / 100_000)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - law.mean) <= 3.0 * se


@given(laws)
@settings(max_examples=20, deadline=None)
def test_sample_mean_matches_law(law):
    rng = RngStream(3, (0,)).generator()
    draws = sample_offspring_many(law, 20_000, rng)
    se = max(draws.std(ddof=1) / math.sqrt(len(draws)), 1e-9)
    assert abs(draws.mean() - law.mean) <= 4.0 * se


def test_params_validation_and_warning():
    with pytest.raises(ValueError):
        make = ModelParams(0.0, DYADIC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = ModelParams(1.0, DYADIC)  # m == 1: standard binary BBM, no warning
        rich = ModelParams(1.0, OffspringLaw({2: 0.25, 4: 0.75}))  # m = 2.5
    assert params.rm == 1.0
    assert rich.rm == pytest.approx(2.5)


def test_rng_stream_reproducible_and_distinct():
    a = RngStream(123, (4, 5)).generator().standard_normal(8)
    b = RngStream(123, (4, 5)).generator().standard_normal(8)
    c = RngStream(123, (4, 6)).generator().standard_normal(8)
    d = RngStream(124, (4, 5)).generator().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_stream_split_and_validation():
    s = RngStream(7, (1,))
    assert s.split(2, 3).stream == (1, 2, 3)
    with pytest.raises(ValueError):
        RngStream(7, (-1,))
    with pytest.raises(ValueError):
        RngStream(7, (2**32,))


def test_time_grid():
    grid = TimeGrid(6.0, 120)
    assert grid.dt == pytest.approx(0.05)
    assert len(grid.times()) == 121
    assert grid.index_of(1.5) == 30
    with pytest.raises(ValueError):
        grid.index_of(1.512)
    with pytest.raises(ValueError):
        TimeGrid(6.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 10)
