import math

import numpy as np
import pytest

from bbmlab.forest import Forest
from bbmlab.model import DYADIC, ModelParams, RngStream, TimeGrid

_IDX_EPS = 1e-9


def make_params(r=1.0, law=DYADIC):
    return ModelParams(r, law)


def synth_forest(params, grid, specs, horizon=None):
    """Hand-built forest for exact membership and weight tests.

    Each spec is (parent, birth, death, n_offspring, position_fn); positions
    are sampled deterministically from position_fn at the recorded times.
    """
    horizon = grid.T if horizon is None else horizon
    dt = grid.dt
    cols = {k: [] for k in ("parent", "b", "d", "n", "xb", "xd", "lo")}
    xs_list = []
    for parent, b, d, n_off, fn in specs:
        i0 = int(math.ceil(b / dt - _IDX_EPS))
        i1 = int(math.floor(d / dt + _IDX_EPS))
        xs = np.array([fn(k * dt) for k in range(i0, i1 + 1)], dtype=float)
        cols["parent"].append(parent)
        cols["b"].append(b)
        cols["d"].append(d)
        cols["n"].append(n_off)
        cols["xb"].append(fn(b))
        cols["xd"].append(fn(d))
        cols["lo"].append(i0)
        xs_list.append(xs)
    lens = np.array([len(a) for a in xs_list], dtype=np.int64)
    return Forest(
        params=params,
        grid=grid,
        horizon=horizon,
        parent=np.array(cols["parent"], dtype=np.int64),
        t_birth=np.array(cols["b"], dtype=float),
        t_death=np.array(cols["d"], dtype=float),
        n_offspring=np.array(cols["n"], dtype=np.int64),
        x_birth=np.array(cols["xb"], dtype=float),
        x_death=np.array(cols["xd"], dtype=float),
        grid_lo=np.array(cols["lo"], dtype=np.int64),
        xs_flat=np.concatenate(xs_list) if xs_list else np.empty(0),
        xs_off=np.concatenate([[0], np.cumsum(lens)]),
        raw_lifetimes=np.array(cols["d"], dtype=float) - np.array(cols["b"], dtype=float),
        capped=False,
        stream=RngStream(0),
    )


@pytest.fixture
def dyadic_params():
    return make_params()


@pytest.fixture
def grid6():
    return TimeGrid(6.0, 120)
