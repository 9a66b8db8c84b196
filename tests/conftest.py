import warnings

import numpy as np
import pytest

from lrdmd import linalg
from lrdmd.toybench import BenchConfig, benchmark_data, run_benchmark

TOY_SEED = 7


@pytest.fixture(scope="session")
def toy_config():
    return BenchConfig(seed=TOY_SEED)


@pytest.fixture(scope="session")
def full_bench_result(toy_config):
    return run_benchmark(toy_config)


@pytest.fixture(scope="session")
def setting_i_data(toy_config):
    return benchmark_data(toy_config, "i")


@pytest.fixture(scope="session")
def setting_ii_data(toy_config):
    return benchmark_data(toy_config, "ii")


@pytest.fixture(scope="session")
def setting_iii_data(toy_config):
    return benchmark_data(toy_config, "iii")


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=[1, 3, linalg._ROW_BLOCK], ids=lambda rows: f"block{rows}")
def row_block(request, monkeypatch):
    """Every n-row loop (linalg.row_blocks) taking blocks of 1, 3 and the
    default number of rows: small data then spans several blocks."""
    monkeypatch.setattr(linalg, "_ROW_BLOCK", request.param)
    return request.param


def _refused(category, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error", category)
        with pytest.raises(category):
            call()


@pytest.fixture()
def refused():
    """refused(category, call): call() under warnings.simplefilter("error",
    category), the idiom that turns a library warning into a refusal, must
    raise the warning."""
    return _refused
