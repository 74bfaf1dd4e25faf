import hashlib
import inspect

import pytest

from lorastamp import repro

# SHA-256 of each dataset at seed 0.  The datasets keep their bytes across
# refactors and speed-ups; a change that alters them on purpose updates the
# digest here and says why.  fig12 moved when AIC's fine window grew to reach
# 256 samples left of the coarse minimum: its -10 dB RMSD reads 330.543 us
# (was 329.720), the other rows kept their bytes.
SEED0_SHA256 = {
    "fig4": "cdddee115522e1d7f63951516e2ef6813488c1a83e4de8dd5c417fc3b35619ef",
    "fig5": "e1ce538ec59ca9086636156c59ba02379e9da93e7f100a601aab1fa3faa48681",
    "fig12": "5c4f5f3c6f7f7f862ecb49075f0f73828ee32a6f47900b30289da3bb7580635c",
    "fig13a": "16bbddf813c583a8f4b40e04a9d91da11d920e75f67aba959b8a7dfe49737549",
    "fig13b": "56633066747377bc2a0632bf61df93d80dfcfea71b09ef86d2d8ab0451e56098",
    "fig17": "94d058f7cd2afbdc4d164500743e5d166862d58ae80e3e4729586b3bb39fb679",
}


def test_every_builder_pinned():
    assert sorted(SEED0_SHA256) == sorted(repro.BUILDERS)


@pytest.mark.parametrize("figure", sorted(SEED0_SHA256))
def test_seed0_bytes_pinned(tmp_path, figure):
    path = repro.BUILDERS[figure](tmp_path, seed=0)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SEED0_SHA256[figure]


@pytest.mark.parametrize("figure", sorted(repro.BUILDERS))
def test_builder_takes_dir_and_seed_only(figure):
    # a dataset is a function of the seed alone: sweep sizes live in the builders
    params = inspect.signature(repro.BUILDERS[figure]).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        ("out_dir", inspect.Parameter.empty), ("seed", 0)]
