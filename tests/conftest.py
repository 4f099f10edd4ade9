import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session per pytest run (local mode, small CPU count)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
    except Exception:
        pass
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def tombstoned(tmp_path_factory):
    """``tombstoned(index_dir)`` -> (copy, deleted): a copy of a built index
    with a seeded 5% of every segment's docs deleted (at least one each), and
    the sorted deleted doc ids. One copy per index, shared by its callers."""
    import shutil

    import numpy as np

    from lucille_ray.index import commit, delete_docs

    made = {}

    def make(index_dir):
        if index_dir not in made:
            dest = str(tmp_path_factory.mktemp("tombstoned") / "index")
            shutil.copytree(index_dir, dest)
            rng = np.random.default_rng(20261018)
            ids = np.sort(np.concatenate([
                rng.choice(np.arange(s.lo, s.hi), max(1, (s.hi - s.lo) // 20),
                           replace=False)
                for s in commit.read(dest)["segments"] if s.hi > s.lo
            ]))
            assert delete_docs(dest, ids) == ids.size
            made[index_dir] = (dest, ids)
        return made[index_dir]

    return make


@pytest.fixture
def block_decodes(monkeypatch):
    """Every ``RawBlocks.decode_blocks`` call the test makes, as (raw blocks,
    blocks decoded, want_positions): every block decode of the serving path
    goes through it. ``.clear()`` starts a new count."""
    from lucille_ray.index.codec import RawBlocks

    calls = []
    real = RawBlocks.decode_blocks

    def counting(rb, sel, want_positions=False):
        calls.append((rb, rb.count if sel is None else len(sel), want_positions))
        return real(rb, sel, want_positions)

    monkeypatch.setattr(RawBlocks, "decode_blocks", counting)
    return calls
