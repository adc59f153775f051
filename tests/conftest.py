"""Suite-wide guards."""

from pathlib import Path

import pytest

from repro.eval.parallel import DEFAULT_CACHE_DIR


def _listing(root: Path):
    return sorted(p.relative_to(root) for p in root.rglob("*")) if root.exists() else None


@pytest.fixture(scope="session", autouse=True)
def no_cache_in_working_directory():
    """Tests keep their result caches under ``tmp_path`` (or run with
    ``--no-cache``): a run must leave the default ``.repro-cache/`` of
    the working directory as it found it."""
    root = Path.cwd() / DEFAULT_CACHE_DIR
    before = _listing(root)
    yield
    after = _listing(root)
    assert after == before, (
        f"the test run wrote to {root}; pass --cache-dir/--no-cache "
        "(CLI) or a tmp_path ResultCache"
    )
