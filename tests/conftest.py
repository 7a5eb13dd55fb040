import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture
def shuffle_width(monkeypatch):
    """``shuffle_width(n)`` pins the keyed-shuffle bucket count to ``n``
    for the rest of the test: every ``exchange`` (and every width read
    from ``default_buckets``) built after the call uses ``n``, so a
    test can check that its result does not depend on the bucketing."""
    from versa_ray.core import exchange

    def _pin(n):
        monkeypatch.setattr(exchange, "default_buckets", lambda: n)

    return _pin


# Checkout of the Versa reference repository. Its test resources and its
# vendored pymmh3 are not part of this repository; tests that read them
# carry ``requires_reference`` and run wherever the checkout is present.
REFERENCE = "/root/reference"


def reference_path(relpath):
    return os.path.join(REFERENCE, relpath)


def requires_reference(*relpaths):
    """Skip marker for a test that reads the given reference files;
    the reason names each one that is missing."""
    missing = [p for p in map(reference_path, relpaths) if not os.path.exists(p)]
    return pytest.mark.skipif(bool(missing), reason=", ".join(missing) + " not present")


def read_reference(relpath):
    """Text of a reference file, or None where it is not present."""
    path = reference_path(relpath)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return f.read()


SF_SMALL = "/root/testdata/sf0.001"
SF_MED = "/root/testdata/sf0.01"


@pytest.fixture(scope="session")
def sf_small():
    return SF_SMALL
