import shutil
from pathlib import Path

import pytest

from adasfleet import vpic
from adasfleet.datasets import bundled_data_dir


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    """The whole suite must run offline: any real transport call is a failure."""

    def blocked(url, body, timeout):
        raise AssertionError(f"network call attempted during tests: POST {url}")

    monkeypatch.setattr(vpic, "_http_transport", blocked)


@pytest.fixture(autouse=True)
def no_retry_delay(monkeypatch):
    """Retries follow at once, so a test of the retry path does not sleep."""
    monkeypatch.setattr(vpic, "RETRY_DELAY_S", 0.0)


@pytest.fixture()
def bundled_dir() -> Path:
    return bundled_data_dir()


@pytest.fixture()
def data_dir_copy(tmp_path, bundled_dir) -> Path:
    """Writable copy of the bundled data directory."""
    target = tmp_path / "data"
    shutil.copytree(bundled_dir, target)
    return target
