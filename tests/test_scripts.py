import importlib.util
from pathlib import Path

from adasfleet.datasets import bundled_data_dir

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_bundled_data.py"


def test_make_bundled_data_reproduces_the_bundled_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_bundled_data", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA_DIR", tmp_path)
    script.main()
    for name in ("catalog.csv", "fars_vehicles.csv"):
        assert (tmp_path / name).read_bytes() == (bundled_data_dir() / name).read_bytes(), name
