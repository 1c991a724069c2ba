"""The interface of tests/make_golden_values.py: its block table and options.

The generator needs mpmath, which nothing else does, so these tests are
skipped without it.  They run main() in this process on a copy of
golden_values.json and compute no reference but the ideal mirror's
closed form (milliseconds).
"""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

pytest.importorskip("mpmath")

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "make_golden_values", ROOT / "tests" / "make_golden_values.py"
)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)
GOLDEN = ROOT / "tests" / "golden_values.json"


def run(monkeypatch, tmp_path, *argv):
    """main() with argv on a copy of the file; the copy's path."""
    out = tmp_path / GOLDEN.name
    shutil.copyfile(GOLDEN, out)
    monkeypatch.setattr(gen, "OUT", out)
    monkeypatch.setattr(sys, "argv", ["make_golden_values.py", *argv])
    gen.main()
    return out


def test_blocks_are_the_files_blocks_in_order():
    payload = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(gen.BLOCKS) == [k for k in payload if k not in ("about", "models")]


@pytest.mark.parametrize(
    "argv", [["--only", "nosuch"], ["--mirrors"], ["--only"], ["--inner", "--mirror"]]
)
def test_bad_options_exit_2_before_any_reference(monkeypatch, tmp_path, argv):
    # a mistyped switch once started the full rewrite, about an hour
    def computed(*args, **kwargs):
        raise AssertionError("a reference was computed")

    for name in ("ProcessPoolExecutor", "contraction", "u_du_reference", "mirror_reference"):
        monkeypatch.setattr(gen, name, computed)
    with pytest.raises(SystemExit) as exit_:
        run(monkeypatch, tmp_path, *argv)
    assert exit_.value.code == 2
    assert (tmp_path / GOLDEN.name).read_bytes() == GOLDEN.read_bytes()


def test_only_rewrites_the_named_block_in_place(monkeypatch, tmp_path):
    # the mirror block again, from its closed form: every byte of the
    # file, that block's included, comes out as it was
    out = run(monkeypatch, tmp_path, "--only", "mirror")
    assert out.read_bytes() == GOLDEN.read_bytes()
