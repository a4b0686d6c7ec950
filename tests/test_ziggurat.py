"""The committed ziggurat tables: pinned bytes, read only when a draw needs
them, and equal to the tables in the installed numpy where they can be
read from its archive."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import extract_ziggurat

TABLES = Path(__file__).resolve().parents[1] / "src" / "hopfrot" / "ziggurat.bin"


def test_tables_are_pinned():
    data = TABLES.read_bytes()
    assert len(data) == 6144
    assert hashlib.sha256(data).hexdigest() == "d46841a090f638a74c6bd112345fe681089be798d725b251129f062cad5521a3"


def test_tables_match_the_installed_numpy():
    archive = extract_ziggurat.ARCHIVE
    if not archive.is_file():
        pytest.skip(f"{archive} is absent")
    try:
        extracted = extract_ziggurat.extract(archive)
    except ValueError as e:  # an archive of another object format
        pytest.skip(str(e))
    assert extracted == TABLES.read_bytes()


def test_import_reads_no_tables():
    code = "import hopfrot.cli, hopfrot.verify as v; print(v._ziggurat.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(TABLES.parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout == "0\n"
