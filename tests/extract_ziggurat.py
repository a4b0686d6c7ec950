"""Extract numpy's normal ziggurat tables into hopfrot's committed data file.

    python tests/extract_ziggurat.py [ARCHIVE] [OUT]

numpy's random_standard_normal is a 256-layer ziggurat whose tables ki,
wi and fi are static data in its C code, and the installed wheel ships
that code as numpy/random/lib/libnpyrandom.a.  Its member
src_distributions_distributions.c.o, an ELF object, holds the tables as
the local symbols ki_double, wi_double and fi_double in .rodata.  This
script reads them through the archive's and the object's own headers and
writes ki as <u8, then wi and fi as <f8: 6144 bytes.

ARCHIVE defaults to the installed numpy's archive and OUT to
src/hopfrot/ziggurat.bin.  The standard library is enough: no binutils.
"""

from __future__ import annotations

import struct
import sys
from pathlib import Path

import numpy as np

ARCHIVE = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
MEMBER = "src_distributions_distributions.c.o"
TABLES = ("ki_double", "wi_double", "fi_double")  # in the data file's order
SIZE = 2048  # 256 entries of 8 bytes
OUT = Path(__file__).resolve().parents[1] / "src" / "hopfrot" / "ziggurat.bin"


def member(archive: bytes, name: str) -> bytes:
    """The contents of a member of a System V / GNU `ar` archive."""
    if archive[:8] != b"!<arch>\n":
        raise ValueError("not an ar archive")
    pos, long_names = 8, b""
    while pos + 60 <= len(archive):
        header = archive[pos : pos + 60]
        size = int(header[48:58])
        body = archive[pos + 60 : pos + 60 + size]
        key = header[:16].decode().rstrip()
        if key == "//":  # the GNU table of names longer than 15 bytes
            long_names = body
        elif key.startswith("/") and key[1:].isdigit():
            start = int(key[1:])
            key = long_names[start : long_names.index(b"/\n", start)].decode()
        if key.rstrip("/") == name:
            return body
        pos += 60 + size + size % 2
    raise KeyError(name)


def symbols(obj: bytes, names) -> dict:
    """The bytes of the named symbols of a 64-bit little-endian ELF
    relocatable object, by name."""
    if obj[:6] != b"\x7fELF\x02\x01":
        raise ValueError("not a 64-bit little-endian ELF object")
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    # (type, offset, size, link) of each section
    sections = [struct.unpack_from("<4xI16xQQI", obj, shoff + k * shentsize) for k in range(shnum)]
    _, symoff, symsize, strtab = next(s for s in sections if s[0] == 2)  # SHT_SYMTAB
    strings = sections[strtab][1]
    found = {}
    for at in range(symoff, symoff + symsize, 24):
        name, _, shndx, value, size = struct.unpack_from("<IBxHQQ", obj, at)
        name = obj[strings + name : obj.index(b"\0", strings + name)].decode()
        if name in names:
            start = sections[shndx][1] + value
            found[name] = obj[start : start + size]
    return found


def extract(archive: Path = ARCHIVE) -> bytes:
    """The data file's bytes from an archive: ki, wi, fi, 2048 bytes each."""
    found = symbols(member(archive.read_bytes(), MEMBER), TABLES)
    if any(len(found.get(name, b"")) != SIZE for name in TABLES):
        raise ValueError(f"{MEMBER} lacks 2048-byte {', '.join(TABLES)}")
    return b"".join(found[name] for name in TABLES)


if __name__ == "__main__":
    archive = Path(sys.argv[1]) if len(sys.argv) > 1 else ARCHIVE
    out = Path(sys.argv[2]) if len(sys.argv) > 2 else OUT
    out.write_bytes(extract(archive))
    print(f"{out}: {out.stat().st_size} bytes")
