import json
import pathlib
import random
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from memtax import (Alphabet, DigestParams, GenomeCollection, KernelParams,
                    build_index, build_katka_kernel, digest_collection,
                    separate)

DATA = pathlib.Path(__file__).parent / "data"

# the worked-example toy collection and the larger 16-genome toy collection
TOY_GENOMES = ["GATTACAT", "AGATACAT", "GATACAT", "GATTAGAT", "GATTAGATA"]
P = "GGATGGGCTAGACGATCTTCTGTG"


def rewritten_index(blob: bytes, edit) -> bytes:
    """The index file with its JSON header passed through edit(meta), which
    changes it in place, and checksummed as a writer would have."""
    (meta_len,) = struct.unpack("<I", blob[8:12])
    meta = json.loads(blob[12: 12 + meta_len])
    edit(meta)
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    head = blob[:8] + struct.pack("<I", len(meta_bytes)) + meta_bytes
    payload = blob[16 + meta_len:]
    return head + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))) + payload


def _sections(blob: bytes) -> tuple[int, dict]:
    """(rows, {name: (payload offset, bytes, bits per value)}) of the packed
    arrays of an index file, from its header: the BWT and the suffix array
    at the bits of sigma - 1 and R - 1, every 8 values in that many bytes,
    then the LCP as its PLCP bit vector of 2R one-bit values."""
    (meta_len,) = struct.unpack("<I", blob[8:12])
    meta = json.loads(blob[12: 12 + meta_len])
    rows = meta["text_length"] + 1
    sigma = Alphabet.from_dict(meta["alphabet"]).size
    sections, offset = {}, 0
    for name, values, bits in (("bwt", rows, (sigma - 1).bit_length()),
                               ("sa", rows, (rows - 1).bit_length()), ("lcp", 2 * rows, 1)):
        sections[name] = (offset, -(-values // 8) * bits, bits)
        offset += sections[name][1]
    return rows, sections


def stored_bits(blob: bytes, array: str) -> np.ndarray:
    """The bits of one packed payload array, least significant bit of each
    byte first, as a 0/1 uint8 array."""
    (meta_len,) = struct.unpack("<I", blob[8:12])
    offset, size, _ = _sections(blob)[1][array]
    return np.unpackbits(np.frombuffer(blob, np.uint8, size, 16 + meta_len + offset),
                         bitorder="little")


def _bit_values(bits: np.ndarray, width: int) -> np.ndarray:
    """The width-bit values of a bit array, each least significant bit first."""
    return bits.reshape(-1, width).astype(np.int64) @ (1 << np.arange(width))


def rewritten_bits(blob: bytes, array: str, edit) -> bytes:
    """The index file with the bits of one packed payload array (as
    stored_bits gives them) passed through edit(bits), which changes them
    in place, checksummed as a writer would have."""
    (meta_len,) = struct.unpack("<I", blob[8:12])
    head = blob[:12 + meta_len]
    payload = bytearray(blob[16 + meta_len:])
    offset, size, _ = _sections(blob)[1][array]
    bits = stored_bits(blob, array)
    edit(bits)
    payload[offset: offset + size] = np.packbits(bits, bitorder="little").tobytes()
    return head + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))) + bytes(payload)


def rewritten_rows(blob: bytes, array: str, rows, value: int) -> bytes:
    """The index file with rows (an index or slice) of one array set to
    value, checksummed as a writer would have: of the BWT's or the suffix
    array's packed values, whose padding values follow the last row, or of
    the LCP, decoded from the PLCP bit vector as PLCP[SA] and encoded back.
    The value must be one that the encoding can hold there."""
    count, sections = _sections(blob)
    width = sections[array][2]
    if array == "lcp":
        sa = _bit_values(stored_bits(blob, "sa"), sections["sa"][2])[:count]
        twice = 2 * np.arange(count)

        def edit(bits):
            plcp = np.flatnonzero(bits) - twice
            lcp = plcp[sa]
            lcp[rows] = value
            plcp[sa] = lcp
            ones = plcp + twice
            assert ones[0] >= 0 and np.all(np.diff(ones) > 0) and ones[-1] < 2 * count, \
                "the PLCP bit vector cannot hold this LCP"
            bits[:] = 0
            bits[ones] = 1
    else:
        def edit(bits):
            values = _bit_values(bits, width)
            values[rows] = value
            assert 0 <= values.min() and values.max() < 1 << width, f"not a {width}-bit value"
            bits[:] = ((values[:, None] >> np.arange(width)) & 1).ravel()
    return rewritten_bits(blob, array, edit)


def construction_peak_per_row(build) -> float:
    """The tracemalloc peak of build(st), per row, on a separated text of
    10 genomes, each a random 2.5 kb core repeated four times (100 011
    rows, every window repeated), made before the trace and after a
    warm-up build of its own."""
    rng = random.Random(4321)
    genomes = ["".join(rng.choice("ACGT") for _ in range(2500)) * 4 for _ in range(10)]
    build(separate(GenomeCollection(genomes=genomes)))  # warm up
    st = separate(GenomeCollection(genomes=genomes))
    tracemalloc.start()
    try:
        build(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(st) + 1 == 100_011
    return peak / (len(st) + 1)


@pytest.fixture(scope="session")
def golden_genomes() -> list[str]:
    return DATA.joinpath("golden_genomes.txt").read_text().split()


@pytest.fixture(scope="session")
def golden_kernel_text() -> str:
    return DATA.joinpath("golden_kernel_k4.txt").read_text().strip()


@pytest.fixture(scope="session")
def golden_digest_text() -> str:
    return DATA.joinpath("golden_digest.txt").read_text().strip()


@pytest.fixture(scope="session")
def golden_digest_kernel_text() -> str:
    return DATA.joinpath("golden_digest_kernel_k2.txt").read_text().strip()


@pytest.fixture(scope="session")
def toy_collection() -> GenomeCollection:
    return GenomeCollection(genomes=list(TOY_GENOMES))


@pytest.fixture(scope="session")
def toy_index(toy_collection):
    return build_index(separate(toy_collection))


@pytest.fixture(scope="session")
def golden_collection(golden_genomes) -> GenomeCollection:
    return GenomeCollection(genomes=list(golden_genomes))


@pytest.fixture(scope="session")
def golden_raw_index(golden_collection):
    return build_index(separate(golden_collection))


@pytest.fixture(scope="session")
def golden_kernel4(golden_collection):
    return build_katka_kernel(separate(golden_collection), KernelParams(4))


@pytest.fixture(scope="session")
def golden_kernel4_index(golden_kernel4):
    return build_index(golden_kernel4)


@pytest.fixture(scope="session")
def golden_digest(golden_collection):
    return digest_collection(golden_collection, DigestParams())


@pytest.fixture(scope="session")
def golden_digest_index(golden_digest):
    return build_index(golden_digest)
