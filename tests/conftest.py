import json
import pathlib
import random
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from memtax import (DigestParams, GenomeCollection, KernelParams,
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


def rewritten_rows(blob: bytes, array: str, rows, value: int) -> bytes:
    """The index file with rows (an index or slice) of one payload array
    set to value, checksummed as a writer would have."""
    (meta_len,) = struct.unpack("<I", blob[8:12])
    head = blob[:12 + meta_len]
    payload = bytearray(blob[16 + meta_len:])
    offset = 0
    for name, dtype, count in json.loads(blob[12: 12 + meta_len])["arrays"]:
        if name == array:
            np.frombuffer(payload, dtype=dtype, count=count, offset=offset)[rows] = value
        offset += count * np.dtype(dtype).itemsize
    return head + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))) + bytes(payload)


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
