"""Fuzzed checkpoints. Every mutated field of every manifest entry, swapped
entries, and a blob cut at or next to any tensor boundary or one byte too long
raise ``CheckpointError`` naming the blob; byte flips in the manifest of a
save raise nothing but ``T2TBioError``. All draws come from a seeded
SplitMix64."""

import json
import os

import numpy as np
import pytest

from t2tbio.checkpoint import load_checkpoint, load_optimizer, save_checkpoint
from t2tbio.errors import CheckpointError, T2TBioError
from t2tbio.model import ModelConfig, init_params
from t2tbio.rng import SplitMix64

from helpers import adam_moments

# the model of scripts/run_smoke.py, whose vocabulary has 253 pieces
SMOKE = ModelConfig(vocab_size=253, d_model=64, n_heads=4, d_ff=128, n_encoder_layers=2, n_decoder_layers=2,
                    rel_pos_buckets=16, rel_pos_max_distance=32, max_seq_len=64)
FIELDS = ["name", "shape", "dtype", "offset", "nbytes"]
DELETED = object()


@pytest.fixture
def ckpt(tmp_path):
    """A saved smoke-model checkpoint with Adam moments at step 3, which loads
    as saved."""
    params = init_params(SMOKE, seed=1)
    moments = adam_moments(params, {k: x * 0.5 for k, x in params.items()}, {k: x * x for k, x in params.items()})
    save_checkpoint(tmp_path / "ck", params, SMOKE, moments, rng_state=5, step=3)
    loaded, _, manifest = load_checkpoint(tmp_path / "ck")
    np.testing.assert_array_equal(load_optimizer(tmp_path / "ck", manifest), moments)
    for name, x in params.items():
        np.testing.assert_array_equal(loaded[name], x)
    return tmp_path / "ck"


def manifest_of(ckpt) -> dict:
    return json.loads((ckpt / "manifest.json").read_text(encoding="utf-8"))


def mutated(value, rng: SplitMix64):
    """A value unlike ``value`` as JSON, or ``DELETED``."""
    if isinstance(value, str):
        options = [value + "x", value[:-1], value.upper(), 0, None]
    elif isinstance(value, int):
        options = [value + 1 + rng.next_below(8), value - 1 - rng.next_below(8), float(value), str(value), True]
    else:
        options = [value + [1], value[:-1], [value[0] + 1, *value[1:]], [float(d) for d in value], str(value)]
    new = [*options, DELETED][rng.next_below(len(options) + 1)]
    assert new is DELETED or json.dumps(new) != json.dumps(value)
    return new


def raises_naming(path, load) -> None:
    with pytest.raises(CheckpointError) as info:
        load()
    assert str(path) in str(info.value), info.value


def entry_cases(entries: list[dict], rng: SplitMix64):
    """Copies of ``entries``: each field of each entry mutated, then 10 random
    pairs of entries swapped."""
    for i, entry in enumerate(entries):
        for key in FIELDS:
            new = mutated(entry[key], rng)
            changed = {k: v for k, v in entry.items() if k != key} | ({} if new is DELETED else {key: new})
            yield [*entries[:i], changed, *entries[i + 1 :]]
    for _ in range(10):
        i = rng.next_below(len(entries))
        j = (i + 1 + rng.next_below(len(entries) - 1)) % len(entries)
        swapped = list(entries)
        swapped[i], swapped[j] = entries[j], entries[i]
        yield swapped


def test_mutated_entries_name_the_blob(ckpt):
    rng = SplitMix64(14)
    manifest = manifest_of(ckpt)
    for blob, key in (("weights.bin", "weights"), ("optimizer.bin", "moments")):
        for entries in entry_cases(manifest[key], rng):
            (ckpt / "manifest.json").write_text(json.dumps({**manifest, key: entries}), encoding="utf-8")
            raises_naming(ckpt / blob, lambda: load_optimizer(ckpt, load_checkpoint(ckpt)[2]))


@pytest.mark.parametrize("blob", ["weights.bin", "optimizer.bin"])
def test_blob_of_another_size_names_it(ckpt, blob):
    """One byte too long, then cut at every tensor boundary and one byte
    either side, from the longest cut down."""
    manifest = manifest_of(ckpt)
    entries = manifest["weights" if blob == "weights.bin" else "moments"]
    ends = {0} | {e["offset"] + e["nbytes"] for e in entries}
    total = max(ends)
    sizes = sorted({s for end in ends for s in (end - 1, end, end + 1) if 0 <= s < total}, reverse=True)
    assert len(sizes) == 3 * len(entries)
    path = ckpt / blob
    with open(path, "ab") as f:
        f.write(b"\0")
    raises_naming(path, lambda: load_optimizer(ckpt, load_checkpoint(ckpt)[2]))
    for size in sizes:
        os.truncate(path, size)
        raises_naming(path, lambda: load_optimizer(ckpt, load_checkpoint(ckpt)[2]))


def test_manifest_byte_flips_raise_only_t2tbio_errors(ckpt):
    rng = SplitMix64(15)
    original = (ckpt / "manifest.json").read_bytes()
    loaded = 0
    for _ in range(2000):
        data = bytearray(original)
        data[rng.next_below(len(data))] ^= 1 + rng.next_below(255)
        (ckpt / "manifest.json").write_bytes(data)
        try:
            _, _, manifest = load_checkpoint(ckpt)
            load_optimizer(ckpt, manifest)
            loaded += 1
        except T2TBioError:
            pass
    assert loaded < 100  # nearly every flip breaks the manifest
