#!/usr/bin/env python3
"""Memory one training step holds: the traced peak of one ``loss_and_grads``
call, and what it holds when ``cross_entropy`` returns.

    python3 scripts/step_memory.py                  # both shapes
    python3 scripts/step_memory.py --shape medium

Each shape is a seeded batch of full-length rows of random ids: ``smoke`` is
a NER-shaped fine-tuning batch of the d=64 model (16 sequences of 64 input
and 56 target tokens), ``medium`` a pretraining batch of the d=256 model (8
sequences of 65/22 tokens). The step runs on the calling thread alone (the
worker's size rule raised), so no queued call holds an array longer, and
``tracemalloc`` counts what it allocates after the parameters, the batch and
the gradient buffers exist, as the trainer's arena would hold them. Figures
are MiB. The script reads only ``model``'s public functions and
``worker.MIN_SIZE``, so a copy of it measures an older tree as well.
"""

import argparse
import os
import sys
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from t2tbio import model, worker  # noqa: E402
from t2tbio.model import ModelConfig, init_params, loss_and_grads, make_batch  # noqa: E402
from t2tbio.rng import SplitMix64  # noqa: E402

SMOKE = ModelConfig(vocab_size=256, d_model=64, n_heads=4, d_ff=128, rel_pos_buckets=16,
                    rel_pos_max_distance=32, max_seq_len=64)
MEDIUM = ModelConfig(vocab_size=4096, d_model=256, n_heads=4, d_ff=1024, rel_pos_buckets=32,
                     rel_pos_max_distance=128, max_seq_len=128)
# name -> (config, sequences, input tokens, target tokens)
SHAPES = {"smoke": (SMOKE, 16, 64, 56), "medium": (MEDIUM, 8, 65, 22)}
MIB = 1 << 20


def measure(cfg: ModelConfig, b: int, s: int, t: int, seed: int = 7) -> tuple[int, int]:
    """(traced peak, bytes held when ``cross_entropy`` returns) of one
    one-thread ``loss_and_grads`` over b seeded rows of s input and t target ids."""
    rng = SplitMix64(seed)

    def ids(n):
        return [3 + rng.next_below(cfg.vocab_size - 3) for _ in range(n)]

    batch = make_batch([(ids(s), ids(t)) for _ in range(b)], ensure_eos=False)
    params = init_params(cfg, seed=1)
    grads = {name: p.copy() for name, p in params.items()}
    held = []
    cross_entropy, min_size = model.cross_entropy, worker.MIN_SIZE

    def traced(*args, **kwargs):
        out = cross_entropy(*args, **kwargs)
        held.append(tracemalloc.get_traced_memory()[0])
        return out

    model.cross_entropy, worker.MIN_SIZE = traced, 1 << 62
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss_and_grads(params, cfg, batch, out=grads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        model.cross_entropy, worker.MIN_SIZE = cross_entropy, min_size
    return peak - base, held[0] - base


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--shape", choices=sorted(SHAPES), action="append",
                   help="a batch shape to measure (default: all)")
    args = p.parse_args(argv)
    for name in args.shape or SHAPES:
        cfg, b, s, t = SHAPES[name]
        peak, held = measure(cfg, b, s, t)
        print(f"{name}: B={b} S={s} T={t} d={cfg.d_model}  peak {peak / MIB:.2f} MiB"
              f"  held at cross_entropy {held / MIB:.2f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
