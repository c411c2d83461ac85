"""Desk-scale text-to-text pipeline for biomedical NLP tasks.

Importing the package pins OpenMP, OpenBLAS and MKL to one thread, unless the
environment already sets ``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` or
``MKL_NUM_THREADS``, before any of its modules imports numpy. A multi-threaded
BLAS splits a product's sums in another order, so a d=256 model's gradients,
and the weights a run writes, would depend on the host's core count; the
model's own worker thread uses the second core instead. BLAS reads these
variables once, when numpy is first imported: a program that imported numpy
before ``t2tbio`` keeps the thread pool it started with.
"""

import os

os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .corruption import CorruptionExample, SpanCorruptionConfig, apply_span_mask, corrupt
from .errors import (
    CheckpointError,
    CodecError,
    ConfigError,
    CorruptionError,
    DataFormatError,
    ModelError,
    T2TBioError,
    VocabError,
)
from .model import Batch, ModelConfig, forward, greedy_decode, init_params, loss_and_grads, make_batch
from .task_codec import (
    EntitySpan,
    QAExample,
    TaskExample,
    decode_label,
    decode_ner,
    encode_doc,
    encode_ner,
    encode_nli,
    encode_qa,
    encode_re,
)
from .trainer import CorpusEntry, MixtureEntry, TrainConfig, finetune, optimizer_step, pretrain
from .vocab import Vocabulary, load_vocab, save_vocab, train_vocab

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "CheckpointError",
    "CodecError",
    "ConfigError",
    "CorpusEntry",
    "CorruptionError",
    "CorruptionExample",
    "DataFormatError",
    "EntitySpan",
    "MixtureEntry",
    "ModelConfig",
    "ModelError",
    "QAExample",
    "SpanCorruptionConfig",
    "T2TBioError",
    "TaskExample",
    "TrainConfig",
    "Vocabulary",
    "VocabError",
    "apply_span_mask",
    "corrupt",
    "decode_label",
    "decode_ner",
    "encode_doc",
    "encode_ner",
    "encode_nli",
    "encode_qa",
    "encode_re",
    "finetune",
    "forward",
    "greedy_decode",
    "init_params",
    "load_vocab",
    "loss_and_grads",
    "make_batch",
    "optimizer_step",
    "pretrain",
    "save_vocab",
    "train_vocab",
]
