"""The one checked reader behind every checkpoint kind: a file that breaks
one of its rules is rejected at load, with the path and the hparam or
array named."""

import numpy as np
import pytest

from masksep import checkpoint
from masksep.align import HeadSet, load_heads, save_heads
from masksep.embed import AudioFeatureEmbedder
from masksep.separator import init_model, load_model, save_model


def separator_file(path, **hparams):
    save_model(path, init_model(np.random.default_rng(0), context=3,
                                hidden_width=4, query_dim=4))
    _, saved, arrays = checkpoint.load_checkpoint(path)
    checkpoint.save_checkpoint(path, "separator", {**saved, **hparams},
                               arrays)


def empty_hidden_layer(path):
    # hidden_width 0 with arrays of the shapes it gives
    checkpoint.save_checkpoint(
        path, "separator",
        {"context": 3, "hidden_width": 0, "query_dim": 4, "k_sources": 1,
         "sample_rate": 16000},
        {"w1": np.zeros((14, 0)), "b1": np.zeros(0), "w2": np.zeros((0, 1)),
         "b2": np.zeros(1)})


def heads_of_another_dim(path):
    save_heads(path, HeadSet.identity(6))
    _, _, arrays = checkpoint.load_checkpoint(path)
    checkpoint.save_checkpoint(path, "alignment_heads", {"dim": 99}, arrays)


def heads_of_two_dtypes(path):
    save_heads(path, HeadSet.identity(6))
    _, hparams, arrays = checkpoint.load_checkpoint(path)
    checkpoint.save_checkpoint(
        path, "alignment_heads", hparams,
        {**arrays, "log_tau": arrays["log_tau"].astype(np.float32)})


def integer_projection(path):
    embedder = AudioFeatureEmbedder(dim=4, projection=np.ones((4, 27)))
    embedder.save(path)
    _, hparams, _ = checkpoint.load_checkpoint(path)
    checkpoint.save_checkpoint(path, "audio_embedder", hparams,
                               {"projection": np.ones((4, 27), np.int64)})


@pytest.mark.parametrize("write, load, named", [
    (lambda p: separator_file(p, context=-5), load_model,
     "hparam context is -5"),
    (lambda p: separator_file(p, context=4), load_model,
     "hparam context is 4, not odd"),
    (empty_hidden_layer, load_model, "hparam hidden_width is 0"),
    (heads_of_another_dim, load_heads,
     "array audio_weight has shape (6, 6), expected (99, 99)"),
    (heads_of_two_dtypes, load_heads,
     "array log_tau has dtype float32, not float64 like the arrays before "
     "it"),
    (integer_projection, AudioFeatureEmbedder.load,
     "array projection has dtype int64"),
], ids=["negative context", "even context", "no hidden units",
        "heads dim", "heads dtypes", "integer projection"])
def test_unusable_checkpoint_is_named(tmp_path, write, load, named):
    path = tmp_path / "ckpt.json"
    write(path)
    with pytest.raises(ValueError) as err:
        load(path)
    assert str(err.value).startswith(f"{path}: {named}")

