"""Versioned checkpoint container: JSON wrapping base64 raw array bytes.

Round-trips are bit-exact because array payloads are the little-endian raw
bytes, not decimal renderings. The same container holds separator models,
alignment heads and audio-embedder parameters, distinguished by ``kind``,
and every one of them is read through ``load_checked``: each kind declares
its hparams and the array shapes they give, and the rules for a usable
checkpoint are stated once, here.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

MAGIC = "masksep-checkpoint"
VERSION = 1


def _encode_array(arr: np.ndarray) -> dict:
    arr = np.asarray(arr, order="C")
    le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
    return {
        "dtype": le.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(le.tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict) -> np.ndarray:
    dtype = np.dtype(obj["dtype"])
    if dtype.kind not in "fiu" or dtype.str != obj["dtype"]:
        raise ValueError(f"unsupported dtype {obj['dtype']!r}")
    shape = obj["shape"]
    if not (isinstance(shape, list)
            and all(type(d) is int and d >= 0 for d in shape)):
        raise ValueError(f"shape {shape!r} is not a list of sizes")
    raw = base64.b64decode(obj["data"], validate=True)
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


def save_checkpoint(path, kind: str, hparams: dict, arrays: dict) -> None:
    payload = {
        "container": MAGIC,
        "version": VERSION,
        "kind": kind,
        "hparams": hparams,
        "arrays": {name: _encode_array(a) for name, a in sorted(arrays.items())},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1))


def load_checkpoint(path):
    """Returns (kind, hparams, arrays); ValueError naming the path when the
    file is not a well-formed checkpoint."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # also undecodable UTF-8
        raise ValueError(f"{path}: malformed checkpoint JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("container") != MAGIC:
        raise ValueError(f"{path} is not a recognized checkpoint file")
    if payload.get("version") != VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint version {payload.get('version')}"
        )
    for key, kind in (("kind", str), ("hparams", dict), ("arrays", dict)):
        if not isinstance(payload.get(key), kind):
            raise ValueError(
                f"{path}: checkpoint has no {key!r} {kind.__name__}"
            )
    arrays = {}
    for name, obj in payload["arrays"].items():
        try:
            arrays[name] = _decode_array(obj)
        except (KeyError, TypeError, ValueError, SyntaxError) as exc:
            # ValueError covers bad base64 (binascii.Error) and a payload
            # whose size disagrees with its dtype or shape; np.dtype raises
            # SyntaxError on some garbled type strings
            raise ValueError(
                f"{path}: array {name!r} is corrupt ({exc!r})"
            ) from None
    return payload["kind"], payload["hparams"], arrays


def load_checked(path, kind: str, hparams: dict, shapes):
    """(hparams, arrays) of the ``kind`` checkpoint at ``path``; ValueError
    names the path and the hparam or array at fault. ``hparams`` maps each
    hparam to int or float (an integer is read as a float there): it must
    be there, of that type, positive and finite. ``shapes(**hparams)``
    gives each array's shape, in order, or a ValueError for a rule of the
    kind's own. Each array must be there, float32 or float64 like the
    first, of its shape and finite."""
    found, raw, arrays = load_checkpoint(path)
    noun = kind.replace("_", " ")
    if found != kind:
        raise ValueError(f"{path} holds a {found!r} checkpoint, not {kind!r}")
    values = {}
    for key, wanted in hparams.items():
        if key not in raw:
            raise ValueError(f"{path}: {noun} checkpoint has no hparam {key}")
        value = raw[key]
        if (type(value) not in ((int, float) if wanted is float else (int,))
                or not 0 < value < math.inf):
            raise ValueError(
                f"{path}: hparam {key} is {value!r}, not a positive finite "
                f"{'number' if wanted is float else 'integer'}"
            )
        values[key] = wanted(value)
    try:
        expected = shapes(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    checked = {}
    for name, shape in expected.items():
        if name not in arrays:
            raise ValueError(f"{path}: {noun} checkpoint has no array {name}")
        arr = arrays[name]
        first = next(iter(checked.values()), arr)
        if arr.dtype not in (np.float32, np.float64):
            raise ValueError(f"{path}: array {name} has dtype {arr.dtype}, "
                             f"not float32 or float64")
        if arr.dtype != first.dtype:
            raise ValueError(f"{path}: array {name} has dtype {arr.dtype}, "
                             f"not {first.dtype} like the arrays before it")
        if arr.shape != shape:
            raise ValueError(f"{path}: array {name} has shape {arr.shape}, "
                             f"expected {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: array {name} holds non-finite values")
        checked[name] = arr
    return values, checked
