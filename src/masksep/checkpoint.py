"""Versioned checkpoint container: JSON wrapping base64 raw array bytes.

Round-trips are bit-exact because array payloads are the little-endian raw
bytes, not decimal renderings. The same container holds separator models,
alignment heads and audio-embedder parameters, distinguished by ``kind``.
"""

from __future__ import annotations

import base64
import json
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
