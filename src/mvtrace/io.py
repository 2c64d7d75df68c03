"""Binary file formats shared across the toolkit.

Two container formats, both little-endian:

* ``MVRL`` matrices — magic ``MVRL``, version u32, rows u64, cols u64, then
  the row-major f64 payload.  Bit-exact contract for cross-language interop.
* ``MVNN`` models — magic ``MVNN``, version u32 (= 2), a length-prefixed JSON
  text header, then a sequence of named MLP blocks; used to persist
  representation models together with their normalization statistics.

Readers check every declared size against the bytes left in the file before
reading, and reject trailing bytes.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from . import nn

MATRIX_MAGIC = b"MVRL"
MATRIX_VERSION = 1
MODEL_MAGIC = b"MVNN"
MODEL_VERSION_CONTAINER = 2

ACTIVATION_CODES = {"linear": 0, "relu": 1, "sigmoid": 2}
CODE_ACTIVATIONS = {v: k for k, v in ACTIVATION_CODES.items()}


def write_matrix(path, array: np.ndarray) -> None:
    """Write a 1-D or 2-D float array as an MVRL file (1-D becomes a column)."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim == 1:
        array = array[:, None]
    if array.ndim != 2:
        raise ValueError(f"MVRL stores matrices, got ndim={array.ndim}")
    with open(path, "wb") as fh:
        fh.write(MATRIX_MAGIC)
        fh.write(struct.pack("<I", MATRIX_VERSION))
        fh.write(struct.pack("<QQ", array.shape[0], array.shape[1]))
        fh.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def read_matrix(path) -> np.ndarray:
    rows, cols, payload = _read_matrix_raw(path)
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(np.float64)


def read_matrix_header(path) -> dict:
    rows, cols, _ = _read_matrix_raw(path, header_only=True)
    return {"format": "MVRL", "version": MATRIX_VERSION, "rows": rows, "cols": cols}


def _read_matrix_raw(path, header_only: bool = False):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MATRIX_MAGIC:
            raise ValueError(f"{path}: not an MVRL file (magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != MATRIX_VERSION:
            raise ValueError(f"{path}: unsupported MVRL version {version}")
        rows, cols = struct.unpack("<QQ", _read_exact(fh, 16))
        declared, present = 8 * rows * cols, _remaining(fh)
        if declared != present:
            problem = "truncated file" if declared > present else "trailing bytes"
            raise ValueError(
                f"{path}: {problem}: a {rows}x{cols} matrix needs {declared} payload "
                f"bytes, the file has {present}"
            )
        payload = b"" if header_only else fh.read(declared)
    return rows, cols, payload


def write_model_container(path, header: dict, blocks: dict[str, "nn.MLP"]) -> None:
    """Write a version-2 MVNN container: JSON header + named MLP blocks."""
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION_CONTAINER))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(struct.pack("<I", len(blocks)))
        for name, mlp in blocks.items():
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            _write_mlp(fh, mlp)


def read_model_container(path):
    """Read a version-2 MVNN container; returns (header dict, blocks dict)."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4)
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: not an MVNN file (magic {magic!r})")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != MODEL_VERSION_CONTAINER:
            raise ValueError(
                f"{path}: expected MVNN container (version 2), got {version}"
            )
        (header_len,) = struct.unpack("<I", _read_exact(fh, 4))
        header = json.loads(_read_exact(fh, header_len).decode("utf-8"))
        (n_blocks,) = struct.unpack("<I", _read_exact(fh, 4))
        blocks = {}
        for _ in range(n_blocks):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4))
            name = _read_exact(fh, name_len).decode("utf-8")
            blocks[name] = _read_mlp(fh)
        trailing = _remaining(fh)
        if trailing:
            raise ValueError(f"{path}: trailing bytes: {trailing} after the last block")
    return header, blocks


# Each MLP block: layer_count u32, then per layer fan_in u32, fan_out u32,
# activation code u32, weights f64 row-major, biases f64.


def _write_mlp(fh, mlp: "nn.MLP") -> None:
    fh.write(struct.pack("<I", len(mlp.layers)))
    for layer in mlp.layers:
        fh.write(
            struct.pack(
                "<III", layer.fan_in, layer.fan_out, ACTIVATION_CODES[layer.activation]
            )
        )
        fh.write(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())


def _read_mlp(fh) -> "nn.MLP":
    (layer_count,) = struct.unpack("<I", _read_exact(fh, 4))
    layers = []
    for _ in range(layer_count):
        fan_in, fan_out, code = struct.unpack("<III", _read_exact(fh, 12))
        if code not in CODE_ACTIVATIONS:
            raise ValueError(f"unknown activation code {code}")
        weights = np.frombuffer(
            _read_exact(fh, 8 * fan_in * fan_out), dtype="<f8"
        ).reshape(fan_in, fan_out).astype(np.float64)
        bias = np.frombuffer(_read_exact(fh, 8 * fan_out), dtype="<f8").astype(np.float64)
        layers.append(nn.DenseLayer(weights, bias, CODE_ACTIVATIONS[code]))
    return nn.MLP(layers)


def describe(path) -> dict:
    """Header summary of an MVRL or MVNN file (for the ``inspect`` command)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == MATRIX_MAGIC:
        return read_matrix_header(path)
    if magic == MODEL_MAGIC:
        header, blocks = read_model_container(path)
        return {
            "format": "MVNN",
            "version": MODEL_VERSION_CONTAINER,
            "header": header,
            "blocks": {
                name: [
                    {"fan_in": l.fan_in, "fan_out": l.fan_out, "activation": l.activation}
                    for l in mlp.layers
                ]
                for name, mlp in blocks.items()
            },
        }
    raise ValueError(f"{path}: unrecognized magic {magic!r}")


def _remaining(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, n: int) -> bytes:
    """``n`` bytes; a size past the end of the file is rejected before any
    read or allocation."""
    left = _remaining(fh)
    if n > left:
        raise ValueError(f"truncated file: wanted {n} bytes, {left} left")
    return fh.read(n)
