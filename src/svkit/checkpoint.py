"""Versioned text container mapping named parameters to shaped arrays.

Layout (one record per line, whitespace separated)::

    svkit-params v1
    meta <key> <value>
    param <name> <ndim> <dim0> [<dim1> ...]
    <%.17g values, one line per leading row (vectors: a single line)>
    ...
    end

Scalars are stored as 0-dim params with a single value line.  The %.17g
formatting round-trips IEEE doubles exactly, so save/load/save is stable
byte for byte.  This module owns the record layout; the float format, the
atomic write and the line-numbered parsing are the shared text layer of
``data.py``.
"""

from __future__ import annotations

import numpy as np

from .data import _float_block, _float_lines, _reading, _records, _write_lines
from .errors import ModelError, ParseError, StateError

MAGIC = "svkit-params"
VERSION = "v1"


def save_params(path, params: dict[str, np.ndarray], meta: dict[str, str] | None = None) -> None:
    def lines():
        yield f"{MAGIC} {VERSION}\n"
        for key in sorted(meta or {}):
            yield f"meta {key} {(meta or {})[key]}\n"
        for name, value in params.items():
            arr = np.asarray(value, dtype=np.float64)
            dims = " ".join(str(d) for d in arr.shape)
            yield f"param {name} {arr.ndim}{' ' + dims if dims else ''}\n"
            yield from _float_lines(arr.reshape(arr.shape[0] if arr.ndim > 1 else 1, -1))
        yield "end\n"

    _write_lines(path, lines())


def load_params(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    with _reading(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split() != [MAGIC, VERSION]:
        raise ParseError(path, 1, f"expected header '{MAGIC} {VERSION}'")
    params: dict[str, np.ndarray] = {}
    meta: dict[str, str] = {}
    numbered = enumerate(lines[1:], start=2)
    for line_no, fields in _records(numbered):
        if fields == ["end"]:
            return params, meta
        if fields[0] == "meta":
            if len(fields) < 3:
                raise ParseError(path, line_no, "meta needs a key and a value")
            meta[fields[1]] = " ".join(fields[2:])
            continue
        if fields[0] != "param":
            raise ParseError(path, line_no, f"unexpected record {fields[0]!r}")
        if len(fields) < 3:
            raise ParseError(path, line_no, "param needs a name and ndim")
        name = fields[1]
        try:
            ndim = int(fields[2])
            shape = tuple(int(d) for d in fields[3 : 3 + ndim])
        except ValueError:
            raise ParseError(path, line_no, "bad param dimensions") from None
        if len(shape) != ndim:
            raise ParseError(path, line_no, f"expected {ndim} dims, got {len(shape)}")
        values = _float_block(path, numbered, line_no, 1 if ndim <= 1 else shape[0], None,
                              f"param {name!r} truncated")
        try:
            params[name] = values.reshape(shape)
        except ValueError:
            raise ParseError(path, line_no, f"param {name!r} has wrong value count") from None
    raise ParseError(path, len(lines), "missing 'end' record")


def _load_kind(path, build: dict) -> tuple[str, object]:
    """The kind and model of the checkpoint at ``path``, made by ``build[kind](params, meta)``.

    Any other kind fails, and so does a model whose layout is wrong, naming the file.
    """
    params, meta = load_params(path)
    kind = meta.get("kind")
    if kind not in build:
        raise StateError(f"{path} is a {kind!r} checkpoint, not {' or '.join(map(repr, build))}")
    try:
        return kind, build[kind](params, meta)
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None
