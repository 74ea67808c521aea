"""Forward-pass message passing over a retrieved subcomplex.

Stage 1 runs L hops along the 1-skeleton: 0- and 1-cells exchange
face/coface messages while 2-cell states pass through untouched, so
only messages landing on 0- and 1-cells and only their updates are
computed. Stage 2 runs once over all cells and adds an upper-adjacency
message (neighbors sharing a coface, the coface state included).
Messages and updates are affine maps over concatenated inputs followed
by the configured activation; aggregation over a neighbor set is sum
(default) or mean, with the empty set contributing a zero message.

Each map is factored by input block, ``W [a; b] + c = W_a a + W_b b + c``:
every column block of ``W`` multiplies only the distinct state rows its
input reads (a cell sending several messages is multiplied once), and
the products are gathered per message and summed. An update multiplies
a message only for the cells it lands on: the others read zero.

Weights are stored as float32 in one contiguous buffer, seeded or read
from a weight file in one call, with every parameter a view into it;
the file round-trips bit-exactly, and a non-finite weight is refused.
States and affine maps are computed in float64: each weight matrix is
split into 128-row blocks, cast and multiplied one input's column block
at a time, so no float64 copy of a whole matrix is ever held. Each step
(a layer's messages, then its update) is one dispatch to up to two
worker threads, one task each, worker i of n taking every n-th block of
all the step's maps. While they run, the OpenBLAS that ``np.matmul``
calls, found through numpy's extension module, is held to one thread,
so its own thread does not compete with the second worker for a core;
where it is not found, one worker runs the blocks in order.
The seeded initialisation fills the buffer from several threads, each
advancing its own PCG64 stream to its slice; the result is bit-identical
to one sequential ``uniform`` draw per parameter, whatever the thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, EmptySubcomplex, ValidationError,
                     file_io, parse_json, typed)
from .retrieval import Subcomplex

ACTIVATIONS = ("relu", "tanh", "identity")
AGGREGATIONS = ("sum", "mean")

_INIT_CHUNK = 1 << 17  # draws per chunk: 1 MB of float64 scratch per thread
_MAX_INIT_WORKERS = 4
_CAST_ROWS = 128  # weight rows per block: a 1 MB float64 tile at d = 1024
_MAX_CAST_WORKERS = 2
# (get, set) thread-count symbols: numpy 2.x wheels, older wheels, system
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
_blas_lock = threading.Lock()
# (affine map, input width / d) in the order that fixes each one's draws
_LAYER_MAPS = (("face", 2), ("coface", 2), ("update", 3))
_FINAL_MAPS = (("face", 2), ("coface", 2), ("upper", 3), ("update", 4))


@dataclass(frozen=True)
class ReasoningConfig:
    layers: int = 3
    state_dim: int = 1024
    activation: str = "relu"
    aggregation: str = "sum"
    seed: int = 0
    proj_dim: int | None = None  # generator hidden width; None = state_dim

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.state_dim <= 0 or self.projection_dim <= 0:
            raise ValueError("state_dim and proj_dim must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")

    @property
    def projection_dim(self) -> int:
        return self.proj_dim if self.proj_dim is not None else self.state_dim


def _activate(x: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "tanh":
        return np.tanh(x)
    return x


def _layer_param_specs(config: ReasoningConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter: a ``.w`` then a ``.b`` per map."""
    d = config.state_dim
    maps = [(f"layer{layer}.{name}", d, width * d)
            for layer in range(config.layers) for name, width in _LAYER_MAPS]
    maps += [(f"final.{name}", d, width * d) for name, width in _FINAL_MAPS]
    maps.append(("proj", config.projection_dim, d))
    return [spec for name, rows, cols in maps
            for spec in ((f"{name}.w", (rows, cols)), (f"{name}.b", (rows,)))]


def _views(buffer: np.ndarray, specs) -> dict[str, np.ndarray]:
    """{name: view}: consecutive slices of the flat ``buffer``, in order."""
    params, offset = {}, 0
    for name, shape in specs:
        size = math.prod(shape)
        params[name] = buffer[offset:offset + size].reshape(shape)
        offset += size
    return params


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_uniform(out: np.ndarray, seed: int, bound: float,
                  workers: int) -> None:
    """Fill the flat float32 ``out`` with the first ``out.size`` draws of
    ``Generator(PCG64(seed)).uniform(-bound, bound)``.

    Each worker owns one contiguous slice: its stream is advanced to the
    slice's first draw, and ``u * (2 * bound) - bound`` is the same
    arithmetic ``uniform`` does, so the values do not depend on the
    number of workers.
    """
    edges = [out.size * i // workers for i in range(workers + 1)]
    span = 2.0 * bound

    def fill(start: int, stop: int) -> None:
        bitgen = np.random.PCG64(seed)
        bitgen.advance(start)
        rng = np.random.Generator(bitgen)
        scratch = np.empty(min(_INIT_CHUNK, stop - start))
        for lo in range(start, stop, _INIT_CHUNK):
            chunk = scratch[:min(_INIT_CHUNK, stop - lo)]
            rng.random(out=chunk)
            chunk *= span
            chunk -= bound
            out[lo:lo + len(chunk)] = chunk

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill, edges[:-1], edges[1:]))


_HEADER_FIELDS = (("layers", int), ("state_dim", int), ("activation", str),
                  ("aggregation", str), ("seed", int), ("proj_dim", int))


def _read_header(fh) -> tuple[list[tuple[str, tuple[int, ...]]],
                              ReasoningConfig]:
    """The (name, shape) list and the config in the JSON header line of an
    open weight file; every field is checked by :func:`typed`."""
    what = "bad weight file header"

    def field(value, kind: type, name: str):
        return typed(value, kind, f"{what}: {name}", ValidationError)

    try:
        header = field(parse_json(fh.readline(), what, ValidationError), dict,
                       "line")
        config = ReasoningConfig(**{key: field(header.get(key), kind, key)
                                    for key, kind in _HEADER_FIELDS})
        arrays = []
        for spec in field(header.get("arrays"), list, "arrays"):
            spec = field(spec, dict, "arrays entry")
            shape = field(spec.get("shape"), list, "shape")
            arrays.append((field(spec.get("name"), str, "name"),
                           tuple(field(n, int, "shape entry") for n in shape)))
    except ValueError as exc:  # from ReasoningConfig
        raise ValidationError(f"{what}: {exc}") from exc
    return arrays, config


def check_weight_file(path, expected: ReasoningConfig) -> None:
    """Raise ``ValidationError`` if the weight file's header disagrees with
    ``expected`` on the architecture; the seed may differ.

    Reads only the header line, not the weights.
    """
    with file_io(path), open(path, "rb") as fh:
        _, got = _read_header(fh)
    mismatched = [
        f"{key}={getattr(got, key)} (config: {getattr(expected, key)})"
        for key in ("layers", "state_dim", "projection_dim", "activation",
                    "aggregation")
        if getattr(got, key) != getattr(expected, key)]
    if mismatched:
        raise ValidationError(f"{path}: weight file has "
                              + ", ".join(mismatched))


@dataclass(frozen=True)
class ReasoningWeights:
    """All affine-map parameters, keyed by name; float32 storage."""

    config: ReasoningConfig
    params: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.params[name]

    @classmethod
    def initialize(cls, config: ReasoningConfig) -> "ReasoningWeights":
        """Seeded uniform init in [-1/sqrt(d_s), 1/sqrt(d_s)].

        Equal, bit for bit, to drawing every parameter in spec order with
        ``Generator(PCG64(seed)).uniform(-bound, bound, shape)`` and
        casting it to float32; filled by ``min(4, usable CPUs)`` threads.
        """
        specs = _layer_param_specs(config)
        buffer = np.empty(sum(math.prod(shape) for _, shape in specs),
                          dtype=np.float32)
        _fill_uniform(buffer, config.seed, 1.0 / np.sqrt(config.state_dim),
                      min(_MAX_INIT_WORKERS, _usable_cpus()))
        return cls(config=config, params=_views(buffer, specs))

    def save(self, path) -> None:
        """JSON header line (config + array shapes) then float32 LE payload."""
        names = [name for name, _ in _layer_param_specs(self.config)]
        header = {key: getattr(self.config, "projection_dim"
                               if key == "proj_dim" else key)
                  for key, _ in _HEADER_FIELDS}
        header["arrays"] = [{"name": n, "shape": list(self.params[n].shape)}
                            for n in names]
        with file_io(path, "write"), open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for name in names:
                fh.write(np.ascontiguousarray(self.params[name], "<f4"))

    @classmethod
    def load(cls, path) -> "ReasoningWeights":
        """A :meth:`save` file's finite weights: one buffer, one read."""
        with file_io(path), open(path, "rb") as fh:
            arrays, config = _read_header(fh)
            if sorted(arrays) != sorted(_layer_param_specs(config)):
                raise ValidationError("weight shapes do not match the config")
            buffer = np.empty(sum(math.prod(shape) for _, shape in arrays),
                              dtype="<f4")
            if fh.readinto(buffer) != buffer.nbytes:
                raise ValidationError("truncated weight payload")
        params = _views(buffer, arrays)
        for name, value in params.items():
            if not np.isfinite(value).all():
                raise ValidationError(f"weight {name} is not finite")
        return cls(config=config, params=params)


@dataclass(frozen=True)
class CellStates:
    """Per-cell state vectors at one layer; rows follow ``cell_ids``."""

    cell_ids: tuple[int, ...]
    states: np.ndarray  # (n_cells, d_s) float64
    layer: int

    def row(self, cell_id: int) -> int:
        return self.cell_ids.index(cell_id)

    def state(self, cell_id: int) -> np.ndarray:
        return self.states[self.row(cell_id)]


def init_states(sub: Subcomplex, state_dim: int | None = None) -> CellStates:
    """Layer-0 states: each cell's ``CellComplex.vector``, in float64."""
    cell_ids = sub.all_cells()
    if not cell_ids:
        raise EmptySubcomplex("cannot initialize states for an empty subcomplex")
    complex = sub.complex
    rows, dim = complex.embeddings.shape
    if state_dim is not None and state_dim != dim:
        raise DimensionMismatch(
            f"embedding dim {dim} != configured state dim {state_dim}")
    if rows != complex.n0 + complex.n1:
        raise ValidationError(
            f"{rows} embedding rows for n0 + n1 = {complex.n0 + complex.n1} cells")
    states = np.array([complex.vector(c) for c in cell_ids], dtype=np.float64)
    return CellStates(cell_ids=cell_ids, states=states, layer=0)


class _Incidence:
    """Subcomplex-restricted incidence as arrays of state-row indices.

    Rows of ``face`` are (cell, face), in cell order then boundary
    order; ``coface`` holds the same pairs turned around, sorted; rows
    of ``upper`` are (cell, neighbor, shared coface), sorted by cell,
    coface, then neighbor. Each is sorted by its first column, where a
    message lands.
    """

    def __init__(self, sub: Subcomplex):
        complex = sub.complex
        self.cell_ids = sub.all_cells()
        index = {cid: i for i, cid in enumerate(self.cell_ids)}
        self.dims = np.array([complex.dim(c) for c in self.cell_ids])
        faces = [[index[b] for b in complex.boundary(cid) if b in index]
                 for cid in self.cell_ids]
        face = [(x, y) for x, ys in enumerate(faces) for y in ys]
        coface = sorted((y, x) for x, y in face)
        upper = sorted((x, c, w) for x, c in coface for w in faces[c] if w != x)
        self.face = np.array(face, dtype=np.intp).reshape(-1, 2)
        self.coface = np.array(coface, dtype=np.intp).reshape(-1, 2)
        self.upper = np.array([(x, w, c) for x, c, w in upper],
                              dtype=np.intp).reshape(-1, 3)


@functools.cache
def _blas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that
    ``np.matmul`` calls, or ``None``. They are looked up on the handle of
    numpy's extension module, whose ``dlsym`` searches the libraries it links.
    """
    core = np._core if int(np.__version__.split(".")[0]) >= 2 else np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except OSError:  # the serial loop
        return None
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@functools.cache
def _cast_pool() -> ThreadPoolExecutor:
    """The workers of :func:`_products`: ``min(2, usable CPUs)``, or one
    when the BLAS thread count cannot be set."""
    workers = min(_MAX_CAST_WORKERS, _usable_cpus()) if _blas_threads() else 1
    return ThreadPoolExecutor(max_workers=workers,
                              thread_name_prefix="toporag-cast")


@contextlib.contextmanager
def _one_blas_thread():
    """Hold the loaded OpenBLAS to one thread, restoring its count after.

    The lock keeps one caller's restore from undoing another's hold.
    """
    blas = _blas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _blas_lock:
        threads = get()
        set_(1)
        try:
            yield
        finally:
            set_(threads)


def _products(jobs: list[tuple[list[np.ndarray], np.ndarray]]
              ) -> list[list[np.ndarray]]:
    """For each job ``(xs, w)``, ``[x_j @ w_j.T for each j]`` in float64,
    where ``w_j`` is the column block of float32 ``w`` as wide as ``x_j``,
    the blocks side by side.

    The jobs' row blocks are dealt out to the workers of
    :func:`_cast_pool`, one task per worker: of ``n`` workers, worker
    ``i`` takes every ``n``-th block. A block is cast one input's columns
    at a time and that tile multiplied by the input, so each weight is
    cast once and at most one float64 tile per worker is alive; an input
    with no rows casts nothing, and a job with none makes no task.
    OpenBLAS is held to one thread while they run: its own second thread
    would contend with the second worker for the same core.
    """
    outs = [[np.empty(x.shape[:-1] + (w.shape[0],)) for x in xs]
            for xs, w in jobs]
    blocks = [(xs, w, out, lo) for (xs, w), out in zip(jobs, outs)
              if any(x.size for x in xs)
              for lo in range(0, w.shape[0], _CAST_ROWS)]
    pool = _cast_pool()
    workers = min(pool._max_workers, len(blocks))

    def task(first: int) -> None:
        for xs, w, out, lo in blocks[first::workers]:
            hi, left = lo + _CAST_ROWS, 0
            for x, product in zip(xs, out):
                right = left + x.shape[-1]
                if x.size:
                    product[..., lo:hi] = (
                        x @ w[lo:hi, left:right].astype(np.float64).T)
                left = right

    if blocks:
        with _one_blas_thread():
            list(pool.map(task, range(workers)))
    return outs


def _affine(maps: list[tuple[str, list[tuple]]], weights: ReasoningWeights,
            config: ReasoningConfig) -> list[np.ndarray]:
    """For each ``(name, parts)`` of ``maps``, the activated affine map
    ``name``; the products of all the maps run in one dispatch.

    A part ``(x_j, i_j, at_j)`` is one input block: output rows ``at_j``
    read rows ``i_j`` of ``x_j``, and every other row reads zero there.
    The first part's ``at`` is every output row.
    ``W [a; b] = W_a a + W_b b``: each part is multiplied by its column
    block of ``W`` once per distinct row it reads, and the products are
    gathered and summed.
    """
    distinct = [[np.unique(rows, return_inverse=True) for _, rows, _ in parts]
                for _, parts in maps]
    products = _products([
        ([x[rows] for (x, _, _), (rows, _) in zip(parts, gather)],
         weights[f"{name}.w"])
        for (name, parts), gather in zip(maps, distinct)])
    outs = []
    for (name, parts), gather, product in zip(maps, distinct, products):
        out = product[0][gather[0][1]]
        for block, (_, inverse), (_, _, at) in zip(product[1:], gather[1:],
                                                   parts[1:]):
            out[at] += block[inverse]
        out += weights[f"{name}.b"]
        outs.append(_activate(out, config.activation))
    return outs


def _update(h: np.ndarray, cells: np.ndarray,
            messages: list[tuple[str, np.ndarray]], name: str,
            weights: ReasoningWeights, config: ReasoningConfig) -> np.ndarray:
    """The update map ``name`` of the sorted state rows ``cells``: each
    reads its own state and, for each ``(message map, pairs)``, the AGG
    of the activated affine messages, one per row of ``pairs``, that land
    on it. A row of ``pairs`` reads the states of all its cells,
    concatenated, and lands on its first cell.

    The message maps run in one dispatch, and each is summed over the
    segments of ``pairs``, sorted by landing cell. A cell that no pair
    lands on reads a zero message, and no product is computed for it.
    """
    parts = [(h, cells, slice(None))]
    for (_, pairs), sent in zip(messages, _affine(
            [(message, [(h, column, slice(None)) for column in pairs.T])
             for message, pairs in messages], weights, config)):
        starts = np.flatnonzero(np.diff(pairs[:, 0], prepend=-1))
        received = np.add.reduceat(sent, starts) if len(starts) else sent
        if config.aggregation == "mean":
            received /= np.diff(starts, append=len(pairs))[:, None]
        parts.append((received, np.arange(len(starts)),
                      np.searchsorted(cells, pairs[starts, 0])))
    return _affine([(name, parts)], weights, config)[0]


def _stage1(states: CellStates, inc: _Incidence, weights: ReasoningWeights,
            config: ReasoningConfig) -> CellStates:
    """Only 0- and 1-cells are updated, so only messages landing on them
    are computed: faces of 1-cells and 1-cell cofaces of 0-cells."""
    if inc.cell_ids != states.cell_ids:
        raise ValidationError("states do not align with the subcomplex cells")
    h = states.states.copy()
    low = np.flatnonzero(inc.dims <= 1)
    face = inc.face[inc.dims[inc.face[:, 0]] <= 1]
    coface = inc.coface[inc.dims[inc.coface[:, 1]] == 1]
    for layer in range(config.layers):
        prefix = f"layer{layer}"
        h[low] = _update(h, low, [(f"{prefix}.face", face),
                                  (f"{prefix}.coface", coface)],
                         f"{prefix}.update", weights, config)
    return CellStates(cell_ids=states.cell_ids, states=h,
                      layer=states.layer + config.layers)


def _stage2(states: CellStates, inc: _Incidence, weights: ReasoningWeights,
            config: ReasoningConfig) -> CellStates:
    h = states.states
    updated = _update(h, np.arange(len(h)), [
        ("final.face", inc.face), ("final.coface", inc.coface),
        ("final.upper", inc.upper)], "final.update", weights, config)
    return CellStates(cell_ids=states.cell_ids, states=updated,
                      layer=states.layer + 1)


def stage1_pass(states: CellStates, sub: Subcomplex,
                weights: ReasoningWeights,
                config: ReasoningConfig) -> CellStates:
    """L hops along the 1-skeleton; 2-cell states pass through."""
    return _stage1(states, _Incidence(sub), weights, config)


def stage2_pass(states: CellStates, sub: Subcomplex,
                weights: ReasoningWeights,
                config: ReasoningConfig) -> CellStates:
    """One update of every cell with face, coface, and upper messages.

    The upper message for cell x aggregates, over neighbors w sharing
    a coface, an affine map of (h_x, h_w, h_coface); the coface state
    is its current (layer-L) state.
    """
    return _stage2(states, _Incidence(sub), weights, config)


def forward(sub: Subcomplex, weights: ReasoningWeights,
            config: ReasoningConfig) -> CellStates:
    """init -> stage 1 (L hops) -> stage 2, returning final states."""
    states = init_states(sub, state_dim=config.state_dim)
    inc = _Incidence(sub)
    return _stage2(_stage1(states, inc, weights, config), inc, weights, config)


def pool(states: CellStates, sub: Subcomplex) -> np.ndarray:
    """Mean over the states of every cell of every dimension."""
    if len(states.cell_ids) == 0:
        raise EmptySubcomplex("cannot pool an empty subcomplex")
    return states.states.mean(axis=0)


def project(h: np.ndarray, weights: ReasoningWeights) -> np.ndarray:
    """Affine map of the pooled embedding to the generator width."""
    w = weights["proj.w"]
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (w.shape[1],):
        raise DimensionMismatch(
            f"pooled embedding has shape {h.shape}, projection expects ({w.shape[1]},)")
    [[out]] = _products([([h], w)])
    out += weights["proj.b"]
    return out
