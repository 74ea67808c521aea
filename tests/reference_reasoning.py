"""Naive per-cell, per-neighbor reference for the message-passing engine.

Kept independent of the package implementation: plain dict states and
explicit Python loops straight over the complex's incidence fields,
with upper adjacency defined here from the boundary and coboundary.
Also the sequential weight initializer the chunked, threaded one must
reproduce bit for bit, and the serial block-cast affine map the pooled
one must reproduce bit for bit.
"""

import numpy as np

from toporag.reasoning import ReasoningWeights, _layer_param_specs


def sequential_initialize(config):
    """{name: float32 array}: one ``uniform`` draw per parameter, in order."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    bound = 1.0 / np.sqrt(config.state_dim)
    return {
        name: rng.uniform(-bound, bound, size=shape).astype(np.float32)
        for name, shape in _layer_param_specs(config)
    }


def serial_linear(x, w, b, rows=256):
    """``x @ w.T + b`` in float64 on the calling thread, casting float32
    ``w`` to float64 ``rows`` rows at a time, in row order."""
    out = np.empty(x.shape[:-1] + (w.shape[0],))
    for lo in range(0, w.shape[0], rows):
        out[..., lo:lo + rows] = x @ w[lo:lo + rows].astype(np.float64).T
    out += b
    return out


def identity_weights(config):
    """UPDATE passes the state through; all messages are zero.

    Combined with identity activation this makes every pass a fixed
    point, which the locality and fixed-point tests rely on.
    """
    d = config.state_dim
    params = {name: np.zeros(shape, dtype=np.float32)
              for name, shape in _layer_param_specs(config)}
    for layer in range(config.layers):
        params[f"layer{layer}.update.w"][:, :d] = np.eye(d, dtype=np.float32)
    params["final.update.w"][:, :d] = np.eye(d, dtype=np.float32)
    params["proj.w"][:, :] = np.eye(config.projection_dim, d, dtype=np.float32)
    return ReasoningWeights(config=config, params=params)


def _act(x, kind):
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "tanh":
        return np.tanh(x)
    return x


def _affine(weights, name, vecs, kind):
    w = weights[f"{name}.w"].astype(np.float64)
    b = weights[f"{name}.b"].astype(np.float64)
    return _act(w @ np.concatenate(vecs) + b, kind)


def _agg(messages, dim, config):
    if not messages:
        return np.zeros(dim)
    total = messages[0].copy()
    for m in messages[1:]:
        total += m
    if config.aggregation == "mean":
        total /= len(messages)
    return total


def upper_adjacent(complex, cell_id):
    """(neighbor, shared coface) pairs: cells of the same dimension
    incident to a common coface, one pair per shared coface, sorted by
    coface then neighbor."""
    pairs = []
    for cof in complex.coboundary[cell_id]:
        for w in complex.cells[cof].boundary:
            if w != cell_id:
                pairs.append((w, cof))
    pairs.sort(key=lambda p: (p[1], p[0]))
    return pairs


def naive_forward(sub, weights, config):
    """Returns {cell_id: final state} after stage 1 (L hops) + stage 2."""
    complex = sub.complex
    selected = set(sub.all_cells())
    d = config.state_dim
    h = {}
    for cid in sorted(selected):
        h[cid] = np.asarray(complex.embeddings[cid], dtype=np.float64)

    kind = config.activation
    for layer in range(config.layers):
        prefix = f"layer{layer}"
        new = {}
        for cid in sorted(selected):
            cell = complex.cells[cid]
            if cell.dim == 2:
                new[cid] = h[cid]
                continue
            faces = [b for b in cell.boundary if b in selected]
            cofaces = [c for c in complex.coboundary[cid]
                       if c in selected and complex.cells[c].dim == 1]
            mf = _agg([_affine(weights, f"{prefix}.face", [h[cid], h[y]], kind)
                       for y in faces], d, config)
            mc = _agg([_affine(weights, f"{prefix}.coface", [h[cid], h[z]], kind)
                       for z in cofaces], d, config)
            new[cid] = _affine(weights, f"{prefix}.update",
                               [h[cid], mf, mc], kind)
        h = new

    final = {}
    for cid in sorted(selected):
        cell = complex.cells[cid]
        faces = [b for b in cell.boundary if b in selected]
        cofaces = [c for c in complex.coboundary[cid] if c in selected]
        uppers = [(w, cof) for w, cof in upper_adjacent(complex, cid)
                  if w in selected and cof in selected]
        mf = _agg([_affine(weights, "final.face", [h[cid], h[y]], kind)
                   for y in faces], d, config)
        mc = _agg([_affine(weights, "final.coface", [h[cid], h[z]], kind)
                   for z in cofaces], d, config)
        mu = _agg([_affine(weights, "final.upper", [h[cid], h[w], h[cof]], kind)
                   for w, cof in uppers], d, config)
        final[cid] = _affine(weights, "final.update", [h[cid], mf, mc, mu], kind)
    return final
