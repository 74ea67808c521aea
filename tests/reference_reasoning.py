"""Naive per-cell, per-neighbor reference for the message-passing engine.

Kept independent of the package implementation: plain dict states and
explicit Python loops straight over the complex's ``boundary`` and
``dim``, with cofaces found here by transposing the boundaries, and upper
adjacency defined from the boundaries and those cofaces.
Also the sequential weight initializer the chunked, threaded one must
reproduce bit for bit, the serial twin of the pooled block products,
and the pairwise pass: the package's vectorized pass before its affine
maps were factored by input block, run on the package's own incidence
arrays.
"""

import numpy as np

from toporag.reasoning import (ReasoningWeights, _Incidence,
                               _layer_param_specs, init_states)


def sequential_initialize(config):
    """{name: float32 array}: one ``uniform`` draw per parameter, in order."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    bound = 1.0 / np.sqrt(config.state_dim)
    return {
        name: rng.uniform(-bound, bound, size=shape).astype(np.float32)
        for name, shape in _layer_param_specs(config)
    }


def serial_products(jobs, rows):
    """For each job ``(xs, w)``, ``[x_j @ w_j.T]`` as
    ``reasoning._products`` computes it, on the calling thread: the same
    float64 tiles of ``rows`` rows by one input's width, cast and
    multiplied job by job in row-block order."""
    results = []
    for xs, w in jobs:
        outs = [np.empty(x.shape[:-1] + (w.shape[0],)) for x in xs]
        edges = np.cumsum([0] + [x.shape[-1] for x in xs])
        for lo in range(0, w.shape[0], rows):
            for x, out, left, right in zip(xs, outs, edges, edges[1:]):
                out[..., lo:lo + rows] = (
                    x @ w[lo:lo + rows, left:right].astype(np.float64).T)
        results.append(outs)
    return results


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


def cofaces(complex, cell_id):
    """Cells whose boundary holds ``cell_id``, in ascending id: the
    transpose of the boundaries, a self-loop once at its vertex."""
    return [c for c in range(complex.num_cells)
            if cell_id in complex.boundary(c)]


def upper_adjacent(complex, cell_id):
    """(neighbor, shared coface) pairs: cells of the same dimension
    incident to a common coface, one pair per shared coface, sorted by
    coface then neighbor."""
    pairs = []
    for cof in cofaces(complex, cell_id):
        for w in complex.boundary(cof):
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
        h[cid] = np.asarray(complex.vector(cid), dtype=np.float64)

    kind = config.activation
    for layer in range(config.layers):
        prefix = f"layer{layer}"
        new = {}
        for cid in sorted(selected):
            if complex.dim(cid) == 2:
                new[cid] = h[cid]
                continue
            faces = [b for b in complex.boundary(cid) if b in selected]
            above = [c for c in cofaces(complex, cid)
                     if c in selected and complex.dim(c) == 1]
            mf = _agg([_affine(weights, f"{prefix}.face", [h[cid], h[y]], kind)
                       for y in faces], d, config)
            mc = _agg([_affine(weights, f"{prefix}.coface", [h[cid], h[z]], kind)
                       for z in above], d, config)
            new[cid] = _affine(weights, f"{prefix}.update",
                               [h[cid], mf, mc], kind)
        h = new

    final = {}
    for cid in sorted(selected):
        faces = [b for b in complex.boundary(cid) if b in selected]
        above = [c for c in cofaces(complex, cid) if c in selected]
        uppers = [(w, cof) for w, cof in upper_adjacent(complex, cid)
                  if w in selected and cof in selected]
        mf = _agg([_affine(weights, "final.face", [h[cid], h[y]], kind)
                   for y in faces], d, config)
        mc = _agg([_affine(weights, "final.coface", [h[cid], h[z]], kind)
                   for z in above], d, config)
        mu = _agg([_affine(weights, "final.upper", [h[cid], h[w], h[cof]], kind)
                   for w, cof in uppers], d, config)
        final[cid] = _affine(weights, "final.update", [h[cid], mf, mc, mu], kind)
    return final


def _pairwise_affine(x, weights, name, kind):
    w = weights[f"{name}.w"].astype(np.float64)
    return _act(x @ w.T + weights[f"{name}.b"].astype(np.float64), kind)


def _pairwise_messages(h, pairs, weights, name, config):
    """One affine message per row of ``pairs``, read from the concatenated
    states of its cells and summed (or averaged) onto its first cell."""
    n, d = h.shape
    inputs = h[pairs].reshape(len(pairs), pairs.shape[1] * d)
    out = np.zeros((n, d))
    np.add.at(out, pairs[:, 0],
              _pairwise_affine(inputs, weights, name, config.activation))
    if config.aggregation == "mean":
        counts = np.bincount(pairs[:, 0], minlength=n)
        nonzero = counts > 0
        out[nonzero] /= counts[nonzero, None]
    return out


def pairwise_forward(sub, weights, config):
    """Final state rows, in ``sub.all_cells()`` order, of the pass that
    multiplies one concatenated row per pair and, in stage 1, updates
    every cell and then keeps the 2-cells' states."""
    inc = _Incidence(sub)
    h = init_states(sub, state_dim=config.state_dim).states
    kind = config.activation
    skeleton_coface = inc.coface[inc.dims[inc.coface[:, 1]] == 1]
    low = inc.dims <= 1
    for layer in range(config.layers):
        prefix = f"layer{layer}"
        updated = _pairwise_affine(np.concatenate([
            h,
            _pairwise_messages(h, inc.face, weights, f"{prefix}.face", config),
            _pairwise_messages(h, skeleton_coface, weights,
                               f"{prefix}.coface", config),
        ], axis=1), weights, f"{prefix}.update", kind)
        h = np.where(low[:, None], updated, h)
    return _pairwise_affine(np.concatenate([
        h,
        _pairwise_messages(h, inc.face, weights, "final.face", config),
        _pairwise_messages(h, inc.coface, weights, "final.coface", config),
        _pairwise_messages(h, inc.upper, weights, "final.upper", config),
    ], axis=1), weights, "final.update", kind)
