"""Discrete calculus in the flattened chart (a, x), a = ln t.

The cone gradient (t d/dt, d/dx) and cone Hessian coincide with the plain
gradient and Hessian of the flattened field u(a, x) = u(e^a, x), and the
measure dt/t dx is Lebesgue in (a, x).  Everything here is therefore
ordinary second-order finite differences and trapezoidal quadrature on a
tensor grid; the t -> 0 degeneracy never enters a stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from conepde.geometry import ConeDomain

__all__ = [
    "LogGrid",
    "GridFunction",
    "first_diff",
    "second_diff",
    "gradient_field",
    "hessian_field",
    "hoelder_norm",
    "write_gridfunction",
    "read_gridfunction",
]


class StencilPattern(NamedTuple):
    """The sparsity pattern of a sum of the grid's difference operators
    with node coefficients on the interior block (``LogGrid.interior_pattern``).

    ``weights`` are ``LogGrid.interior_taps``' weights.  For coefficient
    columns c (one interior row per node in dissection order, one column per
    operator), the products ``(c @ weights).ravel()`` taken at ``gather``
    are the CSC data for ``indices`` and ``indptr``: the products in
    boundary columns are left out, the rest come by column, rows ascending.
    The arrays are read-only, since every matrix built on them shares them."""

    weights: np.ndarray
    gather: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


@dataclass(frozen=True, eq=False)
class LogGrid:
    """Uniform tensor grid on [a_min, a_max] x base in the log chart."""

    domain: ConeDomain
    a: np.ndarray
    xs: tuple

    def __post_init__(self):
        for nodes in (self.a, *self.xs):
            if nodes.size < 3:
                raise ValueError("need at least 3 nodes per axis")
            steps = np.diff(nodes)
            if not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-15):
                raise ValueError("grid axes must be uniform")

    @classmethod
    def build(cls, domain: ConeDomain, counts) -> "LogGrid":
        counts = tuple(int(c) for c in counts)
        if len(counts) != domain.n:
            raise ValueError(f"need {domain.n} node counts, got {len(counts)}")
        a = np.linspace(domain.a_min, domain.a_max, counts[0])
        xs = tuple(
            np.linspace(domain.base_lo[k], domain.base_hi[k], counts[1 + k])
            for k in range(domain.n - 1)
        )
        return cls(domain=domain, a=a, xs=xs)

    @property
    def n(self) -> int:
        return self.domain.n

    @property
    def axes(self) -> tuple:
        return (self.a, *self.xs)

    @property
    def shape(self) -> tuple:
        return tuple(ax.size for ax in self.axes)

    @property
    def h(self) -> tuple:
        return tuple(float(ax[1] - ax[0]) for ax in self.axes)

    @cached_property
    def mesh(self) -> tuple:
        """Meshgrid arrays (A, X1, ...) of shape ``shape`` (ij indexing)."""
        return tuple(np.meshgrid(*self.axes, indexing="ij"))

    @cached_property
    def t_field(self) -> np.ndarray:
        return np.exp(self.mesh[0])

    @cached_property
    def log_points(self) -> np.ndarray:
        """All node coordinates, shape (N, n), row-major with the a-axis slowest."""
        return np.stack([m.ravel() for m in self.mesh], axis=1)

    def same_nodes(self, other: "LogGrid") -> bool:
        """Whether both grids have the same nodes on every axis."""
        return self is other or (self.shape == other.shape and all(
            np.array_equal(a, b) for a, b in zip(self.axes, other.axes)))

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        """True at nodes on any grid face (including the artificial one)."""
        mask = np.ones(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.n] = False
        return mask

    @cached_property
    def analytic_boundary_mask(self) -> np.ndarray:
        """True at nodes on faces of the analytic boundary.

        The face a = a_min is the artificial truncation and is excluded
        unless the domain declares its bottom a true boundary; its edges
        lie on the lateral faces and stay in.
        """
        mask = self.boundary_mask.copy()
        mask[(0,) + (slice(1, -1),) * (self.n - 1)] = self.domain.bottom_is_boundary
        return mask

    @cached_property
    def artificial_bottom_mask(self) -> np.ndarray:
        """True on the face a = a_min unless it is a true boundary."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[0] = not self.domain.bottom_is_boundary
        return mask

    def stencil_matrix(self, axis: int, stencil: Callable) -> np.ndarray:
        """The 1D stencil along one axis as a dense matrix on that axis's nodes."""
        return stencil(np.eye(self.shape[axis]), 0, self.h[axis])

    @cached_property
    def stencil_weights(self) -> dict:
        """The weights of ``first_diff`` and ``second_diff`` per axis, read
        off ``stencil_matrix``: ``stencil_weights[first_diff][k]`` is (band,
        cols, weights), the (column offset, weight) pairs of every interior
        row, then the columns and the weights of the first and of the last
        row as (entry, face) and (entry, face, 1) arrays, nonzero weights
        only, columns ascending (the two face rows have as many entries)."""

        def split(M):
            cols = np.array([np.flatnonzero(M[0]), np.flatnonzero(M[-1])]).T
            band = tuple((int(j) - 1, float(M[1, j])) for j in np.flatnonzero(M[1]))
            return band, cols, np.stack([M[0, cols[:, 0]], M[-1, cols[:, 1]]], axis=1)[..., None]

        return {s: tuple(split(self.stencil_matrix(k, s)) for k in range(self.n))
                for s in (first_diff, second_diff)}

    def apply_stencil(self, values: np.ndarray, axis: int, stencil: Callable) -> np.ndarray:
        """``stencil`` (``first_diff`` or ``second_diff``) along one axis of
        node values, by slicing with ``stencil_weights``.  Each node sums its
        products in ascending column order from +0, as a CSR product with
        the stencil's matrix on the flattened values does, to the bit."""
        band, cols, weights = self.stencil_weights[stencil][axis]
        m, s = self.shape[axis], math.prod(self.shape[axis + 1:])
        v = values.ravel()
        out = np.zeros(v.size)
        # the band runs over the flat span from the first to the last face
        # in shifts by the stride; the two face rows are then redone together
        span = out[s:-s]
        for d, w in band:
            span += w * v[s + d * s:v.size - s + d * s]
        v = v.reshape(-1, m, s)
        terms = v[:, cols] * weights
        faces = np.zeros(terms[:, 0].shape)
        for term in terms.swapaxes(0, 1):
            faces += term
        out.reshape(-1, m, s)[:, ::m - 1] = faces
        return out.reshape(values.shape)

    @cached_property
    def eigenbases(self) -> tuple:
        """(eigenvalues, orthonormal eigenvectors) per axis of the interior
        block of ``second_diff``: its rows and columns at the nodes off both
        faces, the symmetric tridiagonal [1, -2, 1] / h^2."""
        return tuple(np.linalg.eigh(self.stencil_matrix(k, second_diff)[1:-1, 1:-1])
                     for k in range(self.n))

    @cached_property
    def dissection_order(self) -> np.ndarray:
        """Flat indices of the interior nodes in geometric nested-dissection
        order (George, SIAM J. Numer. Anal. 10, 1973): the interior box is
        split at the middle plane of its longest axis, both halves are
        numbered recursively and then the plane, down to boxes whose longest
        axis has fewer than 3 nodes.  Every stencil on an interior row,
        the mixed Hessian entries included, reaches at most one step along
        each axis, so the plane decouples the two halves.

        A box's numbering depends only on its shape in its current axis
        order, so each shape is numbered once, as positions in its own
        row-major box, and a parent reads its children's numberings through
        the row-major positions of its two halves."""
        local = {}

        def number(shape):
            if shape not in local:
                axis = int(np.argmax(shape))
                box = np.arange(math.prod(shape)).reshape(shape)
                if shape[axis] < 3:
                    local[shape] = box.ravel()
                else:
                    box = np.moveaxis(box, axis, 0)
                    mid = box.shape[0] // 2
                    halves = [box[:mid], box[mid + 1:]]
                    local[shape] = np.concatenate(
                        [h.ravel()[number(h.shape)] for h in halves] + [box[mid].ravel()])
            return local[shape]

        inner = np.arange(math.prod(self.shape)).reshape(self.shape)[(slice(1, -1),) * self.n]
        return inner.ravel()[number(inner.shape)]

    @cached_property
    def interior_taps(self) -> tuple:
        """(offsets, weights), read-only: ``weights[t, o]`` is op_t's weight
        at the flat offset ``offsets[o]`` (ascending) on an interior row, over
        the Hessian entries (k, l) with k <= l in row-major order (second
        differences on the diagonal, D_k D_l off it), then the first
        differences D_k.  Each is its 1D bands translated along the grid, so
        its offsets d stride_k (+ d' stride_l) and weights w_k (w_k w_l) are
        the bands' own.  It depends on the grid alone: built once per grid."""
        strides = [math.prod(self.shape[k + 1:]) for k in range(self.n)]

        def band(k, stencil):
            return [(d * strides[k], w) for d, w in self.stencil_weights[stencil][k][0]]

        taps = []
        for k in range(self.n):
            taps.append(band(k, second_diff))
            taps += [[(dk + dl, wk * wl) for dk, wk in band(k, first_diff)
                      for dl, wl in band(l, first_diff)] for l in range(k + 1, self.n)]
        taps += [band(k, first_diff) for k in range(self.n)]
        offsets = np.unique([d for tap in taps for d, _ in tap])
        weights = np.zeros((len(taps), offsets.size))
        for t, tap in enumerate(taps):
            d, w = zip(*tap)
            weights[t, np.searchsorted(offsets, d)] = w
        for arr in (offsets, weights):
            arr.flags.writeable = False
        return offsets, weights

    @cached_property
    def interior_pattern(self) -> StencilPattern:
        """The sparsity pattern of sum_t diag(c_t) op_t over the operators of
        ``interior_taps`` on the interior block, rows and columns in
        ``dissection_order``, built at its first read; see ``StencilPattern``."""
        offsets, weights = self.interior_taps
        order = self.dissection_order
        # boundary nodes keep rank -1: their products are data and are dropped
        rank = np.full(math.prod(self.shape), -1)
        rank[order] = np.arange(order.size)
        # column c is reached from row rank[order[c] - offset] by that
        # offset's product; sorting each column's rows puts the products in
        # CSC order, by column, rows ascending, with the boundary's -1 first
        rows = rank[order[:, None] - offsets]
        by_row = np.argsort(rows, axis=1)
        rows = np.take_along_axis(rows, by_row, axis=1)
        inner = rows >= 0
        gather = (rows * offsets.size + by_row)[inner]
        index = np.int32 if max(gather.size, order.size) < 2**31 else np.int64
        indices = rows[inner].astype(index)
        indptr = np.zeros(order.size + 1, dtype=index)
        np.cumsum(inner.sum(axis=1), out=indptr[1:])
        for arr in (gather, indices, indptr):
            arr.flags.writeable = False
        return StencilPattern(weights, gather, indices, indptr)


class GridFunction:
    """Scalar field sampled on a LogGrid, values row-major with a slowest."""

    def __init__(self, grid: LogGrid, values: np.ndarray, check_finite: bool = True):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if check_finite and not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        self.grid = grid
        self.values = values

    @classmethod
    def from_callable(cls, grid: LogGrid, fn: Callable) -> "GridFunction":
        """Sample fn(A, (X1, ...)) given meshgrid arrays in the log chart."""
        A = grid.mesh[0]
        vals = np.broadcast_to(fn(A, grid.mesh[1:]), grid.shape).astype(float)
        return cls(grid, vals.copy())


# ---------------------------------------------------------------------------
# stencils
#
# first_diff and second_diff define the difference stencils once.  The grid
# reads each one's weights per axis off its matrix (LogGrid.stencil_weights:
# the interior band and the two face rows) and applies them by slicing
# (LogGrid.apply_stencil); every derivative in the package is one such
# application or, off the Hessian's diagonal, two.  No sparse matrix is
# built.

def first_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order first derivative: central inside, one-sided at the faces."""
    return np.gradient(values, h, axis=axis, edge_order=2)


def second_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order pure second derivative along one axis."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    if v.shape[0] >= 4:
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    else:
        out[0] = out[1]
        out[-1] = out[-2]
    return np.moveaxis(out, 0, axis)


def gradient_field(u: GridFunction) -> np.ndarray:
    """Discrete cone gradient at every node, shape (n, *grid.shape).

    Component 0 is the radial derivative t du/dt = du/da.  Face nodes use
    one-sided second-order stencils; ``grid.boundary_mask`` flags them.
    """
    grid = u.grid
    return np.stack([grid.apply_stencil(u.values, k, first_diff) for k in range(grid.n)])


def hessian_field(u: GridFunction, g: np.ndarray | None = None) -> np.ndarray:
    """Discrete cone Hessian at every node, shape (n, n, *grid.shape).

    The diagonal holds the second differences; the (k, l) entry off it is
    D_k applied to D_l u, the two axes' first differences composed, and is
    stored at (l, k) as well, so the matrix is symmetric by construction.
    A caller that holds u's ``gradient_field`` passes it as ``g``, whose
    components are those D_l u, so they are not formed twice.
    """
    grid = u.grid
    out = np.empty((grid.n, grid.n) + grid.shape)
    for l in range(grid.n):
        out[l, l] = grid.apply_stencil(u.values, l, second_diff)
        if l:
            d_l = grid.apply_stencil(u.values, l, first_diff) if g is None else g[l]
            for k in range(l):
                out[k, l] = out[l, k] = grid.apply_stencil(d_l, k, first_diff)
    return out


# ---------------------------------------------------------------------------
# quadrature and the Hoelder norm

def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    h = nodes[1] - nodes[0]
    w = np.full(nodes.size, h)
    w[0] = w[-1] = 0.5 * h
    return w


def quadrature_weights(grid: LogGrid) -> np.ndarray:
    """Tensor trapezoid weights for the measure dt/t dx (Lebesgue in (a, x))."""
    w = _trapezoid_weights(grid.a)
    out = w
    for xn in grid.xs:
        out = np.multiply.outer(out, _trapezoid_weights(xn))
    return out


# a cell holds at most this many nodes and a group at most this many cells,
# as many per axis (sides 3 in 2D, 2 in 3D); an exact batch stacks cell
# pairs up to _BATCH quotients, and the search bounds the cell pairs of its
# live groups _CHUNK at a time
_CELL_NODES, _BATCH, _CHUNK = 9, 2**13, 2**13


def _cell_side(n: int) -> int:
    """The largest side b with b^n <= _CELL_NODES (3 in 2D, 2 in 3D)."""
    b = 2
    while (b + 1) ** n <= _CELL_NODES:
        b += 1
    return b


def _tiles(a: np.ndarray, side: int, **pad) -> np.ndarray:
    """``a`` split into tiles of ``side`` entries per axis, each axis padded
    at its end to a multiple of it by ``np.pad`` with ``pad``: one row per
    tile, the tiles and their entries each in row-major order."""
    a = np.pad(a, [(0, -m % side) for m in a.shape], **pad)
    split = [x for m in a.shape for x in (m // side, side)]
    order = [*range(0, len(split), 2), *range(1, len(split), 2)]
    return a.reshape(split).transpose(order).reshape(math.prod(split[::2]), -1)


def _cells(v: np.ndarray, axes) -> tuple:
    """The grid split into cells of side ``_cell_side(n)`` (``_tiles``), each
    axis padded by repeating its last node, which adds only zero-distance
    pairs and copies of real pairs.  Returns the (cell, node of the cell)
    arrays of the values and of each axis coordinate, and per axis the
    padded coordinates as a (cells along the axis, side) array.
    """
    side = _cell_side(len(axes))
    cell_x = [_tiles(np.broadcast_to(c.reshape([-1 if j == k else 1 for j in range(v.ndim)]),
                                     v.shape), side, mode="edge")
              for k, c in enumerate(axes)]
    return (_tiles(v, side, mode="edge"), cell_x,
            [_tiles(c, side, mode="edge") for c in axes])


def _groups(boxes) -> tuple:
    """The cells of ``_cells`` (with these boxes) grouped ``_cell_side(n)``
    per axis in the same way, the cell grid padded by an empty cell whose
    index is the cell count.  Returns the (group, member) cell indices and
    per axis the first and the last coordinate of every member, padded by
    the axis's last cell, as two (groups along the axis, side) arrays.
    """
    side, counts = _cell_side(len(boxes)), [box.shape[0] for box in boxes]
    cells = np.arange(math.prod(counts)).reshape(counts)
    return (_tiles(cells, side, constant_values=cells.size),
            [_tiles(box[:, 0], side, mode="edge") for box in boxes],
            [_tiles(box[:, -1], side, mode="edge") for box in boxes])


def _gap2(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The squared gap between the intervals [lo, hi] of every pair."""
    gap = np.maximum(np.maximum(lo[None, :] - hi[:, None], lo[:, None] - hi[None, :]), 0.0)
    return gap * gap


def _bound(rise: np.ndarray, d2: np.ndarray, h2: float, rho: float) -> np.ndarray:
    """rise / d^rho at d = sqrt(max(d2, h2)), h2 being the squared grid step
    of the nearest distinct nodes; a relative 1e-12 on top keeps the pruning
    from resting on ``**`` being monotone to the last ulp.  Works in place
    on both arrays and returns rise."""
    np.maximum(d2, h2, out=d2)
    np.sqrt(d2, out=d2)
    d2 **= rho
    rise /= d2
    rise *= 1.0 + 1e-12
    return rise


def _cell_bounds(top: np.ndarray, bottom: np.ndarray, lo, hi, h2: float,
                 rho: float) -> np.ndarray:
    """bound[i, j] at least every quotient |v(z) - v(w)| / d(z, w)^rho of a
    node z of cell i and a node w of cell j at d(z, w) > 0, for cells with
    these largest and smallest values and per axis these first and last
    coordinates: the largest rise between the cells over the squared gap of
    their coordinate boxes, summed in axis order (``_bound``).  It serves
    cells and groups alike, so a group's bound is at least the bounds of
    its member pairs.
    """
    n, C = len(lo), top.size
    d2 = 0.0
    for k in range(n):
        d2 = d2 + _gap2(lo[k], hi[k]).reshape([lo[k].size if j == k else 1 for j in range(n)] * 2)
    rise = top[None, :] - bottom[:, None]
    return _bound(np.maximum(rise, rise.T), d2.reshape(C, C), h2, rho)


def _max_quotient(vz, vw, xz, xw, h2: float, rho: float, out: np.ndarray) -> float:
    """The largest quotient |v(z) - v(w)| / d(z, w)^rho of a node z of a row
    of ``vz`` (coordinates ``xz``, one array per axis) and a node w of the
    same row of ``vw`` (``xw``), in the (3, rows, z nodes, w nodes) buffer
    ``out``.  Every quotient is formed as in the all-pairs definition: the
    squared coordinate gaps summed in axis order, its square root raised to
    rho.  A zero-distance pair joins a node to itself or its padded copy, so
    its rise is 0 (the values are finite) and any positive distance leaves
    it out; h2 changes no other pair's distance."""
    d, q, g = out
    for k, (a, b) in enumerate(zip(xz, xw)):
        gap = g if k else d
        np.subtract(a[:, :, None], b[:, None, :], out=gap)
        np.multiply(gap, gap, out=gap)
        if k:
            d += gap
    np.subtract(vw[:, None, :], vz[:, :, None], out=q)
    np.abs(q, out=q)
    np.maximum(d, h2, out=d)
    np.sqrt(d, out=d)
    # the operator, not np.power: like the oracle's ``** rho`` it takes
    # numpy's scalar-power fast paths (sqrt at rho = 0.5, twice as fast)
    d **= rho
    q /= d
    return float(q.max())


def _hoelder_search(v: np.ndarray, axes, rho: float) -> tuple:
    """The rho-Hoelder seminorm of the values v on the tensor grid with
    these axis coordinates, and the number of node-pair quotients formed.

    A two-level branch and bound (Gray & Moore, NIPS 2000) over the cells
    of ``_cells`` and their groups (``_groups``).  The best quotient starts
    from the exact quotients of every group's largest node against every
    group's smallest.  The unordered group pairs, self pairs included,
    whose bound (``_cell_bounds``) beats the best found so far are taken
    largest bound first, _CHUNK cell-pair bounds at a time: each chunk
    bounds the cell pairs of its groups (i <= j within a self pair, empty
    cells at -inf) and evaluates those that beat the best exactly
    (``_max_quotient``), largest bound first, in batches of stacked cells,
    until the next bound does not.  Every quotient is formed as in the
    all-pairs definition, so the result is the all-pairs maximum to the bit.
    """
    n = len(axes)
    cell_v, cell_x, boxes = _cells(v, axes)
    B = cell_v.shape[1]
    h2 = min(float(np.min(np.diff(c) ** 2)) for c in axes)
    members, lo, hi = _groups(boxes)
    top = np.append(cell_v.max(axis=1), -np.inf)[members]
    bottom = np.append(cell_v.min(axis=1), np.inf)[members]
    G, K = _cell_side(n), members.shape[1]
    shape = [c.shape[0] for c in lo]

    # every group's largest node, as (cell, node of the cell), against
    # every group's smallest
    groups = members.shape[0]
    z = members[np.arange(groups), top.argmax(axis=1)]
    w = members[np.arange(groups), bottom.argmin(axis=1)]
    z, w = (z, cell_v[z].argmax(axis=1)), (w, cell_v[w].argmin(axis=1))
    best = _max_quotient(cell_v[z][None], cell_v[w][None], [x[z][None] for x in cell_x],
                         [x[w][None] for x in cell_x], h2, rho, np.empty((3, 1, groups, groups)))
    pairs = groups ** 2

    bound = _cell_bounds(top.max(axis=1), bottom.min(axis=1), [c[:, 0] for c in lo],
                         [c[:, -1] for c in hi], h2, rho)
    live = np.flatnonzero(np.triu(bound > best))
    live = live[np.argsort(-bound.flat[live], kind="stable")]
    live_bound = bound.flat[live]
    gi, gj = np.divmod(live, groups)
    # squared gaps between the cells of two groups along each axis, as
    # (group, group, member, member) blocks
    blocks = [_gap2(a.ravel(), b.ravel()).reshape(m, G, m, G).transpose(0, 2, 1, 3)
              for a, b, m in zip(lo, hi, shape)]
    per_axis = [np.unravel_index(g, shape) for g in (gi, gj)]
    lower = np.tril(np.ones((K, K), dtype=bool), -1)
    per = max(1, _CHUNK // (K * K))
    batch = max(1, _BATCH // (B * B))
    bufs = np.empty((3, batch, B, B))
    for start in range(0, live.size, per):
        if live_bound[start] <= best:
            break
        take = start + np.flatnonzero(live_bound[start:start + per] > best)
        i, j = gi[take], gj[take]
        d2 = 0.0
        for k, blk in enumerate(blocks):
            d2 = d2 + blk[per_axis[0][k][take], per_axis[1][k][take]].reshape(
                [-1] + [G if m == k else 1 for m in range(n)] * 2)
        rise = np.maximum(top[j][:, None, :] - bottom[i][:, :, None],
                          top[i][:, :, None] - bottom[j][:, None, :])
        cell_bound = _bound(rise, d2.reshape(-1, K, K), h2, rho)
        cell_bound[(i == j)[:, None, None] & lower] = -np.inf
        p, a, b = np.nonzero(cell_bound > best)
        cell_bound = cell_bound[p, a, b]
        order = np.argsort(-cell_bound, kind="stable")
        ci, cj, cell_bound = members[i[p], a][order], members[j[p], b][order], cell_bound[order]
        for s in range(0, ci.size, batch):
            if cell_bound[s] <= best:
                break
            zc, wc = ci[s:s + batch], cj[s:s + batch]
            q = _max_quotient(cell_v[zc], cell_v[wc], [x[zc] for x in cell_x],
                              [x[wc] for x in cell_x], h2, rho, bufs[:, :zc.size])
            best, pairs = max(best, q), pairs + zc.size * B * B
    return best, pairs


def hoelder_norm(u: GridFunction, rho: float) -> float:
    """sup |u| plus the rho-Hoelder seminorm in the cone metric.

    The seminorm is the exact maximum of |u(z) - u(w)| / d(z, w)^rho over
    all node pairs, found by a branch and bound over groups of cells and
    their cell pairs that forms only the quotients of the cell pairs whose
    bound can beat the best one found (``_hoelder_search``).
    """
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must lie in (0, 1]")
    semi, _ = _hoelder_search(u.values, u.grid.axes, rho)
    return float(np.max(np.abs(u.values))) + semi


# ---------------------------------------------------------------------------
# file format

# the first header field of a binary file; a text file's is n, a number
_BINARY_TAG = "f8le"


def write_gridfunction(path, u: GridFunction) -> None:
    """Binary format: one text header line
    f8le,n,a_count,x_counts...,a_min,t_min,base_lo,base_hi,...,a_max
    followed by the row-major values (a-axis slowest) as little-endian
    IEEE-754 binary64, exactly 8 bytes per value, so a round trip is
    bit-exact and two writes of one field are byte-identical.
    """
    grid = u.grid
    dom = grid.domain
    head = [_BINARY_TAG, str(grid.n), str(grid.a.size)]
    head += [str(x.size) for x in grid.xs]
    head.append(f"{grid.a[0]:.17g}")
    head.append(f"{dom.t_min:.17g}")
    for k in range(grid.n - 1):
        head.append(f"{grid.xs[k][0]:.17g}")
        head.append(f"{grid.xs[k][-1]:.17g}")
    head.append(f"{grid.a[-1]:.17g}")
    with open(path, "wb") as fh:
        fh.write((",".join(head) + "\n").encode())
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def _read_header(line: str) -> tuple:
    """(n, counts, a_min, t_min, lo, hi, a_max) from the header line, naming
    the field that is missing or does not parse; a missing a_max reads 0."""
    fields = line.strip().split(",")

    def field(i, name, kind=float):
        if i >= len(fields):
            raise ValueError(f"grid-function header lacks field {name}")
        try:
            return kind(fields[i])
        except ValueError:
            raise ValueError(f"grid-function header field {name} does not parse: "
                             f"{fields[i]!r}") from None

    n = field(0, "n", int)
    if n < 2:
        raise ValueError(f"grid-function header field n must be >= 2, got {n}")
    if len(fields) > 3 * n + 2:
        raise ValueError(f"grid-function header has {len(fields)} fields, "
                         f"at most {3 * n + 2} for n = {n}")
    counts = [field(1 + k, f"x{k}_count" if k else "a_count", int) for k in range(n)]
    a_min, t_min = field(1 + n, "a_min"), field(2 + n, "t_min")
    lo = np.array([field(3 + n + 2 * k, f"base_lo{k + 1}") for k in range(n - 1)])
    hi = np.array([field(4 + n + 2 * k, f"base_hi{k + 1}") for k in range(n - 1)])
    a_max = field(3 * n + 1, "a_max") if len(fields) > 3 * n + 1 else 0.0
    return n, counts, a_min, t_min, lo, hi, a_max


def read_gridfunction(path) -> GridFunction:
    """The field stored at ``path``, in the binary format of
    ``write_gridfunction`` or, when the header's first field is not the tag
    ``f8le``, in the text format that preceded it: the header line without
    the tag, then one value per line.  A file whose content is rejected
    raises a ValueError that names the path."""
    try:
        with open(path, "rb") as fh:
            head = fh.readline()
            payload = fh.read() if head.split(b",", 1)[0] == _BINARY_TAG.encode() else None
        if payload is None:
            with open(path) as fh:
                header = _read_header(fh.readline())
                # one value per line, blank lines skipped: a line holding two
                # numbers fails to parse rather than reading as two values
                values = np.array([line for line in fh.read().split("\n") if line.strip()],
                                  dtype=float)
        else:
            header = _read_header(head.decode().split(",", 1)[1])
        n, counts, a_min, t_min, lo, hi, a_max = header
        domain = ConeDomain(n=n, base_lo=lo, base_hi=hi, t_min=t_min,
                            t_max=min(math.exp(a_max), 1.0))
        # the header axis endpoints are authoritative so the round trip is exact
        grid = LogGrid(
            domain=domain,
            a=np.linspace(a_min, a_max, counts[0]),
            xs=tuple(np.linspace(lo[k], hi[k], counts[1 + k]) for k in range(n - 1)),
        )
        if (values.size if payload is None else len(payload) / 8) != math.prod(grid.shape):
            raise ValueError("value count does not match the header grid shape")
        if payload is not None:
            # a writable copy in native byte order
            values = np.frombuffer(payload, "<f8").astype(float)
        return GridFunction(grid, values.reshape(grid.shape))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
