"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tape records every operation of one forward pass in creation order;
node inputs always point to strictly earlier nodes, so the record is
already topologically sorted and ``backward`` is a single deterministic
reverse sweep. Tapes are rebuilt per batch; tensors are read-only after
creation and safe to share across threads.

A tensor holds its tape through a weak reference, so tape and nodes form
no reference cycle and a dropped tape is freed at once rather than at the
next cyclic garbage collection. Leaves bind float64 C-contiguous arrays as
read-only views without copying; the caller must not write to such an
array while a tape that binds it is in use.

The ops used by training act on the last two axes, so one op body serves
a single network's [m, n] operands and an ensemble's stacked [E, m, n]
operands alike: every member slice makes the same numpy and BLAS calls
as the 2-D case and rounds exactly as it would alone.
"""

from __future__ import annotations

import weakref
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DataError, ShapeError

_DEBUG = False


def set_debug(flag: bool) -> None:
    """When enabled, every op result is checked for NaN/Inf."""
    global _DEBUG
    _DEBUG = bool(flag)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _f64_view(data) -> np.ndarray:
    """Read-only float64 C-contiguous array: a view when ``data`` already is
    one, a converted copy otherwise."""
    if isinstance(data, np.ndarray) and data.dtype == np.float64 \
            and data.flags.c_contiguous:
        return _freeze(data.view()) if data.flags.writeable else data
    return _freeze(np.array(data, dtype=np.float64, order="C"))


def _checked_f64(data) -> np.ndarray:
    arr = _f64_view(data)
    if not np.isfinite(arr).all():
        raise DataError("tensor creation: non-finite entries")
    return arr


class Tensor:
    """Read-only float64 array, optionally recorded as a node on a Tape."""

    __slots__ = ("data", "_tape", "node_id", "parents", "vjps", "op")

    def __init__(self, data: np.ndarray, node_id: Optional[int] = None,
                 parents: tuple = (), vjps: tuple = (), op: str = "leaf"):
        self.data = data
        self._tape = None
        self.node_id = node_id
        self.parents = parents
        self.vjps = vjps
        self.op = op

    @property
    def tape(self) -> Optional["Tape"]:
        """The tape that recorded this tensor; None for constants and once
        the tape has been dropped."""
        return self._tape() if self._tape is not None else None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"


class Tape:
    """Ordered op record for one forward pass plus the grads of its backward."""

    __slots__ = ("nodes", "grads", "_param_ids", "_ref", "__weakref__")

    def __init__(self):
        self.nodes: list[Tensor] = []
        self.grads: list[Optional[np.ndarray]] = []
        self._param_ids: dict[str, int] = {}
        self._ref = weakref.ref(self)

    def _add(self, t: Tensor) -> Tensor:
        t.node_id = len(self.nodes)
        t._tape = self._ref
        self.nodes.append(t)
        self.grads.append(None)
        return t

    def leaf(self, data, name: Optional[str] = None) -> Tensor:
        """Register an input or parameter as a read-only view (copied only
        when not float64 C-contiguous); rejects non-finite entries."""
        return self._leaf(_checked_f64(data), name)

    def param(self, data: np.ndarray, name: str) -> Tensor:
        """Bind a parameter like ``leaf`` but without the finite check.

        Parameters are checked where they are made: ``init_params``,
        ``load_checkpoint`` and each Adam step.
        """
        return self._leaf(_f64_view(data), name)

    def _leaf(self, arr: np.ndarray, name: Optional[str]) -> Tensor:
        t = self._add(Tensor(arr))
        if name is not None:
            if name in self._param_ids:
                raise ContractError(f"duplicate parameter name on tape: {name}")
            self._param_ids[name] = t.node_id
        return t

    def backward(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Reverse accumulation from a scalar loss.

        Populates ``grads`` for every node reachable from the loss and
        returns gradients for all named parameters (zeros if unreached).
        """
        if loss._tape is not self._ref:
            raise ContractError("loss tensor does not belong to this tape")
        if loss.data.shape != ():
            raise ContractError("backward requires a scalar loss node")
        ref, nodes = self._ref, self.nodes
        grads = self.grads = [None] * len(nodes)
        grads[loss.node_id] = np.ones(())
        for nid in range(loss.node_id, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            node = nodes[nid]
            for parent, vjp in zip(node.parents, node.vjps):
                if parent._tape is not ref:
                    continue  # constant input: no gradient tracked
                contrib = vjp(g)
                pid = parent.node_id
                # never updated in place, so a contribution may be stored as is
                grads[pid] = contrib if grads[pid] is None else grads[pid] + contrib
        return {
            name: (grads[nid] if grads[nid] is not None
                   else np.zeros_like(nodes[nid].data))
            for name, nid in self._param_ids.items()
        }

    def grad(self, t: Tensor) -> Optional[np.ndarray]:
        if t._tape is not self._ref:
            raise ContractError("tensor does not belong to this tape")
        return self.grads[t.node_id]


def constant(data) -> Tensor:
    """Tensor outside any tape; participates in ops but gets no gradient."""
    return Tensor(_checked_f64(data), op="const")


def _find_tape(parents: Sequence[Tensor]) -> Optional[Tape]:
    ref = None
    for p in parents:
        if p._tape is None:
            continue
        if ref is None:
            ref = p._tape
        elif ref is not p._tape:
            raise ContractError("operands belong to different tapes")
    return ref() if ref is not None else None


def record_op(op: str, value: np.ndarray, parents: Sequence[Tensor],
              vjps: Sequence[Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """Record one op result; constant-only inputs yield an unrecorded constant."""
    if _DEBUG and not np.isfinite(value).all():
        raise DataError(f"non-finite result in op {op!r}")
    tape = _find_tape(parents)
    out = Tensor(_freeze(value), parents=tuple(parents), vjps=tuple(vjps), op=op)
    if tape is None:
        return out
    return tape._add(out)


# ---------------------------------------------------------------------------
# elementary operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    value = a.data @ b.data
    return record_op("matmul", value, (a, b),
                     (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Fully connected layer ``x @ w.T (+ b)`` as one tape node.

    Makes the same BLAS calls as ``add_bias(matmul(x, transpose(w)), b)``,
    so values and gradients match that chain bit for bit. Stacked operands
    ([E, m, in] inputs, [E, out, in] weights, [E, out] biases) apply each
    member's weights to its own inputs.
    """
    xd, wd = x.data, w.data
    if xd.ndim < 2 or wd.ndim != xd.ndim or xd.shape[:-2] != wd.shape[:-2]:
        raise ShapeError(f"linear needs matching 2-D or stacked operands, "
                         f"got {xd.shape} and {wd.shape}")
    if xd.shape[-1] != wd.shape[-1]:
        raise ShapeError(f"linear inner dims differ: {xd.shape} x {wd.shape}.T")
    if b is not None and b.data.shape != wd.shape[:-1]:
        raise ShapeError(f"linear bias shape {b.data.shape} does not match {wd.shape}")
    wt = np.ascontiguousarray(wd.swapaxes(-1, -2))
    value = xd @ wt
    vjps = [lambda g: g @ wt.swapaxes(-1, -2),
            lambda g: np.ascontiguousarray((xd.swapaxes(-1, -2) @ g).swapaxes(-1, -2))]
    if b is None:
        return record_op("linear", value, (x, w), vjps)
    # np.add.reduce is ndarray.sum without its Python wrapper
    vjps.append(lambda g: np.add.reduce(g, axis=-2))
    return record_op("linear", value + b.data[..., None, :], (x, w, b), vjps)


def transpose(x: Tensor) -> Tensor:
    if x.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D operand, got {x.shape}")
    return record_op("transpose", np.ascontiguousarray(x.data.T), (x,),
                     (lambda g: np.ascontiguousarray(g.T),))


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    return record_op("add", a.data + b.data, (a, b),
                     (lambda g: g, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub shapes differ: {a.shape} vs {b.shape}")
    return record_op("sub", a.data - b.data, (a, b),
                     (lambda g: g, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes differ: {a.shape} vs {b.shape}")
    return record_op("mul", a.data * b.data, (a, b),
                     (lambda g: g * b.data, lambda g: g * a.data))


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return record_op("scale", x.data * c, (x,), (lambda g: g * c,))


def add_const(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return record_op("add_const", x.data + c, (x,), (lambda g: g,))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-broadcast bias: [..., m, n] + [..., n]."""
    xs = x.data.shape
    if len(xs) < 2 or b.data.shape != xs[:-2] + xs[-1:]:
        raise ShapeError(f"add_bias shapes incompatible: {xs} + {b.data.shape}")
    return record_op("add_bias", x.data + b.data[..., None, :], (x, b),
                     (lambda g: g, lambda g: np.add.reduce(g, axis=-2)))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0  # subgradient at 0 is 0
    return record_op("relu", np.maximum(x.data, 0.0), (x,),
                     (lambda g: g * mask,))


def sqrt(x: Tensor) -> Tensor:
    if (x.data < 0).any():
        raise ContractError("sqrt of negative entries")
    value = np.sqrt(x.data)
    return record_op("sqrt", value, (x,), (lambda g: g * (0.5 / value),))


def concat(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """Join along one of the last two axes (-1 or -2; 1 or 0 for 2-D)."""
    if a.ndim < 2 or a.ndim != b.ndim:
        raise ShapeError(f"concat needs operands of equal rank >= 2, "
                         f"got {a.shape} and {b.shape}")
    axis = axis - a.ndim if axis >= 0 else axis
    if axis not in (-1, -2):
        raise ShapeError("concat joins along one of the last two axes")
    other = -3 - axis  # the other one of the last two axes
    if a.shape[:-2] != b.shape[:-2] or a.shape[other] != b.shape[other]:
        raise ShapeError(f"concat shapes incompatible: {a.shape} and {b.shape}")
    na = a.shape[axis]
    if axis == -1:
        vjps = (lambda g: g[..., :na], lambda g: g[..., na:])
    else:
        vjps = (lambda g: g[..., :na, :], lambda g: g[..., na:, :])
    return record_op("concat", np.concatenate([a.data, b.data], axis=axis),
                     (a, b), vjps)


def split(x: Tensor, sizes: Sequence[int], axis: int = 1) -> list[Tensor]:
    if axis not in (0, 1) or x.ndim != 2:
        raise ShapeError("split supports 2-D tensors along axis 0 or 1")
    if sum(sizes) != x.shape[axis]:
        raise ShapeError(f"split sizes {sizes} do not cover dim {x.shape[axis]}")
    outs = []
    offset = 0
    for size in sizes:
        lo, hi = offset, offset + size
        piece = x.data[:, lo:hi] if axis == 1 else x.data[lo:hi, :]

        def make_vjp(lo=lo, hi=hi):
            def vjp(g):
                full = np.zeros_like(x.data)
                if axis == 1:
                    full[:, lo:hi] = g
                else:
                    full[lo:hi, :] = g
                return full
            return vjp

        outs.append(record_op("split", np.ascontiguousarray(piece), (x,),
                              (make_vjp(),)))
        offset += size
    return outs


def mean_center_rows(x: Tensor) -> Tensor:
    """Subtract each row's mean from its entries; rows then sum to zero."""
    if x.ndim < 2:
        raise ShapeError(f"mean_center_rows needs a 2-D or stacked tensor, got {x.shape}")

    def center(a):
        # ndarray.mean's own sum-then-divide, without its Python wrapper
        return a - np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]

    # the centering map is symmetric, so the vjp is the map itself
    return record_op("mean_center_rows", center(x.data), (x,), (center,))


def sum_all(x: Tensor) -> Tensor:
    return record_op("sum_all", np.asarray(np.add.reduce(x.data, axis=None)), (x,),
                     (lambda g: np.full(x.shape, float(g)),))


def mean_all(x: Tensor) -> Tensor:
    """Mean over the last two axes: a scalar for a 2-D tensor, one mean
    per member for a stacked [E, m, n] one."""
    shape = x.data.shape
    if len(shape) < 2:
        raise ShapeError(f"mean_all needs a 2-D or stacked tensor, got {shape}")
    n = shape[-2] * shape[-1]
    inv = 1.0 / n
    # == mean() per member: one pairwise sum over its m * n entries
    value = np.asarray(np.add.reduce(x.data, axis=(-2, -1)) / n)

    def vjp(g):
        out = np.empty(shape)
        out[...] = (g * inv)[..., None, None]
        return out

    return record_op("mean_all", value, (x,), (vjp,))
