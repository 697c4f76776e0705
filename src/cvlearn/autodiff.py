"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tape records every operation of one forward pass in creation order;
node inputs always point to strictly earlier nodes, so the record is
already topologically sorted and ``backward`` is a single deterministic
reverse sweep. Tapes are rebuilt per batch; tensors are read-only after
creation and safe to share across threads.

Every array from outside the library binds through one rule,
``real_array``, which refuses ragged, complex, string and object input
and NaN or Inf with a DataError naming the argument. Data that gets no
gradient enters through ``constant``, which applies it, or through
``trusted_constant``, which binds data already checked where it was made
(a ``Dataset``'s read-only features and targets, rows gathered from
them, and a ``Model``'s parameters when nothing is differentiated)
without reading it a second time. An op over constants only records
nothing and keeps no parents or VJPs, so such a pass builds no graph.

A tensor holds its tape through a weak reference, so tape and nodes form
no reference cycle and a dropped tape is freed at once rather than at the
next cyclic garbage collection. ``Tape.param`` binds a float64 array in
C order as a read-only view without copying; the caller must not write
to such an array while a tape that binds it is in use.

The op set is the real ops the networks share: ``linear`` (``x @ w +
b``, the only real affine op, as one node over the one or two column
blocks of ``x``, a lone tensor being one; no op joins or splits arrays),
``mean_center_rows`` and ``mean_sq_diff`` (the squared error of ``mse``
and the Hilbert penalty). ReLU is no op of its own: an affine node
applies it in place to its fresh product (``record_op``'s ``relu``), and
backward masks the node's gradient by its output. An op of one concept
sits beside its caller and records through ``record_op``:
``transforms`` adds the Hilbert matmul, ``losses`` the softmax
cross-entropy and the penalised objective, and ``models`` cvnn's complex
layer and magnitude head. Each acts on the last two axes, so one op body
serves a single network's [m, n] operands and an ensemble's stacked
[E, m, n] operands alike: every member slice makes the same numpy and
BLAS calls as the 2-D case and rounds exactly as it would alone.

The forward products of ``linear`` and of cvnn's complex layer go
through ``matmul``: a product with at least ``_SPLIT_MACS`` multiply-adds
in each row half, called from a thread that may run on another CPU,
computes its upper rows on one new thread, pinned to those other CPUs,
and its lower rows on the caller's, both into the one output the whole
product would allocate. Each half is a BLAS call off OpenBLAS's
small-matrix path, whose rows have the bytes of the whole product's, at
one BLAS thread or two. There is no pool: the thread is joined before
``matmul`` returns or raises. Backward products, the DFT and Hilbert row
blocks and Adam stay serial.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DataError, ShapeError


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _frozen(data, dtype=np.float64) -> np.ndarray:
    """Read-only C-order ``dtype`` array (None keeps ``data``'s dtype):
    ``data`` or a view of it when it already is one, a converted copy otherwise."""
    arr = np.asarray(data, dtype, order="C")
    return _freeze(arr.view()) if arr.flags.writeable else arr


class Tensor:
    """Read-only float64 array, optionally recorded as a node on a Tape."""

    __slots__ = ("data", "_tape", "node_id", "parents", "vjps", "op", "relu")

    def __init__(self, data: np.ndarray, node_id: Optional[int] = None,
                 parents: tuple = (), vjps: tuple = (), op: str = "leaf",
                 relu: bool = False):
        self.data = data
        self._tape = None
        self.node_id = node_id
        self.parents = parents
        self.vjps = vjps
        self.op = op
        self.relu = relu  # data is max(result, 0); backward masks by data > 0

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"


class Tape:
    """Ordered op record for one forward pass."""

    __slots__ = ("nodes", "_param_ids", "_ref", "__weakref__")

    def __init__(self):
        self.nodes: list[Tensor] = []
        self._param_ids: dict[str, int] = {}
        self._ref = weakref.ref(self)

    def _add(self, t: Tensor) -> Tensor:
        t.node_id = len(self.nodes)
        t._tape = self._ref
        self.nodes.append(t)
        return t

    def param(self, data, name: str) -> Tensor:
        """Bind a named tensor whose gradient ``backward`` returns, as a
        read-only view: copied only when not float64 in C order.

        There is no finite check here: a ``Model`` checks its parameters'
        layout and values when built, and training checks each Adam update.
        """
        if name in self._param_ids:
            raise ContractError(f"duplicate parameter name on tape: {name}")
        t = self._add(Tensor(_frozen(data)))
        self._param_ids[name] = t.node_id
        return t

    def backward(self, loss: Tensor) -> dict[str, np.ndarray]:
        """Gradient of the sum of ``loss``'s entries (0-d, or 1-D with one
        per stacked member) to every named parameter (zeros if unreached).

        A node recorded with ``relu`` first masks its gradient by
        ``data > 0``, read from its own output: ``max(x, 0) > 0`` exactly
        when ``x > 0`` (NaN and -0 included), so the mask is the one the
        pre-activation would give, and the subgradient at 0 is 0.

        A tensor's gradient sums its contributions in the order they are
        made: nodes from last to first, each node's parents in list order.
        So a node that lists a parent twice adds its first contribution,
        then its second, to what the parent already had."""
        if loss._tape is not self._ref:
            raise ContractError("loss tensor does not belong to this tape")
        if loss.ndim > 1:
            raise ContractError(f"backward needs a 0-d or 1-D loss, got shape {loss.shape}")
        ref, nodes = self._ref, self.nodes
        grads: list[Optional[np.ndarray]] = [None] * len(nodes)
        grads[loss.node_id] = np.ones(loss.shape)
        for nid in range(loss.node_id, -1, -1):
            g = grads[nid]
            if g is None:
                continue
            node = nodes[nid]
            if node.relu:
                g = g * (node.data > 0)
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


def real_array(value, name: str, dtype=np.float64) -> np.ndarray:
    """The one binding of an array from outside the library, returned as
    ``_frozen`` returns it. DataError naming ``name`` unless it is a
    rectangular array of finite real numbers (or complex, for a complex
    ``dtype``): numpy would drop an imaginary part and misread a string."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        raise DataError(f"{name} must be a rectangular array") from None
    kinds = "biufc" if np.dtype(dtype).kind == "c" else "biuf"
    if arr.dtype.kind not in kinds:
        raise DataError(f"{name} must hold {'' if 'c' in kinds else 'real '}numbers, "
                        f"got dtype {arr.dtype}")
    if not np.isfinite(arr).all():
        raise DataError(f"{name} contains non-finite values")
    return _frozen(arr, dtype)


def constant(data, name: str = "constant") -> Tensor:
    """Tensor outside any tape; participates in ops but gets no gradient.
    ``data`` binds through ``real_array``, errors naming ``name``."""
    return Tensor(real_array(data, name), op="const")


def trusted_constant(data: np.ndarray) -> Tensor:
    """``constant`` without ``real_array``'s checks, for data checked where
    it was made (see the module docstring): the caller vouches for it, and
    complex or non-finite data bound here is not caught."""
    return Tensor(_frozen(data), op="const")


def find_tape(parents: Sequence[Tensor]) -> Optional[Tape]:
    """The tape an op over ``parents`` records on, or None off every tape."""
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
              vjps: Sequence[Callable[[np.ndarray], np.ndarray]],
              relu: bool = False) -> Tensor:
    """Record one op result; constant-only inputs yield an unrecorded constant
    that keeps no parents or VJPs, so a pass off any tape frees each operand
    as soon as nothing else holds it.

    With ``relu``, ``value`` (which must be the op's own fresh array) becomes
    ``max(value, 0)`` in place, so no second activation-sized array is made
    and no pre-activation is kept; the VJPs then take the gradient of the
    pre-activation, which ``Tape.backward`` masks from the node's output."""
    if relu:
        np.maximum(value, 0.0, out=value)
    tape = find_tape(parents)
    if tape is None:
        return Tensor(_freeze(value), op=op)
    return tape._add(Tensor(_freeze(value), parents=tuple(parents), vjps=tuple(vjps), op=op,
                            relu=relu))


# A product splits when each row half has at least this many multiply-adds
# per stacked member. OpenBLAS takes its small-matrix path at M N K <= 1e6,
# and a half on that path rounds unlike the whole product's rows; this
# stays 8x above that bound. A half this large takes about 0.5 ms on one
# core, and starting, pinning and joining the thread 0.1-0.25 ms (2-vCPU
# KVM guest): at 2^22 the split lost, at 2^23 it won. A 32-row training
# batch (at most 32 x 784 x 64 per product) never splits.
_SPLIT_MACS = 1 << 23


def _other_cpus() -> set:
    """The CPUs the calling thread may run on, other than the one it is on
    now (the "processor" field of its /proc stat); empty where the platform
    has neither. A thread started here began on its creator's CPU, and the
    two stayed on that one CPU for hundreds of ms with the other idle (a
    2-vCPU KVM guest), so the upper half's thread is pinned to these."""
    try:
        with open("/proc/thread-self/stat") as f:
            cpu = int(f.read().rsplit(")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {cpu}
    except (OSError, AttributeError):
        return set()


def matmul(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.matmul(a, b, out=out)`` of operands of two or more axes, bit for
    bit, a large product's upper row half on a new thread (see the module
    docstring). The thread is joined before this returns or raises, and an
    exception raised in its half is raised here."""
    m, n = a.shape[-2], b.shape[-1]
    h = m // 2
    if h * a.shape[-1] * n < _SPLIT_MACS or not (cpus := _other_cpus()):
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, n),
                       np.result_type(a, b))
    raised = []

    def upper():
        try:
            os.sched_setaffinity(0, cpus)  # this thread's own mask
            np.matmul(a[..., :h, :], b, out=out[..., :h, :])
        except BaseException as e:  # re-raised in the caller's thread
            raised.append(e)

    thread = threading.Thread(target=upper, name="cvlearn.autodiff.matmul")
    thread.start()
    try:
        np.matmul(a[..., h:, :], b, out=out[..., h:, :])
    finally:
        thread.join()
    if raised:
        raise raised[0]
    return out


# ---------------------------------------------------------------------------
# elementary operations


def check_affine(xs: Sequence[Tensor], w: Tensor, b: Tensor) -> None:
    """ShapeError unless ``x @ w + b`` has matching 2-D or stacked operands,
    ``x`` being the join of the one or two column blocks ``xs``: one leading
    shape, and widths that sum to ``w``'s input axis."""
    join, ws, bs = (xs[0].shape if 0 < len(xs) < 3 else ()), w.shape, b.shape
    for x in xs[1:]:  # the shape of the blocks' join; () when they have none
        join = (*join[:-1], join[-1] + x.shape[-1]) \
            if len(join) > 1 and x.shape[:-1] == join[:-1] else ()
    if len(join) < 2 or len(ws) != len(join) or join[:-2] != ws[:-2] or join[-1] != ws[-2] \
            or bs != ws[:-2] + ws[-1:]:
        given = " + ".join(str(x.shape) for x in xs)
        raise ShapeError(f"affine operand shapes do not match: x {given}, w {ws}, b {bs}")


def linear(x, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """Fully connected layer ``x @ w + b`` as one tape node, the
    tape's only real affine op: every bias of rvnn, steinmetz and
    analytic enters here, and cvnn's complex layer copies its forms.

    ``x`` is one tensor or a pair ``(xr, xi)`` of [.., m, n] and
    [.., m, in - n] tensors, the two column blocks of one joined input,
    which is then never built; a lone tensor is the one-block case. The
    weight is [.., in, out], so each block multiplies by its own row
    block of ``w``, a view. The value is the first block's product, plus
    ``b`` added in place, plus each further block's product, in that
    order (cvnn's complex layer's). A block's gradient is ``g @`` its
    row block of ``w`` transposed, and the weight gradient is each
    ``block.T @ g`` written into that block's rows of one [.., in, out]
    array.

    For one block, values and gradients match the unfused chain of a
    matmul and a row-broadcast bias add bit for bit. Stacked operands
    ([E, m, in] inputs, [E, in, out] weights, [E, out] biases) apply
    each member's weights to its own inputs.

    With ``relu`` the node is a hidden layer, ``max(x @ w + b, 0)``: the
    ReLU runs in place on the product (see ``record_op``), and backward
    masks the gradient by the node's own output, bit for bit a separate
    ReLU node's values and gradients.
    """
    xs = (x,) if isinstance(x, Tensor) else tuple(x)
    check_affine(xs, w, b)
    blocks, end = [], 0  # each block's data, its slice of w's rows, and that row block
    for t in xs:
        rows = slice(end, end := end + t.data.shape[-1])
        blocks.append((t.data, rows, w.data[..., rows, :]))
    value = matmul(blocks[0][0], blocks[0][2])
    value += b.data[..., None, :]  # value is the matmul's own fresh array
    for d, _, wb in blocks[1:]:
        value += matmul(d, wb)

    def vjp_w(g):
        gw = np.empty(w.shape)
        for d, rows, _ in blocks:
            np.matmul(d.swapaxes(-1, -2), g, out=gw[..., rows, :])
        return gw

    return record_op("linear", value, (*xs, w, b),
                     (*[lambda g, wb=wb: g @ wb.swapaxes(-1, -2) for _, _, wb in blocks],
                      vjp_w, lambda g: np.add.reduce(g, axis=-2)), relu)


def mean_center_rows(x: Tensor) -> Tensor:
    """Subtract each row's mean from its entries; rows then sum to zero."""
    if x.ndim < 2:
        raise ShapeError(f"mean_center_rows needs a 2-D or stacked tensor, got {x.shape}")

    def center(a):
        # ndarray.mean's own sum-then-divide, without its Python wrapper
        return a - np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]

    # the centering map is symmetric, so the vjp is the map itself
    return record_op("mean_center_rows", center(x.data), (x,), (center,))


def mean_sq_diff(a: Tensor, b: Tensor) -> Tensor:
    """Mean of (a - b)^2 over the last two axes, one mean per stacked
    member; bit for bit the ``sub``, ``mul``, mean chain it replaces."""
    shape = a.data.shape
    if len(shape) < 2 or b.data.shape != shape:
        raise ShapeError(f"mean_sq_diff needs matching 2-D or stacked operands, "
                         f"got {shape} and {b.data.shape}")
    n = shape[-2] * shape[-1]
    diff = a.data - b.data
    # == mean() per member: one pairwise sum over its m * n entries
    value = np.asarray(np.add.reduce(diff * diff, axis=(-2, -1)) / n)

    done = [None, None]     # (g, a's gradient): b's is its negation

    def vjp_a(g):
        if done[0] is not g:
            t = np.empty(shape)
            t[...] = (g * (1.0 / n))[..., None, None]
            t *= diff
            done[:] = g, t + t  # the square's two operand paths, summed
        return done[1]

    return record_op("mean_sq_diff", value, (a, b), (vjp_a, lambda g: -vjp_a(g)))
