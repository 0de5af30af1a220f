"""Tape-based reverse-mode autodiff over numpy arrays.

The operator set is exactly what the UV autoencoder networks need: 3x3
stride-1 convolution (:func:`conv2d`, and :func:`conv_elu`, which runs
ELU in place on the conv output and folds it into the conv's tape
record), 1x1 projection, 2x2 average pooling, nearest upsampling,
ELU/tanh, fully connected layers, channel concatenation and an
elementwise-mean L1 loss, plus a handful of scalar glue ops. ELU has
alpha = 1 throughout. Forward values are plain ndarrays held by
:class:`Tensor`; executing an op with any input attached to a
:class:`Tape` records the op so that :func:`backward` can replay the tape
in reverse. Gradients flow only along paths that start at the ``params``
of :func:`backward`; a param that the loss does not depend on gets a zero
grad. :func:`backward` consumes the tape: it drops each record once
that record's backward has run, so a tape takes one :func:`backward`, and
a step's activations are freed by refcount when the step ends, not when
the cyclic garbage collector next runs.

The 3x3 conv's forward and input gradient run as three GEMMs, one per
kernel row, over the input's three horizontal taps, a third of the 9-tap
im2col. The weight gradient keeps the 9-tap im2col: its one GEMM per chunk
amortises on the small maps of the deep blocks, where per-sample row GEMMs
do not.

Conv scratch (row taps, row product, dW's im2col chunk) is a view of one
grow-only buffer per thread, of at most 2 x ``_IM2COL_CHUNK`` (4 MiB):
fresh buffers per call land on fresh pages, whose faults cost inference
about a tenth of its time. A larger request gets a fresh buffer, so none
is held at the paper's scale. Writers zero what they do not copy, so no
result depends on the buffer's old bytes or is a view of it.

Training runs in float32; gradient checking should build the graph in
float64 (see ``check_gradients`` in ``tests/oracles.py``).
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NonFiniteError, ShapeError

_node_ids = itertools.count()


class Tensor:
    """An n-d array node. Data is immutable by convention once it has been
    consumed by an op; parameters are the exception and are updated in place
    by the optimizer, which owns them."""

    __slots__ = ("data", "grad", "name", "node_id", "_tape")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("non-finite values in a tensor")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.name: str | None = None    # NetParams.add names parameters
        self.node_id = next(_node_ids)
        self._tape: Tape | None = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, name={self.name!r}, id={self.node_id})"


class _Record:
    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(self, op, inputs, output, backward_fn):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered list of recorded ops. Construction order is execution order,
    so the list is topologically sorted by definition. :func:`backward`
    empties it and marks it consumed; a consumed tape records no more ops."""

    def __init__(self):
        self.records: list[_Record] = []
        self.consumed = False

    def leaf(self, data) -> Tensor:
        t = data if isinstance(data, Tensor) else Tensor(data)
        t._tape = self
        return t

    def _check_open(self):
        if self.consumed:
            raise ValueError("this tape is consumed: backward has walked it")

    def _add(self, op: str, inputs: tuple[Tensor, ...], output: Tensor, backward_fn):
        self._check_open()
        output._tape = self
        self.records.append(_Record(op, inputs, output, backward_fn))


def _tape_of(inputs: Sequence[Tensor]) -> Tape | None:
    tape = None
    for t in inputs:
        if t._tape is not None:
            if tape is None:
                tape = t._tape
            elif tape is not t._tape:
                raise ValueError("inputs belong to different tapes")
    return tape


def _emit(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray,
          backward_fn: Callable) -> Tensor:
    if not np.all(np.isfinite(out_data)):
        raise NonFiniteError(f"non-finite values produced by op '{op}'")
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.name = None
    out.node_id = next(_node_ids)
    out._tape = None
    tape = _tape_of(inputs)
    if tape is not None:
        tape._add(op, inputs, out, backward_fn)
    return out


def backward(loss: Tensor, params: Sequence[Tensor],
             grad: np.ndarray | None = None) -> None:
    """Accumulate d loss / d p into ``p.grad`` for each ``p`` in ``params``,
    walking the tape that ``loss`` lives on.

    ``grad`` is the gradient the walk starts from at ``loss``. When it is
    omitted, ``loss`` must be a scalar and the gradient is 1. When it is
    given, ``loss`` may be any output on a tape and ``grad`` must have its
    shape; this continues a backward that another tape took as far as
    ``loss``. The walk may write into ``grad``. A ``loss`` on no tape is a
    ValueError.

    Walks the tape once, in reverse, and consumes it: each record is
    dropped once its backward has run, which frees that op's saved inputs
    and its output grad, and the tape is left empty and marked consumed, so
    a tape takes one ``backward``. Gradients flow only along paths that
    start at ``params``: one sweep over the records, in order, marks every
    output that depends on a param, and each op computes only the input
    gradients of params and marked outputs. Unreachable params get zero
    grads.
    """
    tape = loss._tape
    if tape is None:
        raise ValueError("loss does not live on a tape")
    tape._check_open()
    if grad is None:
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        grad = np.ones_like(loss.data)
    elif grad.shape != loss.data.shape:
        raise ShapeError(f"backward's grad has shape {grad.shape}, "
                         f"its output {loss.data.shape}")
    tape.consumed = True
    wanted = {p.node_id for p in params}
    records = tape.records
    for rec in records:
        if any(t.node_id in wanted for t in rec.inputs):
            wanted.add(rec.output.node_id)
    loss.grad = grad
    while records:
        rec = records.pop()
        g = rec.output.grad
        if g is None:
            continue
        needs = tuple(t.node_id in wanted for t in rec.inputs)
        gins = rec.backward_fn(g, needs)
        for t, gi in zip(rec.inputs, gins):
            if gi is None:
                continue
            if t.grad is None:
                t.grad = gi
            else:
                t.grad += gi
        rec.output.grad = None
    for p in params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)


def zero_grad(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# convolution


def _im2col(x: np.ndarray, cols: np.ndarray) -> None:
    # Writes the im2col of x (N, C, H, W) into cols (N, C, 9, H*W), whose
    # last axis is contiguous: cols[n, c, 3i + j, h*W + w] is
    # x[n, c, h + i - 1, w + j - 1], zero outside x. Tap (i, j) is one flat
    # copy of every (n, c) plane, shifted by s = (i - 1)*W + (j - 1): a run
    # of up to H*W elements, where a 2-D slice would give runs W long. The
    # flat shift wraps column w = 0 (j = 0) or w = W - 1 (j = 2) round to
    # the neighbouring row, so that column is zeroed after the copy, while
    # the tap is still in cache. The at most W + 1 elements the shift leaves
    # uncovered, at the front for s < 0 and at the back for s > 0, are
    # zeroed first, so any reused buffer may be passed.
    N, C, H, W = x.shape
    L = H * W
    xf = x.reshape(N, C, L)
    for k in range(9):
        i, j = divmod(k, 3)
        s = (i - 1) * W + j - 1
        lo, hi = min(L, max(0, -s)), max(0, min(L, L - s))
        if s < 0:
            cols[:, :, k, :lo] = 0
        elif s > 0:
            cols[:, :, k, hi:] = 0
        if lo < hi:
            cols[:, :, k, lo:hi] = xf[:, :, lo + s:hi + s]
            if j == 0:
                cols[:, :, k, ::W] = 0
            elif j == 2:
                cols[:, :, k, W - 1::W] = 0


def _row_taps(x: np.ndarray, taps: np.ndarray) -> None:
    # Writes the 3 horizontal taps of x (N, C, H, W) into taps
    # (N, 3, C, (H+2)*W): plane j is x shifted by j - 1 columns, with one
    # zero row above and one below, so taps[n, j, c, (h + 1)*W + w] is
    # x[n, c, h, w + j - 1], zero outside x. Each plane is one flat copy,
    # like _im2col's taps; the column that the flat shift wraps round to
    # the neighbouring row is zeroed after it, and every element that the
    # copy does not cover is zeroed, so any reused buffer may be passed.
    N, C, H, W = x.shape
    L = H * W
    xf = x.reshape(N, C, L)
    for j in range(3):
        s = W + 1 - j
        taps[:, j, :, :s] = 0
        taps[:, j, :, s:s + L] = xf
        taps[:, j, :, s + L:] = 0
    taps[:, 0, :, ::W] = 0
    taps[:, 2, :, W - 1::W] = 0


# Byte budget of one chunk of a conv's buffers (at least one sample): the
# forward's row taps with one kernel row's product, and the weight
# gradient's im2col; _workspace keeps up to twice this.
_IM2COL_CHUNK = 1 << 21
_scratch = threading.local()


def _workspace(nbytes: int) -> np.ndarray:
    # nbytes of uint8 scratch, valid until this thread's next call: the
    # front of its grow-only buffer, or fresh above 2 * _IM2COL_CHUNK.
    if nbytes > 2 * _IM2COL_CHUNK:
        return np.empty(nbytes, dtype=np.uint8)
    if getattr(_scratch, "buf", None) is None or _scratch.buf.size < nbytes:
        _scratch.buf = None   # free the old buffer before making the new
        _scratch.buf = np.empty(nbytes, dtype=np.uint8)
    return _scratch.buf[:nbytes]


def _im2col_step(x: np.ndarray) -> int:
    # Samples of x (N, C, H, W) per im2col chunk: as many as fit in
    # _IM2COL_CHUNK bytes, at least one, at most N.
    N, C, H, W = x.shape
    return min(N, max(1, _IM2COL_CHUNK // (9 * C * H * W * x.itemsize)))


def _conv_raw(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    # x: (N, C1, H, W), w: (C2, C1, 3, 3), any view -> (N, C2, H, W). The
    # conv is three GEMMs, one per kernel row i, added in row order:
    # out = W0 @ B0 + W1 @ B1 + W2 @ B2. Wi (C2, 3*C1) is kernel row i in
    # the (j, c) order of the row taps; Bi (3*C1, H*W) is the view of the
    # row taps offset by i rows, which needs no copy. The taps and the
    # product of rows 1 and 2 are views of the _workspace, the product at
    # the first 64-byte boundary after the taps, as many samples at a time
    # as both fit in _IM2COL_CHUNK bytes; one sample's taps are a third of
    # its 9-tap im2col. Stacked matmul runs one GEMM per sample and row, so
    # the result does not depend on the chunking or on batch-mates.
    N, C1, H, W = x.shape
    C2, L = w.shape[0], H * W
    rows = w.transpose(2, 0, 3, 1).reshape(3, C2, 3 * C1)
    out = np.empty((N, C2, L), dtype=np.result_type(w, x))
    step = min(N, max(1, _IM2COL_CHUNK // ((3 * C1 * (H + 2) * W + C2 * L) * x.itemsize)))
    tap_bytes = step * 3 * C1 * (H + 2) * W * x.itemsize
    at = -(-tap_bytes // 64) * 64
    ws = _workspace(at + step * C2 * L * out.itemsize)
    buf = ws[:tap_bytes].view(x.dtype).reshape(step, 3, C1, (H + 2) * W)
    part = ws[at:].view(out.dtype).reshape(step, C2, L)
    for s in range(0, N, step):
        n = min(step, N - s)
        taps, o, p = buf[:n], out[s:s + n], part[:n]
        _row_taps(x[s:s + n], taps)
        np.matmul(rows[0], taps[..., :L].reshape(n, 3 * C1, L), out=o)
        for i in (1, 2):
            np.matmul(rows[i], taps[..., i * W:i * W + L].reshape(n, 3 * C1, L), out=p)
            o += p
    return out.reshape(N, C2, H, W)


def _conv_weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    # dW = g (C2, N*H*W) @ cols^T, the K = N*H*W sum taken _im2col_step
    # samples at a time. Each chunk's channel-major im2col (C1*9, n*H*W) is
    # written by _im2col through an (n, C1, 9, H*W) view of the front of
    # the _workspace: only g's chunk, with C2 channels, needs a transpose,
    # not the 9*C1-row im2col. The chunk products, fresh arrays from @, are
    # added in chunk order into the first. Row taps would take one GEMM per
    # sample and kernel row here: unchunked, that took 0.59x this one's time
    # on a (8, 16, 32, 32) input and 1.6-28x on the 8x8 to 1x1 maps of the
    # deep blocks, where the per-sample GEMMs do not amortise.
    N, C1, H, W = x.shape
    C2, L = g.shape[1], H * W
    step = _im2col_step(x)
    buf = _workspace(C1 * 9 * step * L * x.itemsize).view(x.dtype)
    gt = g.reshape(N, C2, L).transpose(1, 0, 2)
    dw = None
    for i in range(0, N, step):
        n = min(step, N - i)
        cols = buf[:C1 * 9 * n * L].reshape(C1, 9, n, L)
        _im2col(x[i:i + n], cols.transpose(2, 0, 1, 3))
        part = gt[:, i:i + n].reshape(C2, n * L) @ cols.reshape(C1 * 9, n * L).T
        if dw is None:
            dw = part
        else:
            dw += part
    return dw.reshape(C2, C1, 3, 3)


def conv2d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """3x3 cross-correlation, stride 1, zero padding 1."""
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4, got shape {x.shape}")
    N, C1, H, W = x.data.shape
    if w.data.ndim != 4 or w.data.shape[1:] != (C1, 3, 3):
        raise ShapeError(
            f"conv2d weight must be (C2, {C1}, 3, 3) for input channels {C1}, got {w.shape}"
        )
    C2 = w.data.shape[0]
    if b.data.shape != (C2,):
        raise ShapeError(f"conv2d bias must be ({C2},), got {b.shape}")
    out = _conv_raw(x.data, w.data)
    out += b.data[:, None, None]

    def bwd(g, needs):
        dx = dw = db = None
        if needs[2]:
            db = g.sum(axis=(0, 2, 3))
        if needs[1]:
            dw = _conv_weight_grad(x.data, g)
        if needs[0]:
            dx = _conv_raw(g, w.data.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1])
        return dx, dw, db

    return _emit("conv2d", (x, w, b), out, bwd)


def conv_elu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``elu(conv2d(x, w, b))`` as one tape record, ``conv_elu``: the ELU
    runs in place on the conv output, so no pre-activation is kept."""
    return elu(conv2d(x, w, b), inplace=True)


def conv1x1(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Pointwise channel projection of the skips; one GEMM per sample, so a
    sample's forward bits do not depend on its batch-mates."""
    if x.data.ndim != 4:
        raise ShapeError(f"conv1x1 input must be rank 4, got shape {x.shape}")
    N, C1, H, W = x.data.shape
    if w.data.shape != (w.data.shape[0], C1):
        raise ShapeError(f"conv1x1 weight must be (C2, {C1}), got {w.shape}")
    C2 = w.data.shape[0]
    if b.data.shape != (C2,):
        raise ShapeError(f"conv1x1 bias must be ({C2},), got {b.shape}")
    out = np.matmul(w.data, x.data.reshape(N, C1, H * W)).reshape(N, C2, H, W)
    out += b.data[:, None, None]

    def bwd(g, needs):
        dx = dw = db = None
        if needs[0]:
            dx = np.einsum("oc,nohw->nchw", w.data, g, optimize=True)
        if needs[1]:
            dw = np.einsum("nohw,nchw->oc", g, x.data, optimize=True)
        if needs[2]:
            db = g.sum(axis=(0, 2, 3))
        return dx, dw, db

    return _emit("conv1x1", (x, w, b), out, bwd)


def _sum2x2(a: np.ndarray) -> np.ndarray:
    # Sum of each 2x2 cell of (N, C, H, W) from 4 strided views, added
    # pairwise; for H, W > 2 that is bitwise numpy's order for
    # ``reshape(N, C, H/2, 2, W/2, 2).sum(axis=(3, 5))``.
    out = a[:, :, 0::2, 0::2] + a[:, :, 0::2, 1::2]
    out += a[:, :, 1::2, 0::2] + a[:, :, 1::2, 1::2]
    return out


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2."""
    if x.data.ndim != 4:
        raise ShapeError(f"avg_pool2 input must be rank 4, got shape {x.shape}")
    H, W = x.data.shape[2:]
    if H % 2 or W % 2:
        raise ShapeError(f"avg_pool2 needs even spatial dims, got {H}x{W}")
    out = _sum2x2(x.data)
    out *= x.data.dtype.type(0.25)

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        quarter = x.data.dtype.type(0.25)
        dx = np.repeat(np.repeat(g, 2, axis=2), 2, axis=3)
        dx *= quarter
        return (dx,)

    return _emit("avg_pool2", (x,), out, bwd)


def upsample_nearest2(x: Tensor) -> Tensor:
    """Nearest-neighbor upsampling by 2 in both spatial dims."""
    if x.data.ndim != 4:
        raise ShapeError(f"upsample_nearest2 input must be rank 4, got shape {x.shape}")
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        return (_sum2x2(g),)

    return _emit("upsample_nearest2", (x,), out, bwd)


# Elements per slice of _elu_inplace (at most one temporary this size).
_ELU_CHUNK = 1 << 16


def _elu_inplace(z: np.ndarray) -> np.ndarray:
    # ELU with alpha = 1 as max(z, e^z - 1): e^z - 1 >= z everywhere with
    # equality only at 0, so the max picks z for z >= 0 and e^z - 1 below.
    # The whole-array expression would allocate two temporaries the size of
    # z, so z is walked in _ELU_CHUNK-element slices through one reusable
    # buffer; elementwise, that is bitwise the same. The slices are of a
    # flat view, so z must be C-contiguous: reshape(-1) of a strided array
    # is a copy, and the writes would silently miss z.
    if not z.flags.c_contiguous:
        raise ValueError("in-place elu needs a C-contiguous array")
    flat = z.reshape(-1)
    buf = np.empty(min(flat.size, _ELU_CHUNK), dtype=z.dtype)
    for i in range(0, flat.size, _ELU_CHUNK):
        c = flat[i:i + _ELU_CHUNK]
        t = buf[:c.size]
        np.minimum(c, 0, out=t)
        np.expm1(t, out=t)
        np.maximum(c, t, out=c)
    return z


def _elu_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    # The slope from the output: out >= 0 iff z >= 0, where the slope is 1,
    # and for z < 0 the slope e^z equals out + 1. So min(out + 1, 1). It is
    # multiplied into g in place, so the slope is freed before the conv's
    # backward runs; no other record reads g, the output's grad.
    slope = out + 1
    np.minimum(slope, 1, out=slope)
    g *= slope
    return g


def elu(x: Tensor, inplace: bool = False) -> Tensor:
    """Elementwise ELU with alpha = 1.

    With ``inplace`` the ELU overwrites ``x`` and returns it. On a tape,
    ``x`` must be the output of the last recorded op, a :func:`conv2d`;
    that record becomes ``conv_elu``, whose backward applies the ELU slope,
    taken from the output, before the conv's. Off a tape the caller
    guarantees that nothing else reads ``x``.
    """
    if not inplace:
        out = _elu_inplace(x.data.copy())

        def bwd(g, needs):
            if not needs[0]:
                return (None,)
            return (_elu_grad(out, g),)

        return _emit("elu", (x,), out, bwd)
    tape = x._tape
    if tape is not None:
        tape._check_open()
        rec = tape.records[-1] if tape.records else None
        if rec is None or rec.output is not x or rec.op != "conv2d":
            raise ValueError("in-place elu needs the output of the last recorded op, a conv2d")
        out, conv_bwd = x.data, rec.backward_fn
        rec.op = "conv_elu"
        rec.backward_fn = lambda g, needs: conv_bwd(_elu_grad(out, g), needs)
    _elu_inplace(x.data)   # finite in, finite out: no second guard needed
    return x


def tanh(x: Tensor) -> Tensor:
    """Elementwise hyperbolic tangent."""
    out = np.tanh(x.data)

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        return (g * (x.data.dtype.type(1.0) - out * out),)

    return _emit("tanh", (x,), out, bwd)


def fully_connected(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map: (N, D1) @ (D2, D1)^T + (D2,); one GEMV per row, so a
    row's forward bits do not depend on the other rows."""
    if x.data.ndim != 2:
        raise ShapeError(f"fully_connected input must be rank 2, got shape {x.shape}")
    N, D1 = x.data.shape
    if w.data.ndim != 2 or w.data.shape[1] != D1:
        raise ShapeError(f"fully_connected weight must be (D2, {D1}), got {w.shape}")
    D2 = w.data.shape[0]
    if b.data.shape != (D2,):
        raise ShapeError(f"fully_connected bias must be ({D2},), got {b.shape}")
    out = np.matmul(x.data[:, None, :], w.data.T)[:, 0] + b.data

    def bwd(g, needs):
        dx = g @ w.data if needs[0] else None
        dw = g.T @ x.data if needs[1] else None
        db = g.sum(axis=0) if needs[2] else None
        return dx, dw, db

    return _emit("fully_connected", (x, w, b), out, bwd)


def l1_mean(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference over all elements (scalar output).

    The subgradient of |v| at v = 0 is taken to be 0.
    """
    if a.data.shape != b.data.shape:
        raise ShapeError(f"l1_mean shape mismatch: {a.shape} vs {b.shape}")
    d = a.data - b.data
    out = np.asarray(np.mean(np.abs(d), dtype=np.float64), dtype=a.data.dtype)

    def bwd(g, needs):
        s = np.sign(d)
        s *= g * a.data.dtype.type(1.0 / d.size)
        da = s if needs[0] else None
        db = -s if needs[1] else None
        return da, db

    return _emit("l1_mean", (a, b), out, bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = a.data + b.data

    def bwd(g, needs):
        return (g.copy() if needs[0] else None, g.copy() if needs[1] else None)

    return _emit("add", (a, b), out, bwd)


def scale(a: Tensor, c: float) -> Tensor:
    cc = a.data.dtype.type(c)
    out = a.data * cc

    def bwd(g, needs):
        return (g * cc if needs[0] else None,)

    return _emit("scale", (a,), out, bwd)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum(dtype=np.float64), dtype=a.data.dtype)

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        return (np.full_like(a.data, g),)

    return _emit("sum_all", (a,), out, bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = a.data.reshape(shape)

    def bwd(g, needs):
        if not needs[0]:
            return (None,)
        return (g.reshape(a.data.shape),)

    return _emit("reshape", (a,), out, bwd)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two rank-4 tensors along the channel axis."""
    if a.data.ndim != 4 or b.data.ndim != 4:
        raise ShapeError("concat_channels needs rank-4 inputs")
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2:] != b.data.shape[2:]:
        raise ShapeError(f"concat_channels mismatch: {a.shape} vs {b.shape}")
    ca = a.data.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)

    def bwd(g, needs):
        da = np.ascontiguousarray(g[:, :ca]) if needs[0] else None
        db = np.ascontiguousarray(g[:, ca:]) if needs[1] else None
        return da, db

    return _emit("concat_channels", (a, b), out, bwd)


# ---------------------------------------------------------------------------
# optimizer


class AdamState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self, beta1: float = 0.5, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[int, np.ndarray] = {}
        self.v: dict[int, np.ndarray] = {}


def adam_step(params: Sequence[Tensor], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of exactly ``params``; tensors left
    out stay bit-identical and get no moment buffers."""
    for p in params:
        if p.grad is None:
            raise ValueError(f"adam_step: parameter {p.name or p.node_id} has no grad")
        if not np.all(np.isfinite(p.grad)):
            raise NonFiniteError(f"adam_step: non-finite grad for {p.name or p.node_id}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p in params:
        g = p.grad
        m = state.m.get(p.node_id)
        if m is None:
            m = state.m[p.node_id] = np.zeros_like(p.data)
            state.v[p.node_id] = np.zeros_like(p.data)
        v = state.v[p.node_id]
        m *= p.data.dtype.type(b1)
        m += p.data.dtype.type(1.0 - b1) * g
        v *= p.data.dtype.type(b2)
        v += p.data.dtype.type(1.0 - b2) * (g * g)
        mhat = m / p.data.dtype.type(c1)
        vhat = v / p.data.dtype.type(c2)
        p.data -= p.data.dtype.type(lr) * mhat / (np.sqrt(vhat) + p.data.dtype.type(state.eps))
