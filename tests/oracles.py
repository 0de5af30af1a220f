"""Independent brute-force oracles the library tests compare against.

Everything here is deliberately naive (nested loops, no vectorization,
no reuse of library code paths) so a bug in the engine cannot hide in
its own mirror image. ``check_gradients`` runs the engine's backward only
to hold it against central finite differences.
"""

import tracemalloc

import numpy as np

from facegan3d import autodiff as ad


def naive_conv2d(x, w, b):
    """Six nested loops, 3x3 kernel, stride 1, zero padding 1."""
    N, C1, H, W = x.shape
    C2 = w.shape[0]
    out = np.zeros((N, C2, H, W), dtype=np.float64)
    for n in range(N):
        for o in range(C2):
            for i in range(H):
                for j in range(W):
                    acc = float(b[o])
                    for c in range(C1):
                        for ki in range(3):
                            for kj in range(3):
                                ii = i + ki - 1
                                jj = j + kj - 1
                                if 0 <= ii < H and 0 <= jj < W:
                                    acc += float(x[n, c, ii, jj]) * float(w[o, c, ki, kj])
                    out[n, o, i, j] = acc
    return out


def reference_conv_raw(x, w2):
    """The one-shot im2col GEMM, (N, C1, H, W) x (C2, C1*9) -> (N, C2, H, W):
    zero-pad the whole batch, build its N-major im2col (N, C1*9, H*W) and
    run one stacked matmul. Stacked matmul runs one GEMM per sample, so any
    split of the batch into sample chunks gives the same bits."""
    N, C1, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.stack([xp[:, :, i:i + H, j:j + W] for i in range(3) for j in range(3)],
                    axis=2)  # (N, C1, 9, H, W)
    return np.matmul(w2, cols.reshape(N, C1 * 9, H * W)).reshape(N, -1, H, W)


def reference_conv_rows(x, w):
    """The row-tap lowering in one shot, (N, C1, H, W) x (C2, C1, 3, 3) ->
    (N, C2, H, W): zero-pad the whole batch, stack each sample's three
    column-shifted planes (N, 3*C1, H+2, W), and for kernel rows i = 0, 1, 2
    run one stacked matmul of row i of the weight, (C2, 3*C1) in the planes'
    (j, c) order, with the planes' rows i .. i+H-1, adding the three products
    in kernel-row order."""
    N, C1, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    planes = np.stack([xp[:, :, :, j:j + W] for j in range(3)], axis=1)  # (N, 3, C1, H+2, W)
    out = None
    for i in range(3):
        wi = w[:, :, i, :].transpose(0, 2, 1).reshape(w.shape[0], 3 * C1)
        p = np.matmul(wi, planes[:, :, :, i:i + H].reshape(N, 3 * C1, H * W))
        out = p if out is None else out + p
    return out.reshape(N, -1, H, W)


def reference_conv_weight_grad(x, g):
    """The 3x3 conv's weight gradient as one GEMM, (N, C1, H, W) and
    (N, C2, H, W) -> (C2, C1, 3, 3): zero-pad the batch, stack its nine
    shifted windows into the channel-major im2col (C1*9, N*H*W) and
    multiply g, flattened to (C2, N*H*W), by its transpose."""
    N, C1, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = np.stack([xp[:, :, i:i + H, j:j + W] for i in range(3) for j in range(3)],
                    axis=2)  # (N, C1, 9, H, W)
    cols = cols.transpose(1, 2, 0, 3, 4).reshape(C1 * 9, N * H * W)
    gf = g.transpose(1, 0, 2, 3).reshape(g.shape[1], N * H * W)
    return (gf @ cols.T).reshape(-1, C1, 3, 3)


def naive_avg_pool2(x):
    N, C, H, W = x.shape
    out = np.zeros((N, C, H // 2, W // 2), dtype=np.float64)
    for n in range(N):
        for c in range(C):
            for i in range(H // 2):
                for j in range(W // 2):
                    block = [float(x[n, c, 2 * i + a, 2 * j + b])
                             for a in range(2) for b in range(2)]
                    out[n, c, i, j] = sum(block) / 4.0
    return out


def naive_upsample2(x):
    N, C, H, W = x.shape
    out = np.zeros((N, C, 2 * H, 2 * W), dtype=np.float64)
    for n in range(N):
        for c in range(C):
            for i in range(2 * H):
                for j in range(2 * W):
                    out[n, c, i, j] = float(x[n, c, i // 2, j // 2])
    return out


def naive_matmul_affine(x, w, b):
    """Triple-loop x @ w.T + b."""
    N, D1 = x.shape
    D2 = w.shape[0]
    out = np.zeros((N, D2), dtype=np.float64)
    for n in range(N):
        for o in range(D2):
            acc = float(b[o])
            for d in range(D1):
                acc += float(x[n, d]) * float(w[o, d])
            out[n, o] = acc
    return out


def naive_l1_mean(a, b):
    total = 0.0
    fa = a.reshape(-1)
    fb = b.reshape(-1)
    for i in range(fa.size):
        total += abs(float(fa[i]) - float(fb[i]))
    return total / fa.size


def reference_adam(grads, lr, beta1=0.5, beta2=0.999, eps=1e-8, x0=0.0):
    """Scalar Adam trajectory: returns parameter values after each step."""
    x = x0
    m = v = 0.0
    out = []
    for t, g in enumerate(grads, 1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        x = x - lr * mhat / (np.sqrt(vhat) + eps)
        out.append(x)
    return out


def naive_nearest_fill_assignment(valid):
    """O(H^2 W^2): for each pixel the row-major-lowest nearest valid index."""
    H, W = valid.shape
    out = np.zeros(H * W, dtype=np.int64)
    for i in range(H):
        for j in range(W):
            if valid[i, j]:
                out[i * W + j] = i * W + j
                continue
            best = None
            best_d2 = None
            for a in range(H):
                for b in range(W):
                    if not valid[a, b]:
                        continue
                    d2 = (a - i) ** 2 + (b - j) ** 2
                    if best_d2 is None or d2 < best_d2:
                        best_d2 = d2
                        best = a * W + b
                    # ties: keep the first (row-major lowest) encountered
            out[i * W + j] = best
    return out


def point_in_triangle(px, py, tri):
    """Barycentric sign test, inclusive with a small epsilon."""
    (x0, y0), (x1, y1), (x2, y2) = tri
    denom = (y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2)
    if abs(denom) < 1e-15:
        return False
    w0 = ((y1 - y2) * (px - x2) + (x2 - x1) * (py - y2)) / denom
    w1 = ((y2 - y0) * (px - x2) + (x0 - x2) * (py - y2)) / denom
    w2 = 1.0 - w0 - w1
    return w0 > 1e-9 and w1 > 1e-9 and w2 > 1e-9


def naive_covariance(Z):
    """Textbook double-loop sample covariance of column observations."""
    nb, n = Z.shape
    mu = [sum(float(Z[i, k]) for k in range(n)) / n for i in range(nb)]
    cov = np.zeros((nb, nb), dtype=np.float64)
    for i in range(nb):
        for j in range(nb):
            acc = 0.0
            for k in range(n):
                acc += (float(Z[i, k]) - mu[i]) * (float(Z[j, k]) - mu[j])
            cov[i, j] = acc / (n - 1)
    return cov


def naive_specificity(generated, test):
    """Double loop over generated x test meshes; per-pair mean vertex
    distance, min over the test set, then mean/std over samples."""
    dists = []
    for g in generated:
        best = None
        for t in test:
            d = float(np.linalg.norm(g - t, axis=1).mean())
            if best is None or d < best:
                best = d
        dists.append(best)
    arr = np.asarray(dists)
    return float(arr.mean()), float(arr.std()), arr


def point_to_plane_residual(source_pts, target):
    """RMS distance of points to the tangent planes of their nearest
    target vertices (brute-force nearest neighbour)."""
    normals = target.vertex_normals()
    total = 0.0
    for p in source_pts:
        d2 = ((target.vertices - p) ** 2).sum(axis=1)
        k = int(np.argmin(d2))
        total += float(np.dot(p - target.vertices[k], normals[k])) ** 2
    return float(np.sqrt(total / len(source_pts)))


def reference_kabsch(source_pts, target_pts):
    """Rotation R and translation t (no scale, no reflection) minimising
    the summed squared distance of R @ source_i + t to target_i."""
    ms, mt = source_pts.mean(axis=0), target_pts.mean(axis=0)
    u, _, vt = np.linalg.svd((source_pts - ms).T @ (target_pts - mt))
    d = np.sign(np.linalg.det(vt.T @ u.T))
    R = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return R, mt - R @ ms


def reference_save_obj(path, mesh):
    """One formatted line per vertex and per face."""
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {v[0]:.10g} {v[1]:.10g} {v[2]:.10g}")
    for f in mesh.faces:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_rasterize_layout(uv, faces, res):
    """One face at a time over its bounding box; a pixel keeps the first
    face that covers it."""
    H = W = res
    tri = np.full((H, W), -1, dtype=np.int32)
    bary = np.zeros((H, W, 3), dtype=np.float64)
    px = uv[:, 0] * W - 0.5
    py = uv[:, 1] * H - 0.5
    for fi, f in enumerate(faces):
        xs = px[f]
        ys = py[f]
        x0 = max(int(np.ceil(xs.min())), 0)
        x1 = min(int(np.floor(xs.max())), W - 1)
        y0 = max(int(np.ceil(ys.min())), 0)
        y1 = min(int(np.floor(ys.max())), H - 1)
        if x0 > x1 or y0 > y1:
            continue
        denom = (ys[1] - ys[2]) * (xs[0] - xs[2]) + (xs[2] - xs[1]) * (ys[0] - ys[2])
        if abs(denom) < 1e-15:
            continue
        gx, gy = np.meshgrid(np.arange(x0, x1 + 1), np.arange(y0, y1 + 1))
        w0 = ((ys[1] - ys[2]) * (gx - xs[2]) + (xs[2] - xs[1]) * (gy - ys[2])) / denom
        w1 = ((ys[2] - ys[0]) * (gx - xs[2]) + (xs[0] - xs[2]) * (gy - ys[2])) / denom
        w2 = 1.0 - w0 - w1
        inside = (w0 >= -1e-12) & (w1 >= -1e-12) & (w2 >= -1e-12)
        put = inside & (tri[y0:y1 + 1, x0:x1 + 1] == -1)
        tri[y0:y1 + 1, x0:x1 + 1][put] = fi
        bsub = bary[y0:y1 + 1, x0:x1 + 1]
        bsub[put, 0] = w0[put]
        bsub[put, 1] = w1[put]
        bsub[put, 2] = w2[put]
    return tri, bary


def check_gradients(build, params, eps=1e-4):
    """Compare tape gradients against central finite differences.

    ``build`` must construct a fresh (tape, scalar loss) from the parameters'
    current data every call. Parameters should be float64; finite differences
    at float32 are meaningless. Returns the worst relative error. Only the
    first tape is walked; the finite-difference tapes are read for their loss
    and left un-walked, to the cyclic garbage collector.

    Every coordinate is checked, and each |analytic - numeric| is divided by
    that coordinate's own magnitude, floored at 1e-6: the strict measure for
    single ops and small nets with inputs kept away from activation kinks.
    """
    tape, loss = build()
    ad.zero_grad(params)
    ad.backward(loss, params=params)
    analytic = {p.node_id: np.array(p.grad, copy=True) for p in params}
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        aflat = analytic[p.node_id].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = float(build()[1].data)
            flat[i] = orig - eps
            lm = float(build()[1].data)
            flat[i] = orig
            num = (lp - lm) / (2.0 * eps)
            a = float(aflat[i])
            worst = max(worst, abs(a - num) / max(abs(a), abs(num), 1e-6))
    return worst


def traced_peak(fn):
    """The highest memory, in bytes, that tracemalloc traces while ``fn()``
    runs, above what it traced when the call started: only blocks
    allocated during the call count."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def expected_parameter_count(config):
    """Closed-form parameter count of a ``model.NetConfig`` from the layer
    table; an arithmetic cross-check of the built network."""
    n = config.base_filters
    h32 = config.resolution // 32
    total = 0

    def conv(c1, c2):
        return c2 * c1 * 9 + c2

    total += conv(config.in_channels, n)
    for k in range(1, 6):
        c1 = k * n
        c2 = (k + 1) * n
        total += conv(c1, c2) + conv(c2, c2)
    total += 2 * conv(6 * n, 6 * n)
    d_in = h32 * h32 * 6 * n
    total += config.latent_dim * d_in + config.latent_dim
    d_out = h32 * h32 * n
    total += d_out * config.latent_dim + d_out
    total += 6 * 2 * conv(n, n)
    total += conv(n, 3)
    for lv in config.skip_levels:
        c_enc = (int(np.log2(lv)) + 1) * n
        total += n * c_enc + n
    return total


def bbox_diagonal(mesh):
    """Length of the diagonal of a mesh's axis-aligned bounding box."""
    return float(np.linalg.norm(mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)))


def num_parameters(params):
    """Scalar count of every tensor of a ``model.NetParams``."""
    return sum(t.data.size for t in params.tensors())


def latent_covariance(g):
    """Covariance of a ``generation.LatentGaussian``: factor @ factor.T."""
    return g.factor @ g.factor.T
