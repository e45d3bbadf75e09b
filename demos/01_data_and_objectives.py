# Parsing LibSVM text and evaluating finite-sum losses.
#
# The library reads the plain LibSVM format (1-based sparse indices) into an
# immutable CSR-backed Dataset, remaps labels for the chosen loss, and exposes
# per-sample / mini-batch / full gradients that all agree with one another.

import numpy as np

from stochfw import Objective, normalize_labels, parse_libsvm, to_libsvm
from stochfw.reference import finite_diff_grad

libsvm_text = """\
# four tiny samples, two classes
+1 1:0.5 3:2.0
-1 2:1.0 3:-0.5
+1 1:1.5 2:0.25
-1 1:-1.0 3:1.0
"""

ds = parse_libsvm(libsvm_text, name="demo")
print(f"parsed {ds.n} samples, {ds.d} features, labels {ds.labels}")
indices, values = ds.row(0)  # 0-based feature indices and their values
print("row 0:", indices, values)

# serialize -> parse is an exact round trip (17 significant digits)
assert parse_libsvm(to_libsvm(ds)) == ds
print("round trip: exact")

# logistic loss: at w = 0 every margin is 0, so f(0) = log 2
obj = Objective("logistic", ds)
w0 = np.zeros(ds.d)
print(f"\nlogistic f(0) = {obj.loss_full(w0):.6f} (log 2 = {np.log(2):.6f})")

# gradients: full = mean of per-sample, checked against central differences
w = np.array([0.3, -0.2, 0.6])
g_full = obj.grad_full(w)
g_mean = np.mean([obj.grad_batch([i], w) for i in range(ds.n)], axis=0)
fd = finite_diff_grad(obj.loss_full, w, h=1e-5)
print("grad_full       ", g_full)
print("mean of samples ", g_mean)
print("finite diff     ", fd)
print(f"max |grad - fd| = {np.max(np.abs(g_full - fd)):.2e}")

# the same data re-labeled for the non-convex least-squares loss
ds_nlls = normalize_labels(ds, "nlls")
obj_nlls = Objective("nlls", ds_nlls)
print(f"\nnlls labels {ds_nlls.labels}, f(0) = {obj_nlls.loss_full(w0)} (always 0.25)")

# smoothness diagnostics: per-sample L_i and their root mean square
info = obj.smoothness()
print(f"L_i = {np.round(info.L_i, 4)}, L_tilde = {info.L_tilde:.4f}")
