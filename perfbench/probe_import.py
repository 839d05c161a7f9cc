"""Time `import qboson_kit` in a fresh interpreter, then the reference kernels.

Run by run.py with the benchmark's environment; prints the import seconds,
the kernels' seconds and the imported package's location.  The kernels run
once untimed first, so their own lazy imports and first-touch costs are not
counted.
"""

import time

start = time.perf_counter()
import qboson_kit  # noqa: E402

import_s = time.perf_counter() - start

import calibration  # noqa: E402

calibration.sparse_kernel()
calibration.dense_kernel()
kernel_s = calibration.sparse_kernel() + calibration.dense_kernel()
print(import_s, kernel_s, qboson_kit.__file__)
