import os

# One BLAS thread, as the benchmark runs, unless the caller set a count: the
# oracle then runs its trials side by side, and tier-1 checks the bits the
# benchmark digests.  Set before numpy loads, since BLAS reads them once.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from hypothesis import HealthCheck, settings  # noqa: E402

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")
