"""The transport kernel module and the backend name runs report.

There is one kernel, the batched numpy shoot in _kernels_py; transport
reaches it as kernels.shoot_endpoint.
"""

from . import _kernels_py as kernels

BACKEND = "python"

__all__ = ["kernels", "BACKEND"]
