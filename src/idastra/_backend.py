"""The hot kernels the domains call.

Domains call them as ``kernels.<name>``, looked up on every call, so a
wrapper set on ``kernels`` sees every call.
"""

from idastra import _kernels_py as kernels


def backend_name():
    """The kernels' implementation: "python"."""
    return kernels.BACKEND
