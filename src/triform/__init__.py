"""Exact enumeration and classification of degeneracies in E = 3*n1^2 + n2^2.

The public names are those of `brahmagupta`, `census`, `perrin` and
`spectrum`: each module lists its own in `__all__`, and the package
re-exports them, so a name is declared once, where it is defined.
"""

from . import brahmagupta, census, perrin, spectrum
from .brahmagupta import *  # noqa: F401,F403
from .census import *  # noqa: F401,F403
from .perrin import *  # noqa: F401,F403
from .spectrum import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = []
__all__ += brahmagupta.__all__
__all__ += census.__all__
__all__ += perrin.__all__
__all__ += spectrum.__all__
