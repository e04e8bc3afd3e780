"""Error taxonomy shared by every module.

Four failure classes, kept deliberately coarse so callers (and the CLI) can
map them to exit codes without inspecting messages:

* ``InputError``        -- malformed user input (bad code text, bad options)
* ``UnrealizableError`` -- syntactically valid code with no planar diagram
* ``ResourceError``     -- a configured limit was hit (scramble size, flip
                           count, bracket frontier states)
* ``InternalError``     -- an invariant of the implementation itself broke
"""


class GordianError(Exception):
    """Base class for all package errors."""


class InputError(GordianError):
    pass


class UnrealizableError(GordianError):
    pass


class ResourceError(GordianError):
    pass


class InternalError(GordianError):
    pass
