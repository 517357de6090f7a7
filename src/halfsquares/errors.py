"""The one exception for input that the program cannot accept."""


class InputError(ValueError):
    """A malformed input file or a parameter outside its range.

    The command line answers it with exit code 2.  It stays a ValueError,
    so callers that catch ValueError keep working.
    """
