"""The errors the front end maps to exit codes, apart from the lattice stack
so that it can catch them without importing scipy or numpy."""


class GuardError(RuntimeError):
    """A numerical validity guard failed; results would not be trustworthy."""


class ConfigError(Exception):
    """The flags ask for something that does not exist or cannot be done.
    Not a ValueError: a ValueError from the program's own work is a bug."""
