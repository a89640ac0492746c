"""The guard error, apart from the lattice stack so that the front end can
catch it without importing scipy or numpy."""


class GuardError(RuntimeError):
    """A numerical validity guard failed; results would not be trustworthy."""
