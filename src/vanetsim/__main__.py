"""``python -m vanetsim``: the ``vanetsim`` command."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
