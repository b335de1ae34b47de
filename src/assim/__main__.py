"""``python -m assim``: the ``assim`` command line."""

from .cli import console

if __name__ == "__main__":
    console()
