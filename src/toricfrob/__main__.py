"""``python -m toricfrob``: the command-line interface without installing."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
