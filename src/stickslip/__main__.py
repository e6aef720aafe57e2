"""``python -m stickslip``: the same command line as the ``stickslip`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
