"""``python -m qmds``: the same command line as the ``qmds`` script."""

from .cli import run

if __name__ == "__main__":
    run()
