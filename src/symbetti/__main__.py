"""`python -m symbetti`: the same command line as the `symbetti` entry point."""

from .cli import entry

if __name__ == "__main__":
    entry()
