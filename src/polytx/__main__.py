"""``python -m polytx``: the same command line as the installed ``polytx``."""

from .cli import entry

if __name__ == "__main__":
    entry()
