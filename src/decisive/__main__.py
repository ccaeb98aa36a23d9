"""``python -m decisive``: the ``decisive`` command."""

from .cli import main

if __name__ == "__main__":
    main()
