"""``python -m wavefront``: the command-line interface without installing."""

from .cli import main

if __name__ == "__main__":
    main()
