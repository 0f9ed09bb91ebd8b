"""`python -m confsym`: the command line of the `confsym` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
