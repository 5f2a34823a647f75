"""`python -m splinesel`: the same entry point as the `splinesel` command."""

from .cli import main

if __name__ == "__main__":
    main()
