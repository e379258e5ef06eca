"""`python -m posetmatrix ...` runs the command line."""

from .cli import main

main()
