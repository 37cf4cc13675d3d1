"""`python -m sptrees`: the command-line interface."""

from .cli import main

main()
