"""`python -m vanishlab`: the command-line front end of cli.py."""

from .cli import main

raise SystemExit(main())
