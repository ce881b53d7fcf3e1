"""`python -m rorrlab`: the command line of `rorrlab.cli`."""
from .cli import main

raise SystemExit(main())
