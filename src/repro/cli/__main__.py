"""``python -m repro.cli`` — same entry point as the ``zoom-analysis`` script."""

from repro.cli import main

raise SystemExit(main())
