"""The ``ohg`` subcommands, one module each, with ``add_arguments(parser)``
and ``run(args)``; :mod:`ohg.cli` loads the one a command line names."""
