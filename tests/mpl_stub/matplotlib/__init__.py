"""Stand-in for matplotlib, put on PYTHONPATH by test_demos.py where the
real package is not installed, so the demos' plot branches still run.
Every drawing call accepts any arguments and draws nothing."""


def use(backend, *args, **kwargs):
    pass
