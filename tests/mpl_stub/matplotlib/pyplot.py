"""``subplots`` of the matplotlib stand-in: figures and axes whose methods
accept any arguments."""


class _Anything:
    def __getattr__(self, name):
        return lambda *args, **kwargs: None


def subplots(nrows=1, ncols=1, **kwargs):
    """(figure, axes), with the axes squeezed as matplotlib squeezes them."""
    axes = [[_Anything() for _ in range(ncols)] for _ in range(nrows)]
    if nrows == 1 and ncols == 1:
        return _Anything(), axes[0][0]
    if nrows == 1 or ncols == 1:
        return _Anything(), [ax for row in axes for ax in row]
    return _Anything(), axes
