"""The one memory-block policy: a loop that works through a large array in
pieces holds at most BLOCK floats (512 KB) of temporaries a piece, and a piece
that holds k temporaries of a row at once counts the row k times. Each site
reads BLOCK when it is called."""

BLOCK = 1 << 16


def row_blocks(rows: int, width: int):
    """Slices over `rows` rows of `width` floats, max(1, BLOCK // width) rows each."""
    step = max(1, BLOCK // max(width, 1))
    return [slice(r, min(r + step, rows)) for r in range(0, rows, step)]
