"""Traced memory of one call, for the tests that bound what a run holds.

tracemalloc sees numpy's array buffers, so a call's traced peak is the
most that its arrays and Python objects held at once. A bound is stated
against the bytes of the record's columns, the table a run yields.
"""

import tracemalloc

#: integrate's traced peak over the bytes of its record's columns. A dim
#: 100 run of 2501 rows read 2.71 when each row was kept as its own
#: arrays and stacked after the loop, and 1.39 with the rows written into
#: column tables: the tables, plus the diagnostics' stacked temporaries.
#: read_trajectory_csv's, over the columns it returns, read 1.26 with
#: np.loadtxt and 1.50 with csvtext's kernel in chunks of 128 KiB, on a
#: dim-50 file of 1601 rows: the table, plus one chunk's text and the
#: kernel's arrays, at most about 90 bytes per field of the chunk
PEAK_PER_COLUMN_BYTE = 2.0


def traced_peak(call):
    """call()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def column_bytes(record) -> int:
    return sum(column.nbytes for column in record.columns.values())
